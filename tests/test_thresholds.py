"""Tests for visibility and detection-efficiency thresholds.

Core claims covered here:
  * the critical visibility at perfect detection is sqrt(3) (2/3)^N and the
    general formula handles the entry-sum correction at eta < 1,
  * the critical efficiency solves visibility(eta) = 1, collapses to the
    closed form (2^N sqrt(3) / 3^N)^(1/N) whenever the entry sum vanishes,
    decreases with N and stays above 2/3,
  * one elementwise bisection over a sequence of N returns, bit for bit, the
    roots of per-N bisections, and no bisection decision over N = 2..646 is
    close enough to 0 for a last-bit error in numpy's SIMD pow to flip it,
  * the two-setting reference threshold is 2^((1-N)/2) and is overtaken by
    the three-setting one from N = 4 on,
  * tabulation and percent rendering are exact and reproducible.
"""

import hashlib
import math

import numpy as np
import pytest

from ghzbell import (
    CSV_HEADER,
    critical_efficiency,
    critical_visibility,
    efficiency_closed_form,
    entry_sum_closed_form,
    lhv_bound,
    percent_string,
    render_table_csv,
    threshold_table,
    two_setting_visibility_threshold,
)

SQRT3 = math.sqrt(3.0)


class TestCriticalVisibility:
    def test_closed_form_at_perfect_detection(self):
        for n in range(2, 21):
            got = critical_visibility(n)
            assert abs(got - SQRT3 * (2.0 / 3.0) ** n) < 1e-12

    def test_frozen_values(self):
        assert critical_visibility(2) == pytest.approx(
            0.7698003589195009, abs=1e-12
        )
        assert critical_visibility(3) == pytest.approx(
            0.5132002392796672, abs=1e-12
        )
        assert critical_visibility(10) == pytest.approx(
            0.030036410895197707, abs=1e-12
        )

    def test_frozen_value_with_losses(self):
        got = critical_visibility(2, eta=0.9)
        assert got == pytest.approx(0.9408671053460566, abs=1e-12)

    def test_losses_raise_the_threshold(self):
        for n in (2, 3, 5):
            perfect = critical_visibility(n)
            lossy = critical_visibility(n, eta=0.9)
            assert lossy > perfect

    def test_attainable_flag(self):
        assert critical_visibility(2) <= 1.0
        assert critical_visibility(2, eta=0.75) > 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            critical_visibility(1)
        with pytest.raises(ValueError):
            critical_visibility(3, eta=0.0)
        with pytest.raises(ValueError):
            critical_visibility(3, eta=1.2)


class TestUnderflowedEfficiencyPower:
    """critical_visibility where eta^N underflows in float64."""

    @pytest.mark.parametrize(
        "n, eta",
        [
            (600, 0.25),
            (646, 0.3),
            (620, 0.3),
            (400, 0.15),
            (135, 0.0038),
            (5, 1e-70),
            (2, 1e-200),
            (2, 1e-300),
        ],
    )
    def test_matches_mpmath(self, n, eta, mpmath_visibility):
        assert eta ** n == 0.0
        got = critical_visibility(n, eta)
        assert got == pytest.approx(float(mpmath_visibility(n, eta)), rel=1e-12, abs=0.0)

    def test_frozen_value(self):
        got = critical_visibility(600, 0.25)
        assert got == pytest.approx(6.6039e255, rel=1e-4)

    @pytest.mark.parametrize("n, eta", [(300, 0.05), (4, 1e-90), (646, 0.01), (2, 5e-324)])
    def test_beyond_float64_is_inf(self, n, eta, mpmath_visibility):
        assert mpmath_visibility(n, eta) > 1.7976931348623157e308
        assert critical_visibility(n, eta) == math.inf


class TestCriticalEfficiency:
    def test_frozen_values(self):
        assert critical_efficiency(2) == pytest.approx(0.8699290346957322, abs=1e-10)
        assert critical_efficiency(3) == pytest.approx(0.7984330690821702, abs=1e-10)
        assert critical_efficiency(4) == pytest.approx(0.7648017936265847, abs=1e-10)
        assert critical_efficiency(5) == pytest.approx(0.7439181566706534, abs=1e-10)

    def test_percent_rendering(self):
        expected = {2: "87.0", 3: "79.8", 4: "76.5", 5: "74.4"}
        for n, text in expected.items():
            assert percent_string(critical_efficiency(n)) == text

    def test_solves_unit_visibility(self):
        for n in range(2, 13):
            eta = critical_efficiency(n)
            assert critical_visibility(n, eta=eta) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_decreasing_and_above_two_thirds(self):
        values = [critical_efficiency(n) for n in range(2, 21)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > 2.0 / 3.0 for v in values)

    def test_large_n_approaches_two_thirds(self):
        eta40 = critical_efficiency(40)
        assert 2.0 / 3.0 < eta40 < 0.68
        assert eta40 == pytest.approx(0.6758849197415822, abs=1e-10)

    def test_invalid_n(self):
        for solver in (critical_efficiency, efficiency_closed_form):
            with pytest.raises(ValueError, match="need at least 2 parties, got 1"):
                solver(1)


class TestEfficiencyClosedForm:
    def test_matches_bisection_when_entry_sum_vanishes(self):
        for n in (4, 7, 10):
            closed = efficiency_closed_form(n)
            assert abs(closed - critical_efficiency(n)) < 1e-12

    def test_frozen_value(self):
        assert efficiency_closed_form(4) == pytest.approx(
            (16 * SQRT3 / 81) ** 0.25, abs=1e-15
        )
        assert efficiency_closed_form(4) == pytest.approx(0.7648017936265847, abs=1e-12)

    def test_rejects_nonvanishing_entry_sum(self):
        with pytest.raises(ValueError):
            efficiency_closed_form(5)


class TestTwoSettingThreshold:
    def test_frozen_values(self):
        assert two_setting_visibility_threshold(2) == pytest.approx(
            0.7071067811865476, abs=1e-15
        )
        assert two_setting_visibility_threshold(4) == pytest.approx(
            0.3535533905932738, abs=1e-15
        )
        assert two_setting_visibility_threshold(10) == pytest.approx(
            0.04419417382415922, abs=1e-15
        )

    def test_percent_rendering(self):
        expected = {2: "70.7", 3: "50.0", 4: "35.4", 5: "25.0", 10: "4.4"}
        for n, text in expected.items():
            assert percent_string(two_setting_visibility_threshold(n)) == text

    def test_crossover_at_four_parties(self):
        # The three-setting threshold only wins from four parties on.
        for n in (2, 3):
            assert critical_visibility(n) > two_setting_visibility_threshold(n)
        for n in range(4, 13):
            assert critical_visibility(n) < two_setting_visibility_threshold(n)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            two_setting_visibility_threshold(1)


class TestPercentString:
    def test_half_up_rounding(self):
        assert percent_string(0.2225) == "22.3"
        assert percent_string(0.35355339059327373) == "35.4"
        assert percent_string(0.5) == "50.0"
        assert percent_string(0.044194173824159216) == "4.4"

    def test_new_threshold_two_parties_renders_77_0(self):
        # sqrt(3) * 4/9 = 0.7698..., which rounds to 77.0 (not 77.8).
        assert percent_string(critical_visibility(2)) == "77.0"

    def test_negative_rounds_away_from_zero(self):
        assert percent_string(-0.2225) == "-22.3"


class TestThresholdTable:
    def test_rows_match_individual_calls(self):
        rows = threshold_table(5)
        assert [r.n for r in rows] == [2, 3, 4, 5]
        for row in rows:
            n = row.n
            assert row.v_cr_new == critical_visibility(n)
            assert row.v_cr_old == two_setting_visibility_threshold(n)
            assert row.eta_cr == critical_efficiency(n)

    def test_perfect_detection_column_matches_critical_visibility_to_the_bit(self):
        # Up to the float64 limit, each value is the bound over the quantum
        # value 3^N / 2 in one Python-float divide.
        rows = threshold_table(646)
        assert [r.n for r in rows] == list(range(2, 647))
        for row in rows:
            assert row.v_cr_new.hex() == critical_visibility(row.n, 1.0).hex()
            assert row.v_cr_new.hex() == (lhv_bound(row.n) / (3.0 ** row.n / 2.0)).hex()

    def test_invalid_n_max(self):
        with pytest.raises(ValueError, match="n_max must be at least 2, got 1") as info:
            threshold_table(1)
        assert info.value.field == "n_max"

    @pytest.mark.parametrize(
        "n_max", [647, 10 ** 12, 10 ** 20, 10 ** 400], ids=["647", "1e12", "1e20", "1e400"]
    )
    def test_overflowing_n_max_raises_before_building_any_n(self, n_max, monkeypatch):
        import ghzbell.thresholds as thresholds

        def no_bisection(ns):
            raise AssertionError("N = 2..n_max was built before the overflow was seen")

        monkeypatch.setattr(thresholds, "critical_efficiency", no_bisection)
        with pytest.raises(OverflowError):
            threshold_table(n_max)

    def test_csv_header_and_shape(self):
        text = render_table_csv(threshold_table(4))
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert CSV_HEADER == "n,v_cr_new,v_cr_old,eta_cr"
        assert len(lines) == 4

    def test_csv_values_roundtrip(self):
        lines = render_table_csv(threshold_table(3)).splitlines()
        fields = lines[1].split(",")
        assert fields[0] == "2"
        assert float(fields[1]) == critical_visibility(2)
        assert float(fields[2]) == two_setting_visibility_threshold(2)
        assert float(fields[3]) == critical_efficiency(2)

    def test_row_to_dict(self):
        row = threshold_table(3)[0]
        data = row.to_dict()
        assert set(data) == {"n", "v_cr_new", "v_cr_old", "eta_cr"}
        assert data["n"] == 2


class TestEfficiencyRootUniqueness:
    """critical_efficiency relies on convexity for a unique root; check it here."""

    def test_margin_changes_sign_once(self):
        # The 201-point scan critical_efficiency used to run on every call,
        # over the same margin function its bisection evaluates.
        from ghzbell.thresholds import BISECTION_LO, _efficiency_margin

        lo, hi = BISECTION_LO, 1.0
        samples = [lo + (hi - lo) * i / 200 for i in range(201)]
        for n in range(2, 647):
            margin = _efficiency_margin(n)
            signs = [margin(x) >= 0.0 for x in samples]
            changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
            assert changes == 1, f"N={n}: {changes} sign changes"

    @pytest.mark.parametrize("fraction", [0.5, 1.0 + 2.0 ** -52, 1e-300])
    def test_premise_check_rejects_other_entry_sums(self, monkeypatch, fraction):
        import ghzbell.thresholds as thresholds

        monkeypatch.setattr(
            thresholds, "entry_sum_closed_form", lambda n: fraction * lhv_bound(n)
        )
        with pytest.raises(RuntimeError, match="neither 0 nor 1"):
            critical_efficiency(5)


class TestOverflowBoundary:
    """3^N / 2 is a finite double up to N = 646; N = 647 must still raise."""

    def test_last_finite_row_matches_the_table(self):
        eta = critical_efficiency(646)
        assert math.isfinite(eta)
        # eta_cr of the last row of `ghzbell thresholds --n-max 646 --format csv`.
        assert repr(eta) == "0.6672337871552247"

    def test_first_overflowing_n_raises(self):
        with pytest.raises(OverflowError):
            critical_efficiency(647)


class TestElementwiseBisection:
    """critical_efficiency over a sequence of N: one bisection, the same bits."""

    ALL_N = range(2, 647)

    def test_sequence_matches_per_n_calls_bit_for_bit(self):
        together = critical_efficiency(self.ALL_N)
        assert isinstance(together, np.ndarray)
        assert together.dtype == np.float64
        assert together.shape == (len(self.ALL_N),)
        alone = [critical_efficiency(n) for n in self.ALL_N]
        assert [x.hex() for x in together.tolist()] == [x.hex() for x in alone]

    def test_values_match_the_scalar_solver_golden(self):
        # sha256 of the float.hex lines of critical_efficiency(n), N = 2..646,
        # as the per-N scalar bisection in plain Python floats returned them.
        text = "".join(x.hex() + "\n" for x in critical_efficiency(self.ALL_N).tolist())
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "d644a77295b34f20083e48e7cc1461a4074b601badd0a4e110200ade9be00cfa"
        )

    def test_int_gives_a_float(self):
        assert type(critical_efficiency(5)) is float
        assert type(critical_efficiency(np.int64(5))) is float
        assert critical_efficiency(5) == critical_efficiency([5])[0]

    def test_empty_sequence_gives_an_empty_array(self):
        assert critical_efficiency([]).shape == (0,)

    def test_decisions_clear_pow_rounding(self):
        # Replay every bisection in plain Python floats (libm pow) and keep
        # the smallest |g(mid)| / max(A + B, bound) over all decisions. A
        # SIMD pow a few ulps off cannot flip a decision this far from 0.
        # Each replay stops on its own once its bracket is below 1e-12, and
        # every N takes exactly the fixed step count the solver runs.
        from ghzbell.thresholds import BISECTION_LO, BISECTION_STEPS

        results, steps = [], []
        worst = math.inf
        for n in self.ALL_N:
            three_n, q_abs, bound = 3.0 ** n, abs(entry_sum_closed_form(n)), lhv_bound(n)
            lo, hi = BISECTION_LO, 1.0
            k = 0
            while hi - lo >= 1e-12:
                mid = 0.5 * (lo + hi)
                a, b = mid ** n * three_n / 2.0, q_abs * (1.0 - mid) ** n
                g = a + b - bound
                worst = min(worst, abs(g) / max(a + b, bound))
                if g < 0.0:
                    lo = mid
                else:
                    hi = mid
                k += 1
            results.append(0.5 * (lo + hi))
            steps.append(k)
        assert worst >= 2.0 ** -46, math.log2(worst)
        assert steps == [BISECTION_STEPS] * len(self.ALL_N)
        assert critical_efficiency(self.ALL_N).tolist() == results

    def test_premise_failure_names_the_first_bad_n(self, monkeypatch):
        import ghzbell.thresholds as thresholds

        true_sum = thresholds.entry_sum_closed_form
        monkeypatch.setattr(
            thresholds,
            "entry_sum_closed_form",
            lambda n: 0.5 * lhv_bound(n) if n in (7, 9) else true_sum(n),
        )
        with pytest.raises(RuntimeError, match=r"^N=7: \|q_N\| / bound = 0\.5 is neither"):
            critical_efficiency(range(2, 12))

    def test_bad_bracket_names_the_first_bad_n(self, monkeypatch):
        import ghzbell.thresholds as thresholds

        # eta_cr is 0.870, 0.798 and 0.765 at N = 2, 3, 4: a bracket from
        # 0.78 holds the first two roots and misses the third.
        monkeypatch.setattr(thresholds, "BISECTION_LO", 0.78)
        with pytest.raises(RuntimeError) as info:
            critical_efficiency(range(2, 8))
        message = str(info.value)
        assert message.startswith("N=4: bisection bracket does not straddle the root: g(0.78)=")
        g_lo, g_hi = (float(part.split("=")[-1]) for part in message.split(", "))
        margin = thresholds._efficiency_margin(4)
        assert g_lo == pytest.approx(float(margin(0.78)), rel=1e-12) and g_lo > 0.0
        assert g_hi == pytest.approx(float(margin(1.0)), rel=1e-12)

    def test_a_bad_n_in_a_sequence_raises_as_it_does_alone(self):
        with pytest.raises(ValueError, match="need at least 2 parties, got 1"):
            critical_efficiency([2, 1, 3])
        with pytest.raises(OverflowError):
            critical_efficiency(range(640, 648))

    def test_table_solves_every_n_in_one_call(self, monkeypatch):
        import ghzbell.thresholds as thresholds

        calls = []
        solve = thresholds.critical_efficiency
        monkeypatch.setattr(
            thresholds, "critical_efficiency", lambda ns: calls.append(list(ns)) or solve(ns)
        )
        rows = threshold_table(30)
        assert calls == [list(range(2, 31))]
        assert all(type(row.eta_cr) is float for row in rows)
