"""Tests for the quantum-side objects.

Core claims covered here:
  * the settings grid is the fixed one (offset triple first, shared triple
    after) and rejects anything else,
  * the correlation tensor carries exactly the seven values
    {0, +-1/2, +-sqrt(3)/2, +-1}, equals cos(sum of phases) entry by entry,
    has squared norm 3^N/2 and entry sum -2^N sin((N-1) pi/3),
  * tensors validate their shape, range and finiteness, and their JSON form
    round-trips; a caller's array is copied and stays writable, while a fresh
    array the package builds is taken over without a copy, under the same
    checks,
  * the integer table T holds only 0 and +-1, 2 3^(N-1) of them nonzero, its
    entry sum times sqrt(3)/2 is the closed form exactly (and so is the sum
    walked from the six setting-sum residue counts, for every N up to 1023),
    the quantum tensor is sqrt(3)/2 times T to the last bit, and both match a
    lookup of the grid's summed phase classes,
  * each N's quantum tensor and integer table are built once and shared,
    with read-only entries,
  * every public entry point that takes a party count rejects N = 1 through
    the one rule, with the same field and message, and the same rule rejects a
    count that is not an integer and takes any integer type as its plain int.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from ghzbell import (
    CorrelationTensor,
    DeterministicStrategy,
    ExperimentConfig,
    SettingsGrid,
    bound_attaining_strategy,
    build_settings,
    critical_efficiency,
    critical_visibility,
    efficiency_closed_form,
    entry_sum_closed_form,
    lhv_bound,
    max_score_brute,
    max_score_factorized,
    quantum_tensor,
    run_checks,
    setting_phase_classes,
    threshold_table,
    two_setting_visibility_threshold,
    violation_factor,
)
from ghzbell.quantum import COS12, HALF_SQRT3, ODD_CLASS_COS, _FieldError, integer_tensor

SQRT3 = math.sqrt(3.0)
SEVEN_VALUES = {0.0, 0.5, -0.5, SQRT3 / 2, -SQRT3 / 2, 1.0, -1.0}


def _radians(grid):
    """The grid's phases as plain float radians, per party and setting."""
    return tuple(tuple(c / 6 * math.pi for c in t) for t in grid.phase_classes())


class TestSettingsGrid:
    def test_build_settings_phases(self):
        grid = build_settings(3)
        assert grid.n_parties == 3
        assert grid.phase_classes() == ((1, 3, 5), (0, 2, 4), (0, 2, 4))
        # The same phases as exact fractions of pi, to the last bit.
        first = (Fraction(1, 6), Fraction(1, 2), Fraction(5, 6))
        other = (Fraction(0), Fraction(1, 3), Fraction(2, 3))
        assert _radians(grid) == tuple(
            tuple(float(p) * math.pi for p in triple) for triple in (first, other, other)
        )

    def test_radians(self):
        grid = build_settings(2)
        first, second = _radians(grid)
        assert first == pytest.approx((math.pi / 6, math.pi / 2, 5 * math.pi / 6))
        assert second == pytest.approx((0.0, math.pi / 3, 2 * math.pi / 3))

    def test_phase_classes(self):
        grid = build_settings(2)
        assert grid.phase_classes() == ((1, 3, 5), (0, 2, 4))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_phase_classes_follow_the_stored_phases(self, n):
        grid = build_settings(n)
        classes, radians = grid.phase_classes(), _radians(grid)
        assert len(classes) == len(radians) == n
        for k in range(n):
            for i in range(3):
                assert radians[k][i] == classes[k][i] / 6 * math.pi

    def test_too_few_parties(self):
        with pytest.raises(ValueError):
            build_settings(1)

    def test_rejects_nonstandard_phases(self):
        other = (Fraction(0), Fraction(1, 3), Fraction(2, 3))
        with pytest.raises(TypeError):
            SettingsGrid(n_parties=2, phases=(other, other))

    def test_rejects_wrong_triple_count(self):
        first = (Fraction(1, 6), Fraction(1, 2), Fraction(5, 6))
        other = (Fraction(0), Fraction(1, 3), Fraction(2, 3))
        with pytest.raises(TypeError):
            SettingsGrid(n_parties=3, phases=(first, other))


class TestQuantumTensor:
    def test_known_entries_two_parties(self):
        q = quantum_tensor(build_settings(2)).as_grid()
        assert q[0, 0] == pytest.approx(SQRT3 / 2, abs=1e-15)
        # pi/2 + 2pi/3 = 7pi/6.
        assert q[1, 2] == pytest.approx(-SQRT3 / 2, abs=1e-15)
        assert q[1, 0] == pytest.approx(0.0, abs=1e-15)

    def test_entries_live_on_seven_values(self):
        for n in (2, 3, 5):
            q = quantum_tensor(build_settings(n))
            assert set(np.unique(q.entries)) <= SEVEN_VALUES

    def test_matches_float_cosine_route(self):
        for n in (2, 3, 4):
            grid = build_settings(n)
            q = quantum_tensor(grid).as_grid()
            radians = _radians(grid)
            for combo in itertools.product(range(3), repeat=n):
                angles = [radians[k][combo[k]] for k in range(n)]
                assert q[combo] == pytest.approx(math.cos(math.fsum(angles)), abs=1e-12)

    def test_norm_identity(self):
        for n in range(2, 11):
            q = quantum_tensor(build_settings(n))
            assert abs(np.dot(q.entries, q.entries) - 3.0 ** n / 2.0) < 1e-9

    def test_entry_sum_matches_closed_form(self):
        for n in range(2, 11):
            q = quantum_tensor(build_settings(n))
            assert abs(np.sum(q.entries) - entry_sum_closed_form(n)) < 1e-9

    def test_entry_sum_frozen_values(self):
        q2 = quantum_tensor(build_settings(2))
        assert np.sum(q2.entries) == pytest.approx(-2 * SQRT3, abs=1e-12)
        q5 = quantum_tensor(build_settings(5))
        assert np.sum(q5.entries) == pytest.approx(16 * SQRT3, abs=1e-12)

    def test_entry_sum_vanishes_at_n_1_mod_3(self):
        for n in (4, 7, 10):
            assert entry_sum_closed_form(n) == 0.0
            q = quantum_tensor(build_settings(n))
            assert abs(np.sum(q.entries)) < 1e-9

    def test_cached_once_per_n_and_read_only(self):
        for n in range(2, 6):
            q = quantum_tensor(build_settings(n))
            assert quantum_tensor(build_settings(n)) is q
            assert not q.entries.flags.writeable

    def test_phase_classes_consistent_with_entries(self):
        grid = build_settings(3)
        classes = setting_phase_classes(grid)
        q = quantum_tensor(grid)
        table = np.cos(classes * math.pi / 6.0)
        assert np.allclose(q.entries, table, atol=1e-12)


class TestCorrelationTensor:
    def test_length_validation(self):
        with pytest.raises(ValueError):
            CorrelationTensor(n_parties=2, entries=np.zeros(8))

    def test_magnitude_validation(self):
        bad = np.zeros(9)
        bad[0] = 1.5
        with pytest.raises(ValueError):
            CorrelationTensor(n_parties=2, entries=bad)

    def test_nonfinite_validation(self):
        bad = np.zeros(9)
        bad[0] = np.nan
        with pytest.raises(ValueError):
            CorrelationTensor(n_parties=2, entries=bad)

    @pytest.mark.parametrize(
        "value, message",
        [
            (np.nan, "finite"),
            (np.inf, "finite"),
            (-np.inf, "finite"),
            (1.5, "magnitudes cannot exceed 1"),
            (-1.5, "magnitudes cannot exceed 1"),
            (1.0 + 2e-9, "magnitudes cannot exceed 1"),
            (-1.0 - 2e-9, "magnitudes cannot exceed 1"),
        ],
    )
    @pytest.mark.parametrize("take", [False, True])
    def test_each_rule_names_itself(self, value, message, take):
        # A NaN or an infinity is reported as such even beside an entry above 1.
        bad = np.full(9, 0.5)
        bad[4] = value
        if message == "finite":
            bad[0] = 1.5
        with pytest.raises(ValueError, match=message):
            CorrelationTensor(2, bad, _take=take)

    @pytest.mark.parametrize("edge", [1.0 + 1e-9, -1.0 - 1e-9])
    def test_magnitudes_within_the_rounding_allowance_pass(self, edge):
        entries = np.zeros(9)
        entries[[0, 8]] = edge, -edge
        assert CorrelationTensor(2, entries).entries[0] == edge

    def test_entries_read_only(self):
        q = quantum_tensor(build_settings(2))
        with pytest.raises(ValueError):
            q.entries[0] = 0.0

    def test_callers_array_is_copied_and_stays_writable(self):
        mine = np.zeros(9)
        t = CorrelationTensor(n_parties=2, entries=mine)
        assert t.entries is not mine and not t.entries.flags.writeable
        mine[0] = 0.5
        assert mine.flags.writeable and t.entries[0] == 0.0

    def test_fresh_array_is_taken_over_with_the_same_checks(self):
        fresh = np.full(9, 0.25)
        t = CorrelationTensor(2, fresh, _take=True)
        assert t.entries is fresh and not fresh.flags.writeable
        assert t.n_parties == 2
        for value in (np.nan, np.inf, 1.5):
            bad = np.zeros(9)
            bad[4] = value
            with pytest.raises(ValueError):
                CorrelationTensor(2, bad, _take=True)
        with pytest.raises(ValueError, match="expected 9 entries"):
            CorrelationTensor(2, np.zeros(8), _take=True)

    def test_dict_roundtrip(self):
        q = quantum_tensor(build_settings(2))
        data = q.to_dict()
        assert data["n_parties"] == 2
        assert len(data["entries"]) == 9
        loaded = json.loads(json.dumps(data))
        again = CorrelationTensor(n_parties=loaded["n_parties"], entries=loaded["entries"])
        assert np.array_equal(again.entries, q.entries)


class TestIntegerTensor:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_integer_facts(self, n):
        t = integer_tensor(build_settings(n))
        assert set(np.unique(t.entries)) <= {0.0, 1.0, -1.0}
        assert np.count_nonzero(t.entries) == 2 * 3 ** (n - 1)
        assert np.dot(t.entries, t.entries) == 2 * 3 ** (n - 1)
        assert HALF_SQRT3 * np.sum(t.entries) == entry_sum_closed_form(n)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_quantum_tensor_is_half_sqrt3_times_the_table(self, n):
        grid = build_settings(n)
        q, t = quantum_tensor(grid), integer_tensor(grid)
        assert (HALF_SQRT3 * t.entries).tobytes() == q.entries.tobytes()

    @pytest.mark.parametrize("n", range(2, 9))
    def test_tables_match_the_summed_phase_classes(self, n):
        # The reference adds the grid's per-party phase classes combination by
        # combination, in CorrelationTensor order, apart from the digit-sum rule.
        grid = build_settings(n)
        classes = np.array(
            [sum(combo) % 12 for combo in itertools.product(*grid.phase_classes())],
            dtype=np.int64,
        )
        got = setting_phase_classes(grid)
        assert got.dtype == np.int64
        assert np.array_equal(got, classes)
        # The same bits as looking each entry up in the 12-class cosine table.
        table = np.asarray(COS12)[classes]
        assert table.tobytes() == quantum_tensor(grid).entries.tobytes()
        assert (table / HALF_SQRT3).tobytes() == integer_tensor(grid).entries.tobytes()

    @staticmethod
    def _entry_sum_by_residue_counts(n):
        """Sum of T from the number of combinations at each setting sum mod 6, in Python ints."""
        counts = [1, 0, 0, 0, 0, 0]
        for _ in range(n):
            counts = [counts[r] + counts[r - 1] + counts[r - 2] for r in range(6)]
        return sum(c * t for c, t in zip(counts, ODD_CLASS_COS))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_entry_sum_from_residue_counts_matches_the_table(self, n):
        total = self._entry_sum_by_residue_counts(n)
        assert total in (0, 2 ** n, -(2 ** n))
        assert total == np.sum(integer_tensor(build_settings(n)).entries)

    def test_entry_sum_from_residue_counts_is_the_closed_form_for_every_n(self):
        for n in range(2, 1024):
            total = self._entry_sum_by_residue_counts(n)
            assert HALF_SQRT3 * total == entry_sum_closed_form(n), n

    def test_cached_once_per_n_and_read_only(self):
        for n in range(2, 6):
            t = integer_tensor(build_settings(n))
            assert isinstance(t, CorrelationTensor)
            assert integer_tensor(build_settings(n)) is t
            assert not t.entries.flags.writeable


@pytest.mark.parametrize(
    "call",
    [
        lambda: build_settings(1),
        lambda: CorrelationTensor(1, np.zeros(3)),
        lambda: entry_sum_closed_form(1),
        lambda: lhv_bound(1),
        lambda: violation_factor(1),
        lambda: bound_attaining_strategy(1),
        lambda: DeterministicStrategy(assignments=((1, 1, -1),)),
        lambda: two_setting_visibility_threshold(1),
        lambda: critical_visibility(1),
        lambda: efficiency_closed_form(1),
        lambda: ExperimentConfig(1, 0.5, 0.5, 3, seed=0),
    ],
    ids=[
        "build_settings", "CorrelationTensor", "entry_sum_closed_form", "lhv_bound",
        "violation_factor", "bound_attaining_strategy", "DeterministicStrategy",
        "two_setting_visibility_threshold", "critical_visibility", "efficiency_closed_form",
        "ExperimentConfig",
    ],
)
def test_one_party_is_rejected_by_the_one_rule(call):
    with pytest.raises(_FieldError, match="^need at least 2 parties, got 1$") as info:
        call()
    assert info.value.field == "n_parties"


@pytest.mark.parametrize(
    "call",
    [
        build_settings,
        lambda n: CorrelationTensor(n, np.zeros(27)).n_parties,
        lambda n: quantum_tensor(build_settings(n)),
        entry_sum_closed_form,
        lhv_bound,
        violation_factor,
        bound_attaining_strategy,
        max_score_brute,
        max_score_factorized,
        two_setting_visibility_threshold,
        critical_visibility,
        critical_efficiency,
        lambda n: critical_efficiency([n]).tolist(),
        threshold_table,
        run_checks,
        lambda n: ExperimentConfig(n, 0.5, 0.5, 27, seed=0),
    ],
    ids=[
        "build_settings", "CorrelationTensor", "quantum_tensor", "entry_sum_closed_form",
        "lhv_bound", "violation_factor", "bound_attaining_strategy", "max_score_brute",
        "max_score_factorized", "two_setting_visibility_threshold", "critical_visibility",
        "critical_efficiency", "critical_efficiency-sequence", "threshold_table", "run_checks",
        "ExperimentConfig",
    ],
)
def test_party_count_must_be_an_integer_of_any_integer_type(call):
    for value in (2.5, "3"):
        message = f"^n_parties must be an integer, got {value!r}$".replace(".", r"\.")
        with pytest.raises(_FieldError, match=message) as info:
            call(value)
        assert info.value.field == "n_parties"
    assert call(np.int64(3)) == call(3)
