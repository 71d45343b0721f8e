"""Tests for the quantum-side objects.

Core claims covered here:
  * the settings grid is the fixed one (offset triple first, shared triple
    after), N alone selects it, and no builder takes anything else,
  * the correlation tensor carries exactly the seven values
    {0, +-1/2, +-sqrt(3)/2, +-1}, equals cos(sum of phases) entry by entry,
    has squared norm 3^N/2 and entry sum -2^N sin((N-1) pi/3),
  * tensors validate their shape, range and finiteness, and their JSON form
    round-trips; a caller's array is copied and stays writable, while a fresh
    array the package builds is taken over without a copy, under the same
    checks,
  * the integer table T holds only 0 and +-1, 2 3^(N-1) of them nonzero, its
    entry sum times sqrt(3)/2 is the closed form exactly (and so is the sum
    walked from the six setting-sum residue counts, for every N up to 1024),
    the quantum tensor is sqrt(3)/2 times T to the last bit, and both match a
    lookup of the summed per-party phase classes,
  * each N's quantum tensor and integer table are built once and shared,
    with read-only entries; the count is checked before the cache is read,
    so every integer type of one N shares the entry and a rejected count
    adds none,
  * the Bell operator built from Q and the package's phase classes has
    eigenvalues +-3^N/2 once each and 0 otherwise, with the GHZ state on top,
    so no state measured with these observables beats (Q, Q) = 3^N/2,
  * every public entry point that takes a party count rejects N = 1 through
    the one rule, with the same field and message, and the same rule rejects a
    count that is not an integer and takes any integer type as its plain int,
  * the config's visibility and efficiency and critical_visibility's
    efficiency follow one rate rule: a value that is not a real number is
    rejected with its field, and numpy floats are accepted.
"""

import functools
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
    bound_attaining_strategy,
    build_settings,
    critical_efficiency,
    critical_visibility,
    efficiency_closed_form,
    entry_sum_closed_form,
    lhv_bound,
    max_score_brute,
    max_score_factorized,
    party_phasor,
    quantum_tensor,
    run_checks,
    setting_phase_classes,
    threshold_table,
    two_setting_visibility_threshold,
    violation_factor,
)
from ghzbell.quantum import (
    COS12,
    FIRST_PARTY_CLASSES,
    HALF_SQRT3,
    LATER_PARTY_CLASSES,
    ODD_CLASS_COS,
    _FieldError,
    integer_tensor,
)

SQRT3 = math.sqrt(3.0)
SEVEN_VALUES = {0.0, 0.5, -0.5, SQRT3 / 2, -SQRT3 / 2, 1.0, -1.0}


def _classes(n):
    """Each party's phase classes, per setting, for ``n`` parties."""
    return (FIRST_PARTY_CLASSES,) + (LATER_PARTY_CLASSES,) * (n - 1)


def _radians(n):
    """The phases of ``n`` parties as plain float radians, per party and setting."""
    return tuple(tuple(c / 6 * math.pi for c in t) for t in _classes(n))


class TestSettingsGrid:
    def test_build_settings_phases(self):
        # The deprecated alias only checks the count, as a plain int.
        assert build_settings(np.int64(3)) == 3 and type(build_settings(np.int64(3))) is int
        assert _classes(3) == ((1, 3, 5), (0, 2, 4), (0, 2, 4))
        # The same phases as exact fractions of pi, to the last bit.
        first = (Fraction(1, 6), Fraction(1, 2), Fraction(5, 6))
        other = (Fraction(0), Fraction(1, 3), Fraction(2, 3))
        assert _radians(3) == tuple(
            tuple(float(p) * math.pi for p in triple) for triple in (first, other, other)
        )

    def test_radians(self):
        first, second = _radians(2)
        assert first == pytest.approx((math.pi / 6, math.pi / 2, 5 * math.pi / 6))
        assert second == pytest.approx((0.0, math.pi / 3, 2 * math.pi / 3))

    def test_phase_classes(self):
        assert (FIRST_PARTY_CLASSES, LATER_PARTY_CLASSES) == ((1, 3, 5), (0, 2, 4))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_phase_classes_follow_the_stored_phases(self, n):
        # Moving one party off setting 0 moves the total class by that party's
        # stored class step, and every stored class is its phase over pi/6.
        table = setting_phase_classes(n).reshape((3,) * n)
        classes, radians = _classes(n), _radians(n)
        assert len(classes) == len(radians) == n
        assert table[(0,) * n] == sum(t[0] for t in classes) % 12
        for k in range(n):
            for i in range(3):
                index = tuple(i if j == k else 0 for j in range(n))
                assert table[index] == (table[(0,) * n] + classes[k][i] - classes[k][0]) % 12
                assert radians[k][i] == classes[k][i] / 6 * math.pi

    def test_too_few_parties(self):
        for build in (setting_phase_classes, quantum_tensor, integer_tensor):
            with pytest.raises(ValueError):
                build(1)
        with pytest.raises(ValueError):
            party_phasor((1, 1, -1), 0, 1)

    def test_rejects_nonstandard_phases(self):
        # Phases cannot stand in for the count: the grid is the paper's.
        other = (0, 2, 4)
        for build in (setting_phase_classes, quantum_tensor, integer_tensor):
            with pytest.raises(_FieldError) as info:
                build((other, other))
            assert info.value.field == "n_parties"

    def test_rejects_wrong_triple_count(self):
        # No builder takes phases beside the count.
        first, other = (1, 3, 5), (0, 2, 4)
        for build in (setting_phase_classes, quantum_tensor, integer_tensor):
            with pytest.raises(TypeError):
                build(3, (first, other))
        with pytest.raises(TypeError):
            party_phasor((1, 1, -1), 0, 3, (first, other))


class TestQuantumTensor:
    def test_known_entries_two_parties(self):
        q = quantum_tensor(2).as_grid()
        assert q[0, 0] == pytest.approx(SQRT3 / 2, abs=1e-15)
        # pi/2 + 2pi/3 = 7pi/6.
        assert q[1, 2] == pytest.approx(-SQRT3 / 2, abs=1e-15)
        assert q[1, 0] == pytest.approx(0.0, abs=1e-15)

    def test_entries_live_on_seven_values(self):
        for n in (2, 3, 5):
            q = quantum_tensor(n)
            assert set(np.unique(q.entries)) <= SEVEN_VALUES

    def test_matches_float_cosine_route(self):
        for n in (2, 3, 4):
            q = quantum_tensor(n).as_grid()
            radians = _radians(n)
            for combo in itertools.product(range(3), repeat=n):
                angles = [radians[k][combo[k]] for k in range(n)]
                assert q[combo] == pytest.approx(math.cos(math.fsum(angles)), abs=1e-12)

    def test_norm_identity(self):
        for n in range(2, 11):
            q = quantum_tensor(n)
            assert abs(np.dot(q.entries, q.entries) - 3.0 ** n / 2.0) < 1e-9

    def test_entry_sum_matches_closed_form(self):
        for n in range(2, 11):
            q = quantum_tensor(n)
            assert abs(np.sum(q.entries) - entry_sum_closed_form(n)) < 1e-9

    def test_entry_sum_frozen_values(self):
        q2 = quantum_tensor(2)
        assert np.sum(q2.entries) == pytest.approx(-2 * SQRT3, abs=1e-12)
        q5 = quantum_tensor(5)
        assert np.sum(q5.entries) == pytest.approx(16 * SQRT3, abs=1e-12)

    def test_entry_sum_vanishes_at_n_1_mod_3(self):
        for n in (4, 7, 10):
            assert entry_sum_closed_form(n) == 0.0
            q = quantum_tensor(n)
            assert abs(np.sum(q.entries)) < 1e-9

    def test_cached_once_per_n_and_read_only(self):
        for n in range(2, 6):
            q = quantum_tensor(n)
            assert quantum_tensor(n) is q
            assert not q.entries.flags.writeable

    def test_phase_classes_consistent_with_entries(self):
        classes = setting_phase_classes(3)
        q = quantum_tensor(3)
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
        q = quantum_tensor(2)
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
        q = quantum_tensor(2)
        data = q.to_dict()
        assert data["n_parties"] == 2
        assert len(data["entries"]) == 9
        loaded = json.loads(json.dumps(data))
        again = CorrelationTensor(n_parties=loaded["n_parties"], entries=loaded["entries"])
        assert np.array_equal(again.entries, q.entries)


class TestIntegerTensor:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_integer_facts(self, n):
        t = integer_tensor(n)
        assert set(np.unique(t.entries)) <= {0.0, 1.0, -1.0}
        assert np.count_nonzero(t.entries) == 2 * 3 ** (n - 1)
        assert np.dot(t.entries, t.entries) == 2 * 3 ** (n - 1)
        assert HALF_SQRT3 * np.sum(t.entries) == entry_sum_closed_form(n)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_quantum_tensor_is_half_sqrt3_times_the_table(self, n):
        q, t = quantum_tensor(n), integer_tensor(n)
        assert (HALF_SQRT3 * t.entries).tobytes() == q.entries.tobytes()

    @pytest.mark.parametrize("n", range(2, 9))
    def test_tables_match_the_summed_phase_classes(self, n):
        # The reference adds the per-party phase classes combination by
        # combination, in CorrelationTensor order, apart from the digit-sum rule.
        classes = np.array(
            [sum(combo) % 12 for combo in itertools.product(*_classes(n))], dtype=np.int64
        )
        got = setting_phase_classes(n)
        assert got.dtype == np.int64
        assert np.array_equal(got, classes)
        # The same bits as looking each entry up in the 12-class cosine table.
        table = np.asarray(COS12)[classes]
        assert table.tobytes() == quantum_tensor(n).entries.tobytes()
        assert (table / HALF_SQRT3).tobytes() == integer_tensor(n).entries.tobytes()

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
        assert total == np.sum(integer_tensor(n).entries)

    def test_entry_sum_from_residue_counts_is_the_closed_form_for_every_n(self):
        for n in range(2, 1025):
            total = self._entry_sum_by_residue_counts(n)
            assert HALF_SQRT3 * total == entry_sum_closed_form(n), n

    def test_closed_form_is_finite_through_1024(self):
        # N = 1024 is 1 (mod 3), so the sum is 0 although 2^1024 overflows.
        assert entry_sum_closed_form(1024).hex() == "-0x0.0p+0"
        with pytest.raises(OverflowError):
            entry_sum_closed_form(1025)

    def test_cached_once_per_n_and_read_only(self):
        for n in range(2, 6):
            t = integer_tensor(n)
            assert isinstance(t, CorrelationTensor)
            assert integer_tensor(n) is t
            assert not t.entries.flags.writeable


SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]])


def _bell_operator(n):
    """Dense B = sum_c Q_c (x)_k A_k(c_k), with A(phi) = cos(phi) sigma_x + sin(phi) sigma_y."""
    grid = quantum_tensor(n).as_grid()
    ops = [
        [math.cos(c * math.pi / 6) * SIGMA_X + math.sin(c * math.pi / 6) * SIGMA_Y for c in t]
        for t in _classes(n)
    ]
    b = np.zeros((2**n, 2**n), dtype=complex)
    for combo in itertools.product(range(3), repeat=n):
        b += grid[combo] * functools.reduce(np.kron, (ops[k][d] for k, d in enumerate(combo)))
    return b


class TestBellOperator:
    """No N-qubit state measured with these observables beats GHZ's (Q, Q) = 3^N/2."""

    @pytest.mark.parametrize("n", range(2, 6))
    def test_spectrum_is_plus_minus_half_3_to_the_n_and_zero(self, n):
        b = _bell_operator(n)
        assert np.allclose(b, b.conj().T, rtol=0, atol=1e-12)
        values, vectors = np.linalg.eigh(b)
        expected = np.zeros(2**n)
        expected[0], expected[-1] = -(3**n) / 2, 3**n / 2
        assert np.allclose(values, expected, rtol=0, atol=1e-9)
        ghz = np.zeros(2**n)
        ghz[0] = ghz[-1] = 1 / math.sqrt(2)
        assert abs(np.vdot(ghz, vectors[:, -1])) == pytest.approx(1.0, abs=1e-12)
        assert np.vdot(ghz, b @ ghz).real == pytest.approx(3**n / 2, rel=1e-12)

    @pytest.mark.parametrize("classes", [FIRST_PARTY_CLASSES, LATER_PARTY_CLASSES])
    def test_doubled_classes_are_equally_spaced(self, classes):
        # Doubled phases c, c + 4, c + 8 (mod 12) are three equally spaced
        # sixth roots of unity, so S(+-2) = sum_s exp(+-2i phi_s) = 0 exactly.
        low, mid, high = sorted(2 * c % 12 for c in classes)
        assert (mid, high) == (low + 4, low + 8)


@pytest.mark.parametrize("build", [quantum_tensor, integer_tensor], ids=["quantum", "integer"])
def test_one_cache_entry_per_checked_n(build):
    assert build(np.int64(5)) is build(5)
    misses = build.cache_info().misses
    for bad in ("5", 1):
        with pytest.raises(_FieldError) as info:
            build(bad)
        assert info.value.field == "n_parties"
    assert build.cache_info().misses == misses


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
        quantum_tensor,
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


@pytest.mark.parametrize(
    "field, call",
    [
        ("visibility", lambda v: ExperimentConfig(3, v, 0.9, 27, seed=0)),
        ("efficiency", lambda eta: ExperimentConfig(3, 0.5, eta, 27, seed=0)),
        ("efficiency", lambda eta: critical_visibility(3, eta)),
    ],
    ids=["ExperimentConfig-visibility", "ExperimentConfig-efficiency", "critical_visibility"],
)
def test_rate_must_be_a_real_number_of_any_float_type(field, call):
    for value in ("0.5", None):
        message = f"^{field} must be a real number, got {value!r}$"
        with pytest.raises(_FieldError, match=message) as info:
            call(value)
        assert info.value.field == field
    for value in (1.5, float("nan")):
        message = rf"^{field} must be in \[0, 1\], got {value}$"
        with pytest.raises(_FieldError, match=message) as info:
            call(value)
        assert info.value.field == field
    assert call(np.float64(0.5)) == call(0.5)
