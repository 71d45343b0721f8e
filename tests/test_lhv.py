"""Tests for deterministic local strategies and their tensor scores.

Core claims covered here:
  * strategies hold sign triples only, and score against the quantum tensor
    as its scalar product with their rank-one tensor of sign products,
  * per-party responses factorize into a phasor with magnitude in {0, 2} and
    one of twelve phases; the eight sign triples land onto seven phasors,
  * the exhaustive maximum equals 2^(N-1) sqrt(3) and the factorized search
    reproduces it while scaling to thousands of parties,
  * an explicit strategy attains the bound at every size,
  * folding a zero outcome onto -1 keeps three-outcome strategies under the
    two-outcome bound.
"""

import cmath
import itertools
import math
import re
import string
import tracemalloc

import numpy as np
import pytest

from ghzbell import (
    DeterministicStrategy,
    PartyPhasor,
    bound_attaining_strategy,
    build_settings,
    lhv_bound,
    max_score_brute,
    max_score_factorized,
    party_phasor,
    quantum_tensor,
    strategy_score,
    violation_factor,
)
from ghzbell.lhv import SIGN_TRIPLES
from ghzbell.quantum import COS12

SQRT3 = math.sqrt(3.0)
BRUTE_MAXIMA_HEX = {
    2: "0x1.bb67ae8584caap+1",
    3: "0x1.bb67ae8584caap+2",
    4: "0x1.bb67ae8584caap+3",
    5: "0x1.bb67ae8584caap+4",
    6: "0x1.bb67ae8584caap+5",
    7: "0x1.bb67ae8584caap+6",
    8: "0x1.bb67ae8584caap+7",
}


def _radians(grid, party):
    """One party's measurement phases as float radians."""
    return tuple(c / 6 * math.pi for c in grid.phase_classes()[party])


def _phasor_value(phasor):
    """A party phasor as a floating complex number."""
    return cmath.rect(phasor.magnitude, phasor.phase_class * math.pi / 6)


def _strategy_score_factorized(strategy, grid):
    """A strategy's score as the real part of its product of party phasors, from COS12."""
    total_class = 0
    for k, triple in enumerate(strategy.assignments):
        phasor = party_phasor(triple, k, grid)
        if phasor.magnitude == 0:
            return 0.0
        total_class = (total_class + phasor.phase_class) % 12
    return math.ldexp(COS12[total_class], strategy.n_parties)


def _all_two_outcome(n):
    triples = list(itertools.product((-1, 1), repeat=3))
    for assignment in itertools.product(triples, repeat=n):
        yield DeterministicStrategy(assignments=assignment)


def _naive_max(n):
    """Plain loop over all 8^n strategies and all 3^n entries."""
    q = quantum_tensor(build_settings(n)).as_grid()
    best = -math.inf
    winners = []
    for strategy in _all_two_outcome(n):
        total = 0.0
        for combo in itertools.product(range(3), repeat=n):
            total += q[combo] * math.prod(
                strategy.assignments[k][combo[k]] for k in range(n)
            )
        if total > best + 1e-9:
            best = total
            winners = [strategy.assignments]
        elif abs(total - best) <= 1e-9:
            winners.append(strategy.assignments)
    return best, winners


def _reference_brute(n):
    """Maximum and argmax over all 8^n scores from one 8-triple contraction."""
    q_grid = quantum_tensor(build_settings(n)).as_grid()
    triples = np.asarray(SIGN_TRIPLES, dtype=np.float64)
    tensor_axes = string.ascii_lowercase[:n]
    strategy_axes = string.ascii_lowercase[n:2 * n]
    subscripts = (
        ",".join(s + t for s, t in zip(strategy_axes, tensor_axes))
        + f",{tensor_axes}->{strategy_axes}"
    )
    scores = np.einsum(subscripts, *([triples] * n), q_grid, optimize=True).ravel()
    best = float(scores.max())
    index = int(np.argmax(scores >= best - 1e-9 * max(1.0, abs(best))))
    digits = [(index // 8 ** (n - 1 - k)) % 8 for k in range(n)]
    return best, tuple(SIGN_TRIPLES[d] for d in digits)


class TestDeterministicStrategy:
    def test_valid(self):
        s = DeterministicStrategy(assignments=((1, -1, 1), (1, 1, 1)))
        assert s.n_parties == 2

    def test_rejects_single_party(self):
        with pytest.raises(ValueError):
            DeterministicStrategy(assignments=(((1, 1, 1)),))

    def test_rejects_wrong_setting_count(self):
        with pytest.raises(ValueError):
            DeterministicStrategy(assignments=((1, 1), (1, 1)))

    def test_rejects_value_outside_alphabet(self):
        # The alphabet is the two signs; a non-detection 0 is folded by the
        # caller before a strategy is built.
        # A float is named as given, not truncated to a sign or to 0 first.
        for bad in (0, 2, -2, 1.5, -1.9, 0.9999):
            with pytest.raises(ValueError, match=rf"^value {bad} of party 0 is not a sign"):
                DeterministicStrategy(assignments=((1, bad, 1), (1, 1, 1)))

    def test_rejects_unknown_alphabet(self):
        # 0.2.0 dropped the three-outcome alphabet and the field that chose it.
        with pytest.raises(TypeError):
            DeterministicStrategy(assignments=((1, 1, 1), (1, 1, 1)), alphabet="three-outcome")


class TestStrategyScore:
    def test_bound_attaining_example(self):
        s = DeterministicStrategy(assignments=((1, 1, -1), (1, 1, -1)))
        q = quantum_tensor(build_settings(2))
        assert strategy_score(s, q) == pytest.approx(2 * SQRT3, abs=1e-12)

    def test_all_plus_example(self):
        # z_1 = e^{i pi/6}+e^{i pi/2}+e^{i 5pi/6} = 2i, z_2 = 2 e^{i pi/3},
        # so the score is Re(2i * 2 e^{i pi/3}) = 4 cos(5 pi/6) = -2 sqrt(3).
        s = DeterministicStrategy(assignments=((1, 1, 1), (1, 1, 1)))
        q = quantum_tensor(build_settings(2))
        assert strategy_score(s, q) == pytest.approx(-2 * SQRT3, abs=1e-12)

    def test_size_mismatch(self):
        s = DeterministicStrategy(assignments=((1, 1, 1), (1, 1, 1)))
        with pytest.raises(ValueError):
            strategy_score(s, quantum_tensor(build_settings(3)))

    def test_matches_scalar_product(self):
        # Reference: Q dotted entry by entry with the rank-one sign products.
        rng = np.random.default_rng(5)
        q = quantum_tensor(build_settings(3))
        for _ in range(20):
            s = DeterministicStrategy(assignments=2 * rng.integers(0, 2, size=(3, 3)) - 1)
            direct = math.fsum(
                q.as_grid()[combo] * math.prod(s.assignments[k][c] for k, c in enumerate(combo))
                for combo in itertools.product(range(3), repeat=3)
            )
            assert strategy_score(s, q) == pytest.approx(direct, abs=1e-12)


class TestPartyPhasor:
    def test_shared_triple_plus_plus_minus(self):
        ph = party_phasor((1, 1, -1), 1, build_settings(2))
        assert ph.magnitude == 2
        assert ph.phase_class == 0
        assert _phasor_value(ph) == pytest.approx(2.0 + 0.0j)

    def test_cancellation_gives_zero(self):
        ph = party_phasor((1, -1, 1), 0, build_settings(2))
        assert ph.magnitude == 0
        assert _phasor_value(ph) == 0j

    def test_first_party_offset(self):
        ph = party_phasor((1, 1, -1), 0, build_settings(2))
        assert (ph.magnitude, ph.phase_class) == (2, 1)

    def test_matches_complex_sum_exhaustively(self):
        grid = build_settings(2)
        for party in (0, 1):
            radians = _radians(grid, party)
            for triple in itertools.product((-1, 1), repeat=3):
                direct = sum(
                    v * cmath.exp(1j * phi) for v, phi in zip(triple, radians)
                )
                ph = party_phasor(triple, party, grid)
                assert _phasor_value(ph) == pytest.approx(direct, abs=1e-12)

    def test_eight_triples_land_onto_seven_phasors(self):
        grid = build_settings(2)
        expected_classes = {0: {1, 3, 5, 7, 9, 11}, 1: {0, 2, 4, 6, 8, 10}}
        for party in (0, 1):
            phasors = {
                party_phasor(t, party, grid)
                for t in itertools.product((-1, 1), repeat=3)
            }
            assert len(phasors) == 7
            zeros = {p for p in phasors if p.magnitude == 0}
            assert len(zeros) == 1
            classes = {p.phase_class for p in phasors if p.magnitude == 2}
            assert classes == expected_classes[party]

    def test_invalid_inputs(self):
        grid = build_settings(2)
        with pytest.raises(ValueError):
            party_phasor((1, 1), 0, grid)
        with pytest.raises(ValueError):
            party_phasor((1, 1, 0), 0, grid)
        with pytest.raises(ValueError, match=r"got \(1\.7, 1, -1\)"):
            party_phasor((1.7, 1, -1), 0, grid)
        with pytest.raises(ValueError):
            party_phasor((1, 1, 1), 2, grid)

    @pytest.mark.parametrize(
        "magnitude, phase_class, message",
        [
            (1, 0, "party phasor magnitude must be 0 or 2, got 1"),
            (2, 12, "phase class must be in 0..11, got 12"),
            (2, -1, "phase class must be in 0..11, got -1"),
            (0, 3, "zero phasor must carry phase class 0"),
        ],
    )
    def test_rejects_an_impossible_phasor(self, magnitude, phase_class, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PartyPhasor(magnitude=magnitude, phase_class=phase_class)


class TestFactorizedScore:
    def test_matches_direct_score_exhaustively(self):
        for n in (2, 3):
            grid = build_settings(n)
            q = quantum_tensor(grid)
            for s in _all_two_outcome(n):
                assert _strategy_score_factorized(s, grid) == pytest.approx(
                    strategy_score(s, q), abs=1e-9
                )


class TestMaxScore:
    def test_brute_equals_bound(self):
        for n in range(2, 7):
            best, argmax = max_score_brute(n)
            assert abs(best - lhv_bound(n)) < 1e-9
            assert argmax.n_parties == n

    def test_brute_matches_naive_loop(self):
        for n in (2, 3):
            naive_best, naive_winners = _naive_max(n)
            best, argmax = max_score_brute(n)
            assert best == pytest.approx(naive_best, abs=1e-12)
            # Several strategies tie at the top; the reported one is the
            # lexicographically smallest of them.
            assert len(naive_winners) >= 2
            assert argmax.assignments == min(naive_winners)

    def test_frozen_argmaxes(self):
        assert max_score_brute(2)[1].assignments == ((-1, -1, -1), (-1, 1, 1))
        assert max_score_brute(3)[1].assignments == ((-1, -1, -1),) * 3
        assert max_score_brute(4)[1].assignments == ((-1, -1, -1),) * 3 + ((1, -1, -1),)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_frozen_brute_maxima(self, n):
        # Every N's maximum to the last bit, as the einsum contraction gave it.
        assert max_score_brute(n)[0].hex() == BRUTE_MAXIMA_HEX[n]

    def test_argmax_attains_reported_score(self):
        for n in (2, 3, 4, 5):
            best, argmax = max_score_brute(n)
            q = quantum_tensor(build_settings(n))
            assert strategy_score(argmax, q) == pytest.approx(best, abs=1e-12)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_brute_equals_full_contraction(self, n):
        # The 4^N sign representatives give the same float and the same
        # tie-break as scoring all 8^N strategies; at N = 4 and 7 the argmax
        # is a representative with its last party flipped.
        best, argmax = max_score_brute(n)
        ref_best, ref_argmax = _reference_brute(n)
        assert best == ref_best
        assert argmax.assignments == ref_argmax

    def test_brute_peak_memory(self):
        # Scoring every strategy at N = 8 once took a 128 MiB array.
        tracemalloc.start()
        try:
            max_score_brute(8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_brute_size_limits(self):
        with pytest.raises(ValueError):
            max_score_brute(1)
        with pytest.raises(ValueError) as info:
            max_score_brute(9)
        assert info.value.field == "n_parties"

    def test_factorized_agrees_with_brute(self):
        for n in range(2, 7):
            assert max_score_factorized(n) == max_score_brute(n)[0]

    def test_factorized_equals_bound_at_large_sizes(self):
        for n in (10, 50, 400, 1000):
            assert max_score_factorized(n) == lhv_bound(n)

    def test_factorized_size_limits(self):
        with pytest.raises(ValueError):
            max_score_factorized(1)
        with pytest.raises(OverflowError):
            max_score_factorized(1100)

    def test_bound_attaining_strategy(self):
        for n in range(2, 10):
            s = bound_attaining_strategy(n)
            assert s.assignments == ((1, 1, -1),) * n
            assert _strategy_score_factorized(s, build_settings(n)) == pytest.approx(
                lhv_bound(n), abs=1e-12
            )
        q = quantum_tensor(build_settings(4))
        assert strategy_score(bound_attaining_strategy(4), q) == pytest.approx(
            lhv_bound(4), abs=1e-12
        )

    def test_convex_mixtures_stay_below_max(self):
        # Mixtures of strategy tensors never beat the best vertex.
        rng = np.random.default_rng(7)
        q = quantum_tensor(build_settings(2))
        best = lhv_bound(2)
        for _ in range(50):
            parts = [np.outer(*(2 * rng.integers(0, 2, size=(2, 3)) - 1)).ravel() for _ in range(6)]
            weights = rng.dirichlet(np.ones(len(parts)))
            mix = sum(w * p for w, p in zip(weights, parts))
            assert float(q.entries @ mix) <= best + 1e-9


class TestBoundAndViolation:
    def test_lhv_bound_values(self):
        assert lhv_bound(2) == pytest.approx(2 * SQRT3, abs=1e-15)
        assert lhv_bound(3) == pytest.approx(4 * SQRT3, abs=1e-15)
        assert lhv_bound(3) == 2.0 * lhv_bound(2)

    def test_violation_factor_frozen(self):
        assert violation_factor(2) == pytest.approx(1.299038105676658, abs=1e-12)
        assert violation_factor(3) == pytest.approx(1.948557158514987, abs=1e-12)

    def test_violation_factor_identity_and_growth(self):
        for n in range(2, 11):
            assert abs(violation_factor(n) - (3.0 ** n / 2.0) / lhv_bound(n)) < 1e-12
            assert abs(violation_factor(n + 1) / violation_factor(n) - 1.5) < 1e-12


class TestThreeOutcomeFolding:
    def test_folded_strategies_respect_bound(self):
        # Three-outcome assignments with every 0 folded to -1 are sign
        # strategies, so strategy_score keeps them under the bound.
        rng = np.random.default_rng(321)
        q = quantum_tensor(build_settings(3))
        bound = lhv_bound(3)
        for _ in range(2000):
            values = rng.integers(-1, 2, size=(3, 3))
            folded = np.where(values == 0, -1, values)
            folded_score = strategy_score(DeterministicStrategy(assignments=folded.tolist()), q)
            assert folded_score <= bound + 1e-9
