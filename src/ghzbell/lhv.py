"""Local deterministic strategies and the classical bound for the N-party test.

Contents:
    DeterministicStrategy -- per-party setting-to-sign assignments
    PartyPhasor           -- exact (magnitude, phase class) party response sum
    strategy_score        -- scalar product of the quantum tensor with a
                             strategy's rank-1 tensor of sign products
    party_phasor          -- exact phasor of one party's assignment
    max_score_brute       -- exhaustive maximum over all 8^N strategies: scores
                             4^N sign representatives and signs the rest
    max_score_factorized  -- dynamic program over the 12 phase classes
    lhv_bound             -- the classical bound 2^(N-1) sqrt(3)
    bound_attaining_strategy -- explicit strategy reaching the bound
    violation_factor      -- quantum-to-classical ratio (3/2)^N / sqrt(3)

Scores of deterministic strategies factorize into a product of per-party
phasors, each a signed sum of three unit phasors whose phases sit two pi/6
steps apart. Those sums always land on magnitude 0 or 2 with a phase that is
again a multiple of pi/6, so the whole search lives on 12 exact phase classes.
The exhaustive route below never touches that structure: it contracts the
integer tensor (the quantum tensor over sqrt(3)/2) directly against sign
assignments (half of each party's sign triples, the other half by a sign
flip), which keeps the two maximizers independent of each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import product
from typing import Sequence

import numpy as np

from .quantum import (
    COS12,
    FIRST_PARTY_CLASSES,
    HALF_SQRT3,
    LATER_PARTY_CLASSES,
    CorrelationTensor,
    _FieldError,
    _check_integer,
    _check_parties,
    integer_tensor,
)

# All sign triples in lexicographic order with -1 before +1; the brute-force
# enumeration and its tie-break are defined against this ordering.
SIGN_TRIPLES = tuple(product((-1, 1), repeat=3))

# Phasor phase class relative to the party's first setting, by (v1 - v3, v2 + v3).
_RELATIVE_CLASS = {
    (0, 0): None, (2, 0): 0, (-2, 0): 6, (0, 2): 2, (0, -2): 8, (2, -2): 10, (-2, 2): 4
}


@dataclass(frozen=True)
class DeterministicStrategy:
    """One local deterministic model: a sign for every party and setting.

    ``assignments[k][i]`` is party k's predetermined outcome, -1 or +1, at
    setting i.
    """

    assignments: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        assignments = tuple(tuple(t) for t in self.assignments)
        _check_parties(len(assignments))
        for k, triple in enumerate(assignments):
            if len(triple) != 3:
                raise ValueError(f"party {k} needs exactly 3 assigned values")
            for v in triple:
                if v not in (-1, 1):
                    raise ValueError(f"value {v} of party {k} is not a sign (-1 or +1)")
        object.__setattr__(self, "assignments", tuple(tuple(map(int, t)) for t in assignments))

    @property
    def n_parties(self) -> int:
        return len(self.assignments)


@dataclass(frozen=True)
class PartyPhasor:
    """Signed sum of one party's three unit phasors, held exactly.

    The sum always has magnitude 0 or 2 and a phase that is an integer
    multiple of pi/6; ``phase_class`` stores that integer mod 12.
    """

    magnitude: int
    phase_class: int

    def __post_init__(self) -> None:
        if self.magnitude not in (0, 2):
            raise ValueError(f"party phasor magnitude must be 0 or 2, got {self.magnitude}")
        if not 0 <= self.phase_class < 12:
            raise ValueError(f"phase class must be in 0..11, got {self.phase_class}")
        if self.magnitude == 0 and self.phase_class != 0:
            raise ValueError("zero phasor must carry phase class 0")


def party_phasor(party_assignment: Sequence[int], party: int, n_parties: int) -> PartyPhasor:
    """Exact phasor sum(v_i exp(i phi_i)) for one party's sign triple.

    ``party`` is the 0-based index among ``n_parties`` parties. Works in integer
    arithmetic: with settings two phase classes apart, the signed sum reduces
    to x + y*u with u = exp(i pi/3), x = v1 - v3, y = v2 + v3, and every
    (x, y) case lands on magnitude 0 or 2 at a known phase class.
    """
    n_parties = _check_parties(n_parties)
    party = _check_integer("party", party)
    if not 0 <= party < n_parties:
        raise _FieldError("party", f"party index {party} out of range for {n_parties} parties")
    v = tuple(party_assignment)
    if len(v) != 3 or any(x not in (-1, 1) for x in v):
        raise ValueError(f"party assignment must be three signs, got {party_assignment!r}")
    v = tuple(int(x) for x in v)
    base = (LATER_PARTY_CLASSES if party else FIRST_PARTY_CLASSES)[0]
    relative = _RELATIVE_CLASS[(v[0] - v[2], v[1] + v[2])]
    if relative is None:
        return PartyPhasor(magnitude=0, phase_class=0)
    return PartyPhasor(magnitude=2, phase_class=(base + relative) % 12)


def strategy_score(strategy: DeterministicStrategy, q: CorrelationTensor) -> float:
    """Scalar product of the tensor ``q`` with the strategy's tensor.

    ``q`` is the quantum tensor or its integer table. The strategy's tensor is
    the flat rank-1 product of its per-party sign triples, in ``q``'s
    row-major order.
    """
    if strategy.n_parties != q.n_parties:
        raise ValueError(
            f"strategy has {strategy.n_parties} parties but tensor has {q.n_parties}"
        )
    arrays = [np.asarray(t, dtype=np.float64) for t in strategy.assignments]
    return float(np.sum(q.entries * reduce(np.multiply.outer, arrays).ravel()))


def _triple_scores(q: CorrelationTensor, triples: Sequence) -> np.ndarray:
    """Scores against ``q``: entry [d_1, ..., d_N] is its product with rows d_1..d_N of ``triples``.

    Each step sums out the next party's setting axis and appends its row axis,
    a distributive regrouping of the defining 3^N-term sum.
    """
    rows = np.asarray(triples, dtype=np.float64)
    scores = q.entries
    # np.dot is exact here in any summation order: callers pass the integer
    # table and 0/+-1 triples, so every partial sum is a small integer.
    for _ in range(q.n_parties):
        scores = np.dot(scores.reshape(3, -1).T, rows.T)
    return scores.reshape((len(rows),) * q.n_parties)


def lhv_bound(n_parties: int) -> float:
    """The deterministic maximum 2^(N-1) sqrt(3)."""
    return _bound(_check_parties(n_parties))


def _bound(n: int) -> float:
    """``lhv_bound`` of an N already checked."""
    return math.ldexp(HALF_SQRT3, n)


def bound_attaining_strategy(n_parties: int) -> DeterministicStrategy:
    """An explicit strategy scoring exactly the bound: every party plays (+1, +1, -1).

    The first party's phasor then sits on phase class 1 (2 exp(i pi/6)) and
    every other party's on class 0 (+2), so the product has magnitude 2^N at
    phase pi/6 and real part 2^(N-1) sqrt(3).
    """
    return DeterministicStrategy(assignments=((1, 1, -1),) * _check_parties(n_parties))


def max_score_brute(n_parties: int) -> tuple[float, DeterministicStrategy]:
    """Exhaustive maximum of the score over all 8^N two-outcome strategies.

    The score is linear in each party's sign triple, and SIGN_TRIPLES[7 - d]
    == -SIGN_TRIPLES[d], so flipping any one party's triple negates the
    score. Every strategy's score is therefore +-s for the representative s
    whose triples all start with -1 (indices d < 4): + after an even number of
    flips, - after an odd one. ``_triple_scores`` contracts the integer tensor
    against those 4 triples, and the maximum over all 8^N scores is sqrt(3)/2
    times the largest |s| of the 4^N representatives. Every s is an integer,
    exact in float64, so ties are equal floats. They are broken toward the
    lexicographically smallest strategy under party-major, setting-minor
    ordering with -1 before +1: for s > 0 that is the representative itself,
    for s < 0 the representative with only its last party flipped. Limited to
    N <= 8.
    """
    n_parties = _check_integer("n_parties", n_parties)
    if not 2 <= n_parties <= 8:
        raise _FieldError("n_parties", f"exhaustive search supports 2..8 parties, got {n_parties}")
    scores = _triple_scores(integer_tensor(n_parties), SIGN_TRIPLES[:4]).ravel()
    magnitudes = np.abs(scores)
    best = magnitudes.max()
    hits = np.flatnonzero(magnitudes == best)
    rep_digits = np.unravel_index(hits, (4,) * n_parties)
    candidates = np.ravel_multi_index(rep_digits, (8,) * n_parties)
    flipped = scores[hits] < 0
    candidates[flipped] += 7 - 2 * rep_digits[-1][flipped]
    digits = np.unravel_index(candidates.min(), (8,) * n_parties)
    strategy = DeterministicStrategy(assignments=tuple(SIGN_TRIPLES[d] for d in digits))
    return HALF_SQRT3 * float(best), strategy


def max_score_factorized(n_parties: int) -> float:
    """Maximum score via dynamic programming over the 12 phase classes.

    Tracks which product phase classes are reachable with all party phasors of
    magnitude 2; any party may instead zero the product, so 0 is always an
    alternative. Runs in O(N * 12 * 7) and agrees with max_score_brute. The
    final value 2^(N-1) sqrt(3) overflows float64 for N > 1024 (OverflowError).
    """
    n_parties = _check_parties(n_parties)
    reachable, other = (
        {p.phase_class for t in SIGN_TRIPLES if (p := party_phasor(t, k, n_parties)).magnitude}
        for k in (0, 1)
    )
    for _ in range(n_parties - 1):
        updated = {(c + d) % 12 for c in reachable for d in other}
        if updated == reachable:
            break
        reachable = updated
    best_cos = max(COS12[c] for c in reachable)
    return max(0.0, math.ldexp(best_cos, n_parties))


def violation_factor(n_parties: int) -> float:
    """Ratio of the quantum value 3^N/2 to the bound: (3/2)^N / sqrt(3)."""
    n_parties = _check_parties(n_parties)
    return 1.5 ** n_parties / math.sqrt(3.0)
