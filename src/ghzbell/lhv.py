"""Local deterministic strategies and the classical bound for the N-party test.

Contents:
    DeterministicStrategy -- per-party setting-to-sign assignments
    PartyPhasor           -- exact (magnitude, phase class) party response sum
    strategy_tensor       -- rank-1 correlation tensor of a strategy
    strategy_score        -- scalar product of the quantum tensor with it
    party_phasor          -- exact phasor of one party's assignment
    strategy_score_factorized -- same score through the phasor product
    max_score_brute       -- exhaustive maximum over all 8^N strategies: scores
                             4^N sign representatives and signs the rest
    max_score_factorized  -- dynamic program over the 12 phase classes
    lhv_bound             -- the classical bound 2^(N-1) sqrt(3)
    bound_attaining_strategy -- explicit strategy reaching the bound
    violation_factor      -- quantum-to-classical ratio (3/2)^N / sqrt(3)
    to_two_outcome        -- fold non-detection outcomes (0) into -1
    random_strategy       -- uniform random strategy, for sampling tests

Scores of deterministic strategies factorize into a product of per-party
phasors, each a signed sum of three unit phasors whose phases sit two pi/6
steps apart. Those sums always land on magnitude 0 or 2 with a phase that is
again a multiple of pi/6, so the whole search lives on 12 exact phase classes.
The exhaustive route below never touches that structure: it contracts the
quantum tensor directly against sign assignments (half of each party's sign
triples, the other half by a sign flip), which keeps the two maximizers
independent of each other.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from functools import reduce
from itertools import product
from typing import Sequence

import numpy as np

from .quantum import (
    COS12,
    HALF_SQRT3,
    SIN12,
    CorrelationTensor,
    SettingsGrid,
    build_settings,
    quantum_tensor,
)

TWO_OUTCOME = "two-outcome"
THREE_OUTCOME = "three-outcome"

# All sign triples in lexicographic order with -1 before +1; the brute-force
# enumeration and its tie-break are defined against this ordering.
SIGN_TRIPLES = tuple(product((-1, 1), repeat=3))

_ALLOWED_VALUES = {TWO_OUTCOME: (-1, 1), THREE_OUTCOME: (-1, 0, 1)}

# Phasor phase class relative to the party's first setting, by (v1 - v3, v2 + v3).
_RELATIVE_CLASS = {
    (0, 0): None, (2, 0): 0, (-2, 0): 6, (0, 2): 2, (0, -2): 8, (2, -2): 10, (-2, 2): 4
}


@dataclass(frozen=True)
class DeterministicStrategy:
    """One local deterministic model: a value for every party and setting.

    ``assignments[k][i]`` is party k's predetermined outcome at setting i.
    Two-outcome strategies use {-1, +1}; three-outcome ones add 0 for a
    non-detection.
    """

    assignments: tuple[tuple[int, int, int], ...]
    alphabet: str = TWO_OUTCOME

    def __post_init__(self) -> None:
        if self.alphabet not in _ALLOWED_VALUES:
            raise ValueError(f"unknown alphabet {self.alphabet!r}")
        assignments = tuple(tuple(int(v) for v in t) for t in self.assignments)
        if len(assignments) < 2:
            raise ValueError("need at least 2 parties")
        allowed = _ALLOWED_VALUES[self.alphabet]
        for k, triple in enumerate(assignments):
            if len(triple) != 3:
                raise ValueError(f"party {k} needs exactly 3 assigned values")
            for v in triple:
                if v not in allowed:
                    raise ValueError(
                        f"value {v} of party {k} not allowed for a {self.alphabet} strategy"
                    )
        object.__setattr__(self, "assignments", assignments)

    @property
    def n_parties(self) -> int:
        return len(self.assignments)


@dataclass(frozen=True)
class PartyPhasor:
    """Signed sum of one party's three unit phasors, held exactly.

    The sum always has magnitude 0 or 2 and a phase that is an integer
    multiple of pi/6; ``phase_class`` stores that integer mod 12. Conversion
    to a floating complex number happens only on demand.
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

    @property
    def value(self) -> complex:
        return complex(
            self.magnitude * COS12[self.phase_class],
            self.magnitude * SIN12[self.phase_class],
        )


def party_phasor(
    party_assignment: Sequence[int], party: int, grid: SettingsGrid
) -> PartyPhasor:
    """Exact phasor sum(v_i exp(i phi_i)) for one party's sign triple.

    ``party`` is the 0-based party index into the grid. Works in integer
    arithmetic: with settings two phase classes apart, the signed sum reduces
    to x + y*u with u = exp(i pi/3), x = v1 - v3, y = v2 + v3, and every
    (x, y) case lands on magnitude 0 or 2 at a known phase class.
    """
    if not 0 <= party < grid.n_parties:
        raise ValueError(f"party index {party} out of range for {grid.n_parties} parties")
    v = tuple(int(x) for x in party_assignment)
    if len(v) != 3 or any(x not in (-1, 1) for x in v):
        raise ValueError(f"party assignment must be three signs, got {party_assignment!r}")
    base = grid.phase_classes()[party][0]
    relative = _RELATIVE_CLASS[(v[0] - v[2], v[1] + v[2])]
    if relative is None:
        return PartyPhasor(magnitude=0, phase_class=0)
    return PartyPhasor(magnitude=2, phase_class=(base + relative) % 12)


def _product_entries(strategy: DeterministicStrategy) -> np.ndarray:
    """Flat rank-1 product tensor of per-party assigned values."""
    arrays = [np.asarray(t, dtype=np.float64) for t in strategy.assignments]
    return reduce(np.multiply.outer, arrays).ravel()


def strategy_tensor(strategy: DeterministicStrategy, grid: SettingsGrid) -> CorrelationTensor:
    """Correlation tensor of a deterministic strategy (entrywise sign products)."""
    if strategy.n_parties != grid.n_parties:
        raise ValueError(
            f"strategy has {strategy.n_parties} parties but grid has {grid.n_parties}"
        )
    return CorrelationTensor(n_parties=strategy.n_parties, entries=_product_entries(strategy))


def strategy_score(strategy: DeterministicStrategy, q: CorrelationTensor) -> float:
    """Scalar product of the quantum tensor with the strategy's tensor.

    Defined for two-outcome strategies; score a three-outcome strategy by
    first folding it through to_two_outcome.
    """
    if strategy.alphabet != TWO_OUTCOME:
        raise ValueError("scoring needs a two-outcome strategy; fold zeros first")
    if strategy.n_parties != q.n_parties:
        raise ValueError(
            f"strategy has {strategy.n_parties} parties but tensor has {q.n_parties}"
        )
    return float(np.dot(q.entries, _product_entries(strategy)))


def strategy_score_factorized(strategy: DeterministicStrategy, grid: SettingsGrid) -> float:
    """Same score as strategy_score, via the exact product of party phasors."""
    if strategy.alphabet != TWO_OUTCOME:
        raise ValueError("scoring needs a two-outcome strategy; fold zeros first")
    if strategy.n_parties != grid.n_parties:
        raise ValueError(
            f"strategy has {strategy.n_parties} parties but grid has {grid.n_parties}"
        )
    total_class = 0
    for k, triple in enumerate(strategy.assignments):
        phasor = party_phasor(triple, k, grid)
        if phasor.magnitude == 0:
            return 0.0
        total_class = (total_class + phasor.phase_class) % 12
    return math.ldexp(COS12[total_class], strategy.n_parties)


def lhv_bound(n_parties: int) -> float:
    """The deterministic maximum 2^(N-1) sqrt(3)."""
    if n_parties < 2:
        raise ValueError(f"need at least 2 parties, got {n_parties}")
    return math.ldexp(HALF_SQRT3, n_parties)


def bound_attaining_strategy(n_parties: int) -> DeterministicStrategy:
    """An explicit strategy scoring exactly the bound: every party plays (+1, +1, -1).

    The first party's phasor then sits on phase class 1 (2 exp(i pi/6)) and
    every other party's on class 0 (+2), so the product has magnitude 2^N at
    phase pi/6 and real part 2^(N-1) sqrt(3).
    """
    if n_parties < 2:
        raise ValueError(f"need at least 2 parties, got {n_parties}")
    return DeterministicStrategy(assignments=((1, 1, -1),) * n_parties)


def max_score_brute(n_parties: int) -> tuple[float, DeterministicStrategy]:
    """Exhaustive maximum of the score over all 8^N two-outcome strategies.

    The score is linear in each party's sign triple, and SIGN_TRIPLES[7 - d]
    == -SIGN_TRIPLES[d], so flipping any one party's triple negates the
    score. Every strategy's score is therefore +-s for the representative s
    whose triples all start with -1 (indices d < 4): + after an even number of
    flips, - after an odd one. The quantum tensor is contracted against those
    4 triples per party (a distributive regrouping of the defining 3^N-term
    sum), and the maximum over all 8^N scores is the largest |s| of the 4^N
    representatives. Ties are broken toward the lexicographically smallest
    strategy under party-major, setting-minor ordering with -1 before +1: for
    s > 0 that is the representative itself, for s < 0 the representative with
    only its last party flipped. Limited to N <= 8.
    """
    if not 2 <= n_parties <= 8:
        raise ValueError(f"exhaustive search supports 2..8 parties, got {n_parties}")
    q_grid = quantum_tensor(build_settings(n_parties)).as_grid()
    triples = np.asarray(SIGN_TRIPLES[:4], dtype=np.float64)
    letters = string.ascii_lowercase
    tensor_axes = letters[:n_parties]
    strategy_axes = letters[n_parties:2 * n_parties]
    subscripts = (
        ",".join(s + t for s, t in zip(strategy_axes, tensor_axes))
        + f",{tensor_axes}->{strategy_axes}"
    )
    scores = np.einsum(subscripts, *([triples] * n_parties), q_grid, optimize=True).ravel()
    magnitudes = np.abs(scores)
    best = float(magnitudes.max())
    # Mathematically distinct scores differ by at least 2^N (1 - sqrt(3)/2),
    # so this tolerance only absorbs float summation noise within one value.
    threshold = best - 1e-9 * max(1.0, abs(best))
    hits = np.flatnonzero(magnitudes >= threshold)
    rep_digits = np.unravel_index(hits, (4,) * n_parties)
    candidates = np.ravel_multi_index(rep_digits, (8,) * n_parties)
    flipped = scores[hits] < 0
    candidates[flipped] += 7 - 2 * rep_digits[-1][flipped]
    index = int(candidates.min())
    digits = [(index // 8 ** (n_parties - 1 - k)) % 8 for k in range(n_parties)]
    strategy = DeterministicStrategy(assignments=tuple(SIGN_TRIPLES[d] for d in digits))
    return best, strategy


def max_score_factorized(n_parties: int) -> float:
    """Maximum score via dynamic programming over the 12 phase classes.

    Tracks which product phase classes are reachable with all party phasors of
    magnitude 2; any party may instead zero the product, so 0 is always an
    alternative. Runs in O(N * 12 * 7) and agrees with max_score_brute. The
    final value 2^(N-1) sqrt(3) overflows float64 for N > 1023 (OverflowError).
    """
    if n_parties < 2:
        raise ValueError(f"need at least 2 parties, got {n_parties}")
    grid = build_settings(n_parties)
    first = sorted(
        {p.phase_class for t in SIGN_TRIPLES if (p := party_phasor(t, 0, grid)).magnitude}
    )
    other = sorted(
        {p.phase_class for t in SIGN_TRIPLES if (p := party_phasor(t, 1, grid)).magnitude}
    )
    reachable = set(first)
    for _ in range(n_parties - 1):
        updated = {(c + d) % 12 for c in reachable for d in other}
        if updated == reachable:
            break
        reachable = updated
    best_cos = max(COS12[c] for c in reachable)
    return max(0.0, math.ldexp(best_cos, n_parties))


def violation_factor(n_parties: int) -> float:
    """Ratio of the quantum value 3^N/2 to the bound: (3/2)^N / sqrt(3)."""
    if n_parties < 2:
        raise ValueError(f"need at least 2 parties, got {n_parties}")
    return 1.5 ** n_parties / math.sqrt(3.0)


def to_two_outcome(strategy: DeterministicStrategy) -> DeterministicStrategy:
    """Fold a strategy's non-detection outcomes into -1 (signs pass through)."""
    folded = tuple(
        tuple(v if v != 0 else -1 for v in triple) for triple in strategy.assignments
    )
    return DeterministicStrategy(assignments=folded, alphabet=TWO_OUTCOME)


def random_strategy(
    n_parties: int, rng: np.random.Generator, alphabet: str = TWO_OUTCOME
) -> DeterministicStrategy:
    """Uniformly random strategy over the given outcome alphabet."""
    if alphabet == TWO_OUTCOME:
        values = 2 * rng.integers(0, 2, size=(n_parties, 3)) - 1
    elif alphabet == THREE_OUTCOME:
        values = rng.integers(-1, 2, size=(n_parties, 3))
    else:
        raise ValueError(f"unknown alphabet {alphabet!r}")
    return DeterministicStrategy(
        assignments=tuple(tuple(int(v) for v in row) for row in values),
        alphabet=alphabet,
    )
