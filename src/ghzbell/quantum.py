"""Quantum side of the three-setting N-party Bell test on GHZ correlations.

Contents:
    SettingsGrid        -- the fixed per-party measurement phase triples
    CorrelationTensor   -- flat 3^N full-correlation tensor with JSON output
    build_settings      -- construct the grid for N parties
    setting_phase_classes -- total phase class of every setting combination
    integer_tensor      -- the quantum tensor over sqrt(3)/2: entries exactly 0, +-1
    quantum_tensor      -- the 3^N tensor of quantum correlations, cached per N
    entry_sum_closed_form -- closed form for the tensor entry sum

Every phase in the grid is a multiple of pi/6 (stored as that integer
multiple, its phase class). The first party's classes are 1 + 2d and every
other party's 2d, for d its 0-based setting, so each combination's correlation
is sqrt(3)/2 times T = (1, 0, -1, -1, 0, 1)[sum of d mod 6]. The exact side
works on that integer table, where every score, norm and sum is an integer
held exactly in float64; the quantum tensor is the table times sqrt(3)/2.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import InitVar, dataclass

import numpy as np

HALF_SQRT3 = math.sqrt(3.0) / 2.0

# cos(c * pi/6) for c = 0..11, built from exact constants rather than math.cos
# so that multiples of pi/2 are exactly 0/1 and the rest exactly +-1/2, +-s3/2.
COS12 = (
    1.0, HALF_SQRT3, 0.5, 0.0, -0.5, -HALF_SQRT3,
    -1.0, -HALF_SQRT3, -0.5, 0.0, 0.5, HALF_SQRT3,
)
# cos(c * pi/6) / (sqrt(3)/2) at the odd classes c = 1, 3, ..., 11, indexed by c // 2.
ODD_CLASS_COS = (1, 0, -1, -1, 0, 1)


class _FieldError(ValueError):
    """A rejected input; ``field`` names the argument or config field the CLI maps to a flag."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(message)
        self.field = field


def _check_integer(field: str, value: int) -> int:
    """``value`` as a plain int, for any integer type; a _FieldError naming ``field`` otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise _FieldError(field, f"{field} must be an integer, got {value!r}") from None


def _check_parties(n: int) -> int:
    """``n`` as a plain int: the paper's test needs an integer count of at least two parties.

    ``_check_integer``'s rule, written out: a threshold table calls this a few
    thousand times, and the nested call would double its cost.
    """
    try:
        n = operator.index(n)
    except TypeError:
        raise _FieldError("n_parties", f"n_parties must be an integer, got {n!r}") from None
    if n < 2:
        raise _FieldError("n_parties", f"need at least 2 parties, got {n}")
    return n


@dataclass(frozen=True)
class SettingsGrid:
    """The paper's fixed measurement phases for N parties, three settings each.

    Party 0 measures at (pi/6, pi/2, 5pi/6) and every later party at
    (0, pi/3, 2pi/3); ``n_parties`` alone determines the grid.
    """

    n_parties: int

    def __post_init__(self) -> None:
        _check_parties(self.n_parties)

    def phase_classes(self) -> tuple[tuple[int, int, int], ...]:
        """Each phase as its integer multiple of pi/6, per party and setting."""
        return ((1, 3, 5),) + ((0, 2, 4),) * (self.n_parties - 1)


def build_settings(n_parties: int) -> SettingsGrid:
    """Grid for ``n_parties`` parties: offset triple for party 0, shared triple after."""
    return SettingsGrid(n_parties=n_parties)


@dataclass(frozen=True, eq=False)
class CorrelationTensor:
    """Dense full-correlation tensor over 3^N setting combinations.

    ``entries`` is flat, row-major with the first party's setting index
    slowest. Entries are correlations, so magnitudes never exceed 1.
    """

    n_parties: int
    entries: np.ndarray
    # True when entries is a fresh flat float64 array that no caller keeps: it
    # is checked and made read-only in place, not copied.
    _take: InitVar[bool] = False

    def __post_init__(self, _take: bool) -> None:
        _check_parties(self.n_parties)
        arr = self.entries if _take else np.array(self.entries, dtype=np.float64).ravel()
        if arr.size != 3 ** self.n_parties:
            raise ValueError(
                f"expected {3 ** self.n_parties} entries for {self.n_parties} parties, got {arr.size}"
            )
        # Two reductions and no temporaries; NaN fails the comparison too, and
        # only then does the isfinite scan pick which rule broke.
        if not -1.0 - 1e-9 <= arr.min() <= arr.max() <= 1.0 + 1e-9:
            if not np.isfinite(arr).all():
                raise ValueError("tensor entries must be finite")
            raise ValueError("correlation magnitudes cannot exceed 1")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def as_grid(self) -> np.ndarray:
        """View shaped (3,)*N, axis k = party k's setting index (0-based)."""
        return self.entries.reshape((3,) * self.n_parties)

    def to_dict(self) -> dict:
        return {"n_parties": self.n_parties, "entries": self.entries.tolist()}


def _setting_residues(grid: SettingsGrid) -> np.ndarray:
    """Flat int64 sum of 0-based settings mod 6 per combination, in CorrelationTensor order."""
    digits = [np.arange(3, dtype=np.int64)] * grid.n_parties
    return (functools.reduce(np.add.outer, digits) % 6).ravel()


def setting_phase_classes(grid: SettingsGrid) -> np.ndarray:
    """Total phase class (multiple of pi/6 mod 12) of every setting combination.

    Flat int64 array of length 3^N, same ordering as CorrelationTensor
    entries: 1 + 2 (sum of 0-based settings mod 6).
    """
    return 1 + 2 * _setting_residues(grid)


@functools.cache
def integer_tensor(grid: SettingsGrid) -> CorrelationTensor:
    """The quantum tensor divided by sqrt(3)/2: every entry exactly 0, +1 or -1.

    Cached and read-only like quantum_tensor, and built apart from it, so the
    engine's large-N runs do not hold both.
    """
    entries = np.asarray(ODD_CLASS_COS, dtype=np.float64)[_setting_residues(grid)]
    return CorrelationTensor(grid.n_parties, entries, _take=True)


@functools.cache
def quantum_tensor(grid: SettingsGrid) -> CorrelationTensor:
    """Tensor of quantum correlations cos(sum of chosen phases) over the grid.

    sqrt(3)/2 times the integer table. Cached: every caller shares one tensor
    per N, and its entries are read-only.
    """
    entries = np.multiply(ODD_CLASS_COS, HALF_SQRT3)[_setting_residues(grid)]
    return CorrelationTensor(grid.n_parties, entries, _take=True)


def entry_sum_closed_form(n_parties: int) -> float:
    """Closed form for the quantum tensor entry sum: -2^N sin((N-1) pi/3).

    sin((N-1) pi/3) only takes the values {0, +-sqrt(3)/2}, so the result is
    exactly 0 whenever N = 1 (mod 3).
    """
    n_parties = _check_parties(n_parties)
    sin_table = (0.0, HALF_SQRT3, HALF_SQRT3, 0.0, -HALF_SQRT3, -HALF_SQRT3)
    return -(2.0 ** n_parties) * sin_table[(n_parties - 1) % 6]
