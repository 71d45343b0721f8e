"""Quantum side of the three-setting N-party Bell test on GHZ correlations.

Contents:
    FIRST_PARTY_CLASSES, LATER_PARTY_CLASSES -- phase classes of party 0's, later parties' settings
    CorrelationTensor   -- flat 3^N full-correlation tensor with JSON output
    setting_phase_classes -- total phase class of every setting combination
    integer_tensor      -- the quantum tensor over sqrt(3)/2: entries exactly 0, +-1
    quantum_tensor      -- the 3^N tensor of quantum correlations, cached per N
    entry_sum_closed_form -- closed form for the tensor entry sum

The paper fixes every party's three settings, so N alone determines them.
Every phase is a multiple of pi/6 (stored as that integer multiple, its phase
class). The first party's classes are 1 + 2d and every other party's 2d, for
d its 0-based setting, so each combination's total class c is odd and its
correlation is COS12[c], sqrt(3)/2 times T = ODD_CLASS_COS[c // 2]. Both
tensors are looked up in setting_phase_classes. The exact side works on the
integer table, where every score, norm and sum is an integer held exactly in
float64.
"""

from __future__ import annotations

import functools
import math
import numbers
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
# Phase classes of settings 0, 1, 2: party 0 measures at (pi/6, pi/2, 5pi/6)
# and every later party at (0, pi/3, 2pi/3).
FIRST_PARTY_CLASSES = (1, 3, 5)
LATER_PARTY_CLASSES = (0, 2, 4)


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


def _check_rate(field: str, value: float) -> float:
    """``float(value)`` for a real ``value`` in [0, 1]; a _FieldError naming ``field`` otherwise."""
    if not isinstance(value, (float, numbers.Real)):  # float first: the ABC check is slower
        raise _FieldError(field, f"{field} must be a real number, got {value!r}")
    if not 0.0 <= value <= 1.0:
        raise _FieldError(field, f"{field} must be in [0, 1], got {value}")
    return float(value)


def _check_parties(n: int) -> int:
    """``n`` as a plain int: the paper's test needs an integer count of at least two parties."""
    n = _check_integer("n_parties", n)
    if n < 2:
        raise _FieldError("n_parties", f"need at least 2 parties, got {n}")
    return n


def build_settings(n_parties: int) -> int:
    """Deprecated: the checked party count, which every builder now takes directly."""
    return _check_parties(n_parties)


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
        object.__setattr__(self, "n_parties", _check_parties(self.n_parties))
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


def setting_phase_classes(n_parties: int) -> np.ndarray:
    """Total phase class (multiple of pi/6 mod 12), always odd, of every setting combination.

    The sum of the per-party classes: flat int64, in CorrelationTensor order.
    """
    later = [np.asarray(LATER_PARTY_CLASSES, dtype=np.int64)] * (_check_parties(n_parties) - 1)
    first = np.asarray(FIRST_PARTY_CLASSES, dtype=np.int64)
    return (functools.reduce(np.add.outer, later, first) % 12).ravel()


def _cached_per_count(build):
    """``build`` cached per party count, checked before the cache is read.

    So 5 and np.int64(5) share one entry, and a rejected count adds none.
    """
    cached = functools.cache(build)

    @functools.wraps(build)
    def tensor(n_parties: int) -> CorrelationTensor:
        return cached(_check_parties(n_parties))

    tensor.cache_info, tensor.cache_clear = cached.cache_info, cached.cache_clear
    return tensor


@_cached_per_count
def integer_tensor(n_parties: int) -> CorrelationTensor:
    """The quantum tensor divided by sqrt(3)/2: every entry exactly 0, +1 or -1.

    Cached and read-only like quantum_tensor, and built apart from it, so the
    engine's large-N runs do not hold both.
    """
    halves = setting_phase_classes(n_parties)
    halves //= 2  # in place: one 3^N temporary fewer at the build's peak
    entries = np.asarray(ODD_CLASS_COS, dtype=np.float64)[halves]
    return CorrelationTensor(n_parties, entries, _take=True)


@_cached_per_count
def quantum_tensor(n_parties: int) -> CorrelationTensor:
    """Tensor of quantum correlations cos(sum of chosen phases) for N parties.

    sqrt(3)/2 times the integer table. Cached: every caller shares one tensor
    per N, and its entries are read-only.
    """
    entries = np.asarray(COS12)[setting_phase_classes(n_parties)]
    return CorrelationTensor(n_parties, entries, _take=True)


def entry_sum_closed_form(n_parties: int) -> float:
    """Closed form for the quantum tensor entry sum: -2^N sin((N-1) pi/3).

    sin((N-1) pi/3) only takes the values {0, +-sqrt(3)/2}, so the result is
    exactly 0 whenever N = 1 (mod 3), N = 1024 included; from N = 1025 it
    overflows float64 (OverflowError).
    """
    n_parties = _check_parties(n_parties)
    sin_table = (0.0, HALF_SQRT3, HALF_SQRT3, 0.0, -HALF_SQRT3, -HALF_SQRT3)
    return math.ldexp(-sin_table[(n_parties - 1) % 6], n_parties)
