"""Quantum side of the three-setting N-party Bell test on GHZ correlations.

Contents:
    SettingsGrid        -- the fixed per-party measurement phase triples
    CorrelationTensor   -- flat 3^N full-correlation tensor with JSON output
    build_settings      -- construct the grid for N parties
    setting_phase_classes -- total phase class of every setting combination
    quantum_tensor      -- the 3^N tensor of quantum correlations
    tensor_norm_sq, tensor_entry_sum -- squared norm and plain entry sum
    entry_sum_closed_form -- closed form for the tensor entry sum

Every phase in the grid is a multiple of pi/6 (stored as that integer
multiple, its phase class), so tensor entries are evaluated through an exact
12-entry cosine table and land exactly in {0, +-1/2, +-sqrt(3)/2, +-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HALF_SQRT3 = math.sqrt(3.0) / 2.0

# cos(c * pi/6) for c = 0..11, built from exact constants rather than math.cos
# so that multiples of pi/2 are exactly 0/1 and the rest exactly +-1/2, +-s3/2.
COS12 = (
    1.0, HALF_SQRT3, 0.5, 0.0, -0.5, -HALF_SQRT3,
    -1.0, -HALF_SQRT3, -0.5, 0.0, 0.5, HALF_SQRT3,
)
SIN12 = (
    0.0, 0.5, HALF_SQRT3, 1.0, HALF_SQRT3, 0.5,
    0.0, -0.5, -HALF_SQRT3, -1.0, -HALF_SQRT3, -0.5,
)
_COS12_ARRAY = np.asarray(COS12, dtype=np.float64)

# Phase classes in units of pi/6: the first party measures at pi/6, pi/2 and
# 5pi/6, every other party at 0, pi/3 and 2pi/3. Spacing within a party is
# exactly pi/3.
FIRST_PARTY_CLASSES = (1, 3, 5)
OTHER_PARTY_CLASSES = (0, 2, 4)


@dataclass(frozen=True)
class SettingsGrid:
    """The paper's fixed measurement phases for N parties, three settings each.

    Party 0 measures at (pi/6, pi/2, 5pi/6) and every later party at
    (0, pi/3, 2pi/3); ``n_parties`` alone determines the grid.
    """

    n_parties: int

    def __post_init__(self) -> None:
        if self.n_parties < 2:
            raise ValueError(f"need at least 2 parties, got {self.n_parties}")

    def phase_classes(self) -> tuple[tuple[int, int, int], ...]:
        """Each phase as its integer multiple of pi/6, per party and setting."""
        return (FIRST_PARTY_CLASSES,) + (OTHER_PARTY_CLASSES,) * (self.n_parties - 1)

    def radians(self) -> tuple[tuple[float, float, float], ...]:
        """Phases as plain float radians."""
        return tuple(tuple(c / 6 * math.pi for c in t) for t in self.phase_classes())


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

    def __post_init__(self) -> None:
        if self.n_parties < 2:
            raise ValueError(f"need at least 2 parties, got {self.n_parties}")
        arr = np.array(self.entries, dtype=np.float64).ravel()
        if arr.size != 3 ** self.n_parties:
            raise ValueError(
                f"expected {3 ** self.n_parties} entries for {self.n_parties} parties, got {arr.size}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor entries must be finite")
        if np.max(np.abs(arr), initial=0.0) > 1.0 + 1e-9:
            raise ValueError("correlation magnitudes cannot exceed 1")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def as_grid(self) -> np.ndarray:
        """View shaped (3,)*N, axis k = party k's setting index (0-based)."""
        return self.entries.reshape((3,) * self.n_parties)

    def to_dict(self) -> dict:
        return {"n_parties": self.n_parties, "entries": self.entries.tolist()}


def setting_phase_classes(grid: SettingsGrid) -> np.ndarray:
    """Total phase class (multiple of pi/6 mod 12) of every setting combination.

    Flat int array of length 3^N, same ordering as CorrelationTensor entries.
    """
    n = grid.n_parties
    total = np.zeros((3,) * n, dtype=np.int64)
    for k, classes in enumerate(grid.phase_classes()):
        shape = [1] * n
        shape[k] = 3
        total = total + np.asarray(classes, dtype=np.int64).reshape(shape)
    return (total % 12).ravel()


def quantum_tensor(grid: SettingsGrid) -> CorrelationTensor:
    """Tensor of quantum correlations cos(sum of chosen phases) over the grid."""
    entries = _COS12_ARRAY[setting_phase_classes(grid)]
    return CorrelationTensor(n_parties=grid.n_parties, entries=entries)


def tensor_norm_sq(tensor: CorrelationTensor) -> float:
    """Sum of squared entries."""
    return float(np.dot(tensor.entries, tensor.entries))


def tensor_entry_sum(tensor: CorrelationTensor) -> float:
    """Plain sum of all entries."""
    return float(np.sum(tensor.entries))


def entry_sum_closed_form(n_parties: int) -> float:
    """Closed form for the quantum tensor entry sum: -2^N sin((N-1) pi/3).

    sin((N-1) pi/3) only takes the values {0, +-sqrt(3)/2}, so the result is
    exactly 0 whenever N = 1 (mod 3).
    """
    if n_parties < 2:
        raise ValueError(f"need at least 2 parties, got {n_parties}")
    sin_table = (0.0, HALF_SQRT3, HALF_SQRT3, 0.0, -HALF_SQRT3, -HALF_SQRT3)
    return -(2.0 ** n_parties) * sin_table[(n_parties - 1) % 6]
