"""Critical visibility and detection efficiency for the N-party test.

Contents:
    critical_visibility -- smallest visibility violating the bound at fixed eta
    critical_efficiency -- smallest efficiency admitting violation at V = 1,
                           for one N or, in one bisection, for many
    two_setting_visibility_threshold -- the classic two-setting figure 2^((1-N)/2)
    ThresholdRow, threshold_table    -- per-N comparison table
    render_table_csv    -- CSV serialization with the pinned header
    percent_string      -- percentage rounded half-away-from-zero to 1 decimal

The violation condition with visibility V and detection efficiency eta reads

    eta^N (3^N / 2) V > 2^(N-1) sqrt(3) - |q_N| (1 - eta)^N,

with q_N the quantum tensor entry sum. Solving at equality in V gives
critical_visibility; setting V = 1 and solving for eta gives
critical_efficiency. At eta = 1 the critical visibility collapses to the
closed form sqrt(3) (2/3)^N.

critical_efficiency bisects for the roots of every requested N at once,
elementwise over numpy arrays, so threshold_table and the checks solve all
their N in one call. Every bracket starts as [1e-6, 1], so every N takes the
same fixed 40 halving steps to a width below 1e-12. Its per-N constants
(3^N, |q_N|, the bound) stay exact Python floats; only the margin is
evaluated in numpy, whose SIMD ``pow`` can differ from libm's in the last
bit. Over N = 2..646 no bisection decision lies within hundreds of ulps of 0,
so the results equal those of a per-N bisection in plain floats bit for bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .lhv import lhv_bound
from .quantum import _FieldError, _check_parties, _check_rate, entry_sum_closed_form

BISECTION_LO = 1e-6
# Every bracket starts at 1 - 1e-6 wide and halves each step: after 40 steps it
# is first below 1e-12, whatever N.
BISECTION_STEPS = 40
LOG_FLOAT_MAX = math.log(sys.float_info.max)


def critical_visibility(n_parties: int, eta: float = 1.0) -> float:
    """Visibility at which the quantum value meets the detection-adjusted bound.

    v_cr = [2^(N-1) sqrt(3) - |q_N| (1-eta)^N] / [eta^N 3^N / 2]. Requires
    eta in (0, 1]; eta = 0 leaves no detected coincidences to violate with.
    |q_N| is 0 or the bound, so the numerator is the bound times the deficit
    1 - c (1-eta)^N with c in {0, 1}, taken from expm1/log1p so that it keeps
    its digits where (1-eta)^N is close to 1. Where eta^N is below the
    smallest normal double the value comes from its logarithm, and math.inf
    stands for a value beyond float64. A value above 1 means no physical
    visibility violates the bound at this efficiency.
    """
    if not (eta := _check_rate("efficiency", eta)):
        raise _FieldError("efficiency", f"efficiency must be in (0, 1], got {eta}")
    n_parties = _check_parties(n_parties)
    bound = lhv_bound(n_parties)
    q_abs = abs(entry_sum_closed_form(n_parties))
    deficit = -math.expm1(n_parties * math.log1p(-eta)) if q_abs and eta < 1.0 else 1.0
    power = eta ** n_parties
    if power >= sys.float_info.min:
        return bound * deficit / (power * 3.0 ** n_parties / 2.0)
    # log v = log(2 bound deficit) - N log(3 eta); above float64 the value is inf.
    log_v = math.log(2.0 * bound * deficit) - n_parties * math.log(3.0 * eta)
    return math.exp(log_v) if log_v < LOG_FLOAT_MAX else math.inf


def _efficiency_margin(n_parties):
    """Quantum-minus-classical margin g(eta) at V = 1; its positive root is eta_cr.

    ``n_parties`` is one N or a sequence of them. The per-N constants are
    computed in Python, checking the premise of critical_efficiency on the
    way (an N below 2 raises ValueError, an N whose 3^N leaves float64 raises
    OverflowError), and g evaluates in numpy, elementwise over an array of
    eta of the same shape as ``n_parties``.
    """
    ns = np.asarray(n_parties, dtype=object)  # each N as given: no promotion to float64
    constants = []
    for n in ns.ravel().tolist():
        n = _check_parties(n)
        bound = lhv_bound(n)
        q_abs = abs(entry_sum_closed_form(n))
        if q_abs / bound not in (0.0, 1.0):
            raise RuntimeError(f"N={n}: |q_N| / bound = {q_abs / bound!r} is neither 0 nor 1")
        constants.append((n, 3.0 ** n, q_abs, bound))
    n, three_n, q_abs, bound = np.array(constants, dtype=np.float64).T.reshape(4, *ns.shape)
    return lambda eta: eta ** n * three_n / 2.0 + q_abs * (1.0 - eta) ** n - bound


def critical_efficiency(n_parties):
    """Smallest detection efficiency allowing violation at perfect visibility.

    Bisection on [1e-6, 1], 40 halving steps to a bracket below 1e-12, for
    the root of the margin g(eta) = (3^N/2) eta^N + |q_N| (1-eta)^N -
    2^(N-1) sqrt(3). The root is unique: g is convex on [0, 1] for N >= 2 and
    |q_N| is 0 or exactly the bound, so g(0) < 0, or g(0) = 0 with
    g'(0) = -N |q_N| < 0; as g(1) > 0, g crosses zero exactly once on (0, 1].
    RuntimeError names the first N whose premise (|q_N| / bound is 0 or 1) or
    bracket fails. When q_N = 0 (N = 1 mod 3) the root also has the closed
    form (2^N sqrt(3) / 3^N)^(1/N).

    An int gives a float. A sequence of N gives a float64 array, solved by one
    bisection that runs elementwise over all of them: every entry halves its
    own bracket at each of the same 40 steps, so it takes the steps of a
    bisection of that N alone. Pass every N at once: most of a call's cost is
    its 40 numpy steps, whatever the number of N. numpy's SIMD ``pow`` may
    differ from libm's in the last bit, but over N = 2..646 every bisection
    decision has |g(mid)| >= 2^-46 max(A + B, bound), with A and B the two
    power terms: hundreds of ulps, so a few-ulp error in ``pow`` changes no
    decision and no digit of the result.
    """
    margin = _efficiency_margin(n_parties)
    lo = np.full(np.shape(n_parties), BISECTION_LO)
    hi = np.ones_like(lo)
    g_lo, g_hi = margin(lo), margin(hi)
    bad = ~((g_lo < 0.0) & (0.0 < g_hi))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise RuntimeError(
            f"N={np.ravel(n_parties)[i]}: bisection bracket does not straddle the root: "
            f"g({BISECTION_LO})={float(g_lo.flat[i])!r}, g(1.0)={float(g_hi.flat[i])!r}"
        )
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        below = margin(mid) < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    eta = 0.5 * (lo + hi)
    return float(eta) if eta.ndim == 0 else eta


def efficiency_closed_form(n_parties: int) -> float:
    """Closed-form eta_cr for the q_N = 0 cases (N = 1 mod 3)."""
    n_parties = _check_parties(n_parties)
    if entry_sum_closed_form(n_parties) != 0.0:
        raise ValueError(
            f"closed form only holds when the entry sum vanishes (N = 1 mod 3), got N={n_parties}"
        )
    return (lhv_bound(n_parties) * 2.0 / 3.0 ** n_parties) ** (1.0 / n_parties)


def two_setting_visibility_threshold(n_parties: int) -> float:
    """Critical visibility of the classic two-setting inequalities: 2^((1-N)/2)."""
    n_parties = _check_parties(n_parties)
    return 2.0 ** ((1 - n_parties) / 2)


@dataclass(frozen=True)
class ThresholdRow:
    """One table row: thresholds for N parties at perfect detection."""

    n: int
    v_cr_new: float
    v_cr_old: float
    eta_cr: float

    def to_dict(self) -> dict:
        return asdict(self)


def threshold_table(n_max: int) -> list[ThresholdRow]:
    """Rows for N = 2..n_max: three-setting and two-setting visibility, eta_cr."""
    # The N = n_max constants first: an n_max below 2, or one whose 3^N leaves
    # float64, raises here, before N = 2..n_max is built.
    _efficiency_margin(n_max)
    ns = range(2, n_max + 1)
    return [
        ThresholdRow(
            n=n,
            v_cr_new=critical_visibility(n),
            v_cr_old=two_setting_visibility_threshold(n),
            eta_cr=eta,
        )
        for n, eta in zip(ns, critical_efficiency(ns).tolist())
    ]


CSV_HEADER = "n,v_cr_new,v_cr_old,eta_cr"


def render_table_csv(rows: list[ThresholdRow]) -> str:
    """CSV text with the pinned header and full-precision values."""
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(f"{row.n},{row.v_cr_new!r},{row.v_cr_old!r},{row.eta_cr!r}")
    return "\n".join(lines) + "\n"


def percent_string(value: float) -> str:
    """``value`` as a percentage, one decimal, ties rounded away from zero."""
    percent = Decimal(repr(float(100.0 * value)))
    return str(percent.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))
