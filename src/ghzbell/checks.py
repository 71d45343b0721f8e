"""Self-verification suite behind the ``verify`` CLI command.

Each check recomputes one identity of the toolkit through two independent
routes (direct evaluation vs closed form, exhaustive search vs dynamic
program, every folded three-outcome strategy vs analytic bound) and reports
pass/fail. The tensor checks run on the integer table T (the quantum tensor
over sqrt(3)/2), where every score, norm and sum is an integer held exactly in
float64, so they are exact equalities: norm, entry sum, bound, factorization
and folded bound. Tolerances remain only where a float closed form or the
efficiency bisection is compared.
The factorization identity scores every sign strategy at N = 2, 3 twice: its
row of sign products dotted with T, and the product of per-party phasors
looked up in a table of ``party_phasor`` values. Neither route reads the
other's numbers.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import reduce
from itertools import product

import numpy as np

from .lhv import (
    SIGN_TRIPLES,
    lhv_bound,
    max_score_brute,
    max_score_factorized,
    party_phasor,
    strategy_score,
    violation_factor,
)
from .quantum import (
    HALF_SQRT3,
    ODD_CLASS_COS,
    CorrelationTensor,
    _FieldError,
    build_settings,
    entry_sum_closed_form,
    integer_tensor,
    tensor_entry_sum,
    tensor_norm_sq,
)
from .thresholds import (
    critical_efficiency,
    critical_visibility,
    efficiency_closed_form,
    percent_string,
    two_setting_visibility_threshold,
)

IDENTITY_TOL = 1e-9
CLOSED_FORM_TOL = 1e-12


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def to_dict(self) -> dict:
        return asdict(self)


def _check_norm_identity(tensors: dict, inject_fault: bool) -> CheckResult:
    # A fault injection knob exercises the failure path of the harness itself.
    offset = 1e-3 if inject_fault else 0.0
    worst = 0.0
    for n, t in tensors.items():
        # (Q, Q) = (3/4) (T, T); (T, T) counts the nonzero entries, and 3/4 of it is exact.
        worst = max(worst, abs(0.75 * tensor_norm_sq(t) - (3.0 ** n / 2.0 + offset)))
    return CheckResult(
        name="norm-identity",
        passed=worst == 0.0,
        detail=f"max |norm_sq - 3^N/2| = {worst:.3e} over N=2..10",
    )


def _check_entry_sum(tensors: dict) -> CheckResult:
    worst = 0.0
    for n, t in tensors.items():
        worst = max(worst, abs(HALF_SQRT3 * tensor_entry_sum(t) - entry_sum_closed_form(n)))
    return CheckResult(
        name="entry-sum-identity",
        passed=worst == 0.0,
        detail=f"max |sum - (-2^N sin((N-1)pi/3))| = {worst:.3e} over N=2..10",
    )


def _check_bound_brute(brute: dict, tensors: dict) -> CheckResult:
    worst = 0.0
    for n, (best, strategy) in brute.items():
        worst = max(worst, abs(best - lhv_bound(n)))
        worst = max(worst, abs(HALF_SQRT3 * strategy_score(strategy, tensors[n]) - best))
    return CheckResult(
        name="bound-brute",
        passed=worst == 0.0,
        detail=f"max |brute max - 2^(N-1) sqrt(3)| = {worst:.3e} over N=2..{max(brute)}",
    )


def _check_oracle_equivalence(brute: dict) -> CheckResult:
    pairs = [(best, max_score_factorized(n)) for n, (best, _) in brute.items()]
    worst = max(abs(best - dp) for best, dp in pairs)
    return CheckResult(
        name="oracle-equivalence",
        passed=all(best == dp for best, dp in pairs),
        detail=f"brute vs factorized max, N=2..{max(brute)}; max gap {worst:.3e}",
    )


def _factorization_scores(n: int, t: CorrelationTensor) -> tuple[np.ndarray, np.ndarray]:
    """T-scores of all 8^N sign strategies, in ``product(SIGN_TRIPLES, repeat=N)`` order.

    ``direct`` is the matrix of every strategy's row of +-1 sign products
    times T. ``phasor`` is the real part of the product of the per-party
    phasors, from a table of 8 ``party_phasor`` values per party, over
    sqrt(3)/2: 2^N cos(c pi/6) / (sqrt(3)/2) for the product's class c, which
    is odd (one odd first-party class, even ones after), so 2^N
    ``ODD_CLASS_COS[c // 2]``. Both are integers, exact in any summation order.
    """
    signs = np.asarray(SIGN_TRIPLES, dtype=np.float64)
    rows = reduce(lambda a, b: np.einsum("ai,bj->abij", a, b).reshape(len(a) * 8, -1), [signs] * n)
    grid = build_settings(n)
    table = [[party_phasor(triple, k, grid) for triple in SIGN_TRIPLES] for k in range(n)]
    magnitude = reduce(np.multiply.outer, [[p.magnitude for p in ps] for ps in table])
    phase = reduce(np.add.outer, [[p.phase_class for p in ps] for ps in table]) % 12
    cos = np.asarray(ODD_CLASS_COS, dtype=np.float64)[phase // 2]
    phasor = np.where(magnitude > 0, np.ldexp(cos, n), 0.0)
    return rows @ t.entries, phasor.ravel()


def _check_factorization_identity(tensors: dict) -> CheckResult:
    worst = 0.0
    for n in (2, 3):
        direct, phasor = _factorization_scores(n, tensors[n])
        worst = max(worst, float(np.abs(direct - phasor).max()))
    return CheckResult(
        name="factorization-identity",
        passed=worst == 0.0,
        detail=f"max |tensor score - phasor score| = {worst:.3e}, exhaustive N=2,3",
    )


def _check_phasor_sets() -> CheckResult:
    grid = build_settings(2)
    expected = {0: {1, 3, 5, 7, 9, 11}, 1: {0, 2, 4, 6, 8, 10}}
    ok = True
    for party, classes in expected.items():
        phasors = {party_phasor(t, party, grid) for t in SIGN_TRIPLES}
        zero = {p for p in phasors if p.magnitude == 0}
        nonzero_classes = {p.phase_class for p in phasors if p.magnitude == 2}
        ok = ok and len(phasors) == 7 and len(zero) == 1 and nonzero_classes == classes
    return CheckResult(
        name="phasor-onto",
        passed=ok,
        detail="8 sign triples map onto exactly the 7 documented phasor values per party type",
    )


def _check_violation_factor() -> CheckResult:
    worst = 0.0
    for n in range(2, 11):
        quantum_value = 3.0 ** n / 2.0
        worst = max(worst, abs(quantum_value / lhv_bound(n) - violation_factor(n)))
    return CheckResult(
        name="violation-factor",
        passed=worst < CLOSED_FORM_TOL,
        detail=f"max |(3^N/2)/bound - (3/2)^N/sqrt(3)| = {worst:.3e} over N=2..10",
    )


def _check_visibility_closed_form() -> CheckResult:
    worst = 0.0
    for n in range(2, 21):
        v = critical_visibility(n, 1.0)
        worst = max(worst, abs(v - math.sqrt(3.0) * (2.0 / 3.0) ** n))
    return CheckResult(
        name="visibility-closed-form",
        passed=worst < CLOSED_FORM_TOL,
        detail=f"max |v_cr(N, 1) - sqrt(3)(2/3)^N| = {worst:.3e} over N=2..20",
    )


def _check_threshold_percents(etas: dict) -> CheckResult:
    expectations = [
        (percent_string(critical_visibility(2, 1.0)), "77.0"),
        (percent_string(critical_visibility(3, 1.0)), "51.3"),
        (percent_string(critical_visibility(4, 1.0)), "34.2"),
        (percent_string(critical_visibility(5, 1.0)), "22.8"),
        (percent_string(critical_visibility(10, 1.0)), "3.0"),
        (percent_string(two_setting_visibility_threshold(2)), "70.7"),
        (percent_string(two_setting_visibility_threshold(3)), "50.0"),
        (percent_string(two_setting_visibility_threshold(4)), "35.4"),
        (percent_string(two_setting_visibility_threshold(5)), "25.0"),
        (percent_string(two_setting_visibility_threshold(10)), "4.4"),
        (percent_string(etas[2]), "87.0"),
        (percent_string(etas[3]), "79.8"),
        (percent_string(etas[4]), "76.5"),
        (percent_string(etas[5]), "74.4"),
    ]
    bad = [f"{got}!={want}" for got, want in expectations if got != want]
    return CheckResult(
        name="threshold-percents",
        passed=not bad,
        detail="all rounded percentages match" if not bad else "; ".join(bad),
    )


def _check_efficiency_consistency(etas: dict) -> CheckResult:
    worst = 0.0
    for n, eta in etas.items():
        worst = max(worst, abs(critical_visibility(n, eta) - 1.0))
    worst_closed = abs(etas[4] - efficiency_closed_form(4))
    return CheckResult(
        name="efficiency-consistency",
        passed=worst < IDENTITY_TOL and worst_closed < CLOSED_FORM_TOL,
        detail=(
            f"max |v_cr(N, eta_cr(N)) - 1| = {worst:.3e} over N=2..12; "
            f"|bisection - closed form| = {worst_closed:.3e} at N=4"
        ),
    )


def _folded_scores(q: CorrelationTensor) -> np.ndarray:
    """Scores against ``q`` (N = 3) of all 27^3 three-outcome strategies, zeros folded to -1."""
    folded = np.asarray(list(product((-1, 0, 1), repeat=3)), dtype=np.float64)
    folded[folded == 0] = -1.0
    return np.einsum("ai,bj,ck,ijk->abc", folded, folded, folded, q.as_grid(), optimize=True)


def _check_folded_strategies(t: CorrelationTensor) -> CheckResult:
    # The folds include every sign strategy, so the maximum is the bound itself.
    scores = _folded_scores(t)
    worst = HALF_SQRT3 * float(scores.max())
    bound = lhv_bound(3)
    return CheckResult(
        name="folded-strategy-bound",
        passed=worst == bound,
        detail=(
            f"max folded score {worst:.9f} vs bound {bound:.9f} "
            f"over all {scores.size} strategies"
        ),
    )


def run_checks(n_max: int = 6, inject_fault: bool = False) -> list[CheckResult]:
    """Run every check; the exhaustive search covers N = 2..``n_max``, not clamped.

    Largest N first, so an N ``max_score_brute`` cannot search fails before any search runs.
    """
    if n_max < 2:
        raise _FieldError("n_max", f"n_max must be at least 2, got {n_max}")
    brute = {n: max_score_brute(n) for n in range(n_max, 1, -1)}
    tensors = {n: integer_tensor(build_settings(n)) for n in range(2, 11)}
    etas = dict(zip(range(2, 13), critical_efficiency(range(2, 13)).tolist()))
    return [
        _check_norm_identity(tensors, inject_fault),
        _check_entry_sum(tensors),
        _check_bound_brute(brute, tensors),
        _check_oracle_equivalence(brute),
        _check_factorization_identity(tensors),
        _check_phasor_sets(),
        _check_violation_factor(),
        _check_visibility_closed_form(),
        _check_threshold_percents(etas),
        _check_efficiency_consistency(etas),
        _check_folded_strategies(tensors[3]),
    ]
