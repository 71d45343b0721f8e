"""Self-verification suite behind the ``verify`` CLI command.

Each check recomputes one identity of the toolkit through two independent
routes (direct evaluation vs closed form, exhaustive search vs dynamic
program, every folded three-outcome strategy vs analytic bound); seven report
the largest gap between their routes. Checks on the integer table T (the
quantum tensor over sqrt(3)/2) are exact equalities, as every score, norm and
sum on T is an integer held exactly in float64: norm, entry sum, bound,
factorization and folded bound. The violation factor and the visibility
compare float closed forms within CLOSED_FORM_TOL, the efficiency check a
bisection within IDENTITY_TOL. The factorization identity scores every sign
strategy at N = 2, 3 twice: T contracted against its sign triples as in
``max_score_brute``, and the product of per-party phasors from a table of
``party_phasor`` values. Neither route reads the other's numbers.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import asdict, dataclass
from functools import reduce
from itertools import product

import numpy as np

from .lhv import (
    SIGN_TRIPLES,
    _triple_scores,
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
    _check_parties,
    build_settings,
    entry_sum_closed_form,
    integer_tensor,
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


def _largest_gap(name: str, gaps: Iterable[float], detail: str, tol: float = 0.0) -> CheckResult:
    """Pass on a largest gap of exactly 0 (or below ``tol``); it fills ``detail``'s ``{}``."""
    worst = float(max(gaps))
    return CheckResult(name=name, passed=worst == 0.0 or worst < tol, detail=detail.format(worst))


def _factorization_scores(n: int, t: CorrelationTensor) -> tuple[np.ndarray, np.ndarray]:
    """T-scores of all 8^N sign strategies, in ``product(SIGN_TRIPLES, repeat=N)`` order.

    ``direct`` contracts T against each strategy's sign triples, as ``max_score_brute``
    does. ``phasor`` is the real part of the product of the per-party phasors,
    from a table of 8 ``party_phasor`` values per party, over sqrt(3)/2:
    2^N cos(c pi/6) / (sqrt(3)/2) for the product's class c, which is odd (one
    odd first-party class, even ones after), so 2^N ``ODD_CLASS_COS[c // 2]``.
    Both are integers, exact in any summation order.
    """
    grid = build_settings(n)
    table = [[party_phasor(triple, k, grid) for triple in SIGN_TRIPLES] for k in range(n)]
    magnitude = reduce(np.multiply.outer, [[p.magnitude for p in ps] for ps in table])
    phase = reduce(np.add.outer, [[p.phase_class for p in ps] for ps in table]) % 12
    cos = np.asarray(ODD_CLASS_COS, dtype=np.float64)[phase // 2]
    phasor = np.where(magnitude > 0, np.ldexp(cos, n), 0.0)
    return _triple_scores(t, SIGN_TRIPLES).ravel(), phasor.ravel()


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
    worst = max(abs(critical_visibility(n, eta) - 1.0) for n, eta in etas.items())
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
    return _triple_scores(q, folded)


def _check_folded_strategies(t: CorrelationTensor) -> CheckResult:
    # The folds include every sign strategy, so the maximum is the bound itself.
    scores = _folded_scores(t)
    top = HALF_SQRT3 * float(scores.max())
    bound = lhv_bound(3)
    return CheckResult(
        name="folded-strategy-bound",
        passed=top == bound,
        detail=f"max folded score {top:.9f} vs bound {bound:.9f} over all {scores.size} strategies",
    )


def run_checks(n_max: int = 6, inject_fault: bool = False) -> list[CheckResult]:
    """Run every check; the exhaustive search covers N = 2..``n_max``, not clamped.

    Largest N first, so an N ``max_score_brute`` cannot search fails before any search runs.
    """
    n_max = _check_parties(n_max)
    brute = {n: max_score_brute(n) for n in range(n_max, 1, -1)}
    tables = {n: integer_tensor(build_settings(n)) for n in range(2, 11)}
    etas = dict(zip(range(2, 13), critical_efficiency(range(2, 13)).tolist()))
    # A fault injection knob exercises the failure path of the harness itself.
    offset = 1e-3 if inject_fault else 0.0
    return [
        # (Q, Q) = (3/4) (T, T); (T, T) counts the nonzero entries, and 3/4 of it is exact.
        _largest_gap(
            "norm-identity",
            (
                abs(0.75 * np.dot(t.entries, t.entries) - (3.0 ** n / 2.0 + offset))
                for n, t in tables.items()
            ),
            "max |norm_sq - 3^N/2| = {:.3e} over N=2..10",
        ),
        _largest_gap(
            "entry-sum-identity",
            (
                abs(HALF_SQRT3 * np.sum(t.entries) - entry_sum_closed_form(n))
                for n, t in tables.items()
            ),
            "max |sum - (-2^N sin((N-1)pi/3))| = {:.3e} over N=2..10",
        ),
        _largest_gap(
            "bound-brute",
            (
                max(abs(best - lhv_bound(n)), abs(HALF_SQRT3 * strategy_score(s, tables[n]) - best))
                for n, (best, s) in brute.items()
            ),
            f"max |brute max - 2^(N-1) sqrt(3)| = {{:.3e}} over N=2..{n_max}",
        ),
        _largest_gap(
            "oracle-equivalence",
            (abs(best - max_score_factorized(n)) for n, (best, _) in brute.items()),
            f"brute vs factorized max, N=2..{n_max}; max gap {{:.3e}}",
        ),
        _largest_gap(
            "factorization-identity",
            (np.abs(np.subtract(*_factorization_scores(n, tables[n]))).max() for n in (2, 3)),
            "max |tensor score - phasor score| = {:.3e}, exhaustive N=2,3",
        ),
        _check_phasor_sets(),
        _largest_gap(
            "violation-factor",
            (abs(3.0 ** n / 2.0 / lhv_bound(n) - violation_factor(n)) for n in range(2, 11)),
            "max |(3^N/2)/bound - (3/2)^N/sqrt(3)| = {:.3e} over N=2..10",
            CLOSED_FORM_TOL,
        ),
        _largest_gap(
            "visibility-closed-form",
            (
                abs(critical_visibility(n, 1.0) - math.sqrt(3.0) * (2.0 / 3.0) ** n)
                for n in range(2, 21)
            ),
            "max |v_cr(N, 1) - sqrt(3)(2/3)^N| = {:.3e} over N=2..20",
            CLOSED_FORM_TOL,
        ),
        _check_threshold_percents(etas),
        _check_efficiency_consistency(etas),
        _check_folded_strategies(tables[3]),
    ]
