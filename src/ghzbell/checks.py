"""Self-verification suite behind the ``verify`` CLI command.

Each check recomputes one identity of the toolkit through two independent
routes (direct evaluation vs closed form, exhaustive search vs dynamic
program, tensor contraction vs phasor product); eight report the largest gap
between their routes. The checks on the integer table T (the quantum tensor
over sqrt(3)/2) are exact, as every score, norm and sum on T is an integer
held exactly in float64; the closed forms allow CLOSED_FORM_TOL and the
bisection IDENTITY_TOL. At N = 2, 3 one contraction of T against the 27
three-outcome triples (0 for no click) scores every deterministic strategy.
The detection-adjusted check reads all of it: the verdict's inequality on T,
3^N |(T, E)| + |sum T| z <= 6^N (z all-zero combinations), peaks at 6^N, also
when never clicking. The factorization check compares the sign block with a
product of ``party_phasor`` values; neither reads the other's numbers.
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
    PartyPhasor,
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

# Every three-outcome triple, -1 before 0 before +1: the rows with no 0 are
# SIGN_TRIPLES in order, and (0, 0, 0) never clicks.
_OUTCOME_TRIPLES = tuple(product((-1, 0, 1), repeat=3))
_SIGN_ROWS = [i for i, row in enumerate(_OUTCOME_TRIPLES) if 0 not in row]
_ZEROS = np.array([row.count(0) for row in _OUTCOME_TRIPLES])


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


def _phasor_scores(table: list[list[PartyPhasor]]) -> np.ndarray:
    """T-scores of the 8^N sign strategies, shaped (8,) * N, from ``table``'s phasor rows.

    The phasor product's real part over sqrt(3)/2 is 2^N ``ODD_CLASS_COS[c // 2]`` for
    its class c, which is odd (one odd first-party class, even ones after): an integer.
    """
    magnitude = reduce(np.multiply.outer, [[p.magnitude for p in ps] for ps in table])
    phase = reduce(np.add.outer, [[p.phase_class for p in ps] for ps in table]) % 12
    cos = np.asarray(ODD_CLASS_COS, dtype=np.float64)[phase // 2]
    return np.where(magnitude > 0, np.ldexp(cos, len(table)), 0.0)


def _adjusted_gap(scores: np.ndarray, t: CorrelationTensor) -> float:
    """Gap to 6^N of 3^N |(T, E)| + |sum T| z at its top and never-click; z = prod of 0 counts."""
    n = t.n_parties
    # In place, |sum T| folded into one party's counts: fewer 27^N temporaries at N = 3.
    adjusted = np.abs(scores)
    adjusted *= 3.0 ** n
    adjusted += reduce(np.multiply.outer, [abs(np.sum(t.entries)) * _ZEROS] + [_ZEROS] * (n - 1))
    never = adjusted[(_OUTCOME_TRIPLES.index((0, 0, 0)),) * n]
    return max(abs(adjusted.max() - 6.0 ** n), abs(never - 6.0 ** n))


def _check_phasor_sets(table: list[list[PartyPhasor]]) -> CheckResult:
    # N = 2's table: party 0 has the first party's odd classes, party 1 every later one's even.
    return CheckResult(
        name="phasor-onto",
        passed=all(
            set(row) == {PartyPhasor(0, 0)} | {PartyPhasor(2, c) for c in range(1 - k, 12, 2)}
            for k, row in enumerate(table)
        ),
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


def run_checks(n_max: int = 6, inject_fault: bool = False) -> list[CheckResult]:
    """Run every check; the exhaustive search covers N = 2..``n_max``, not clamped.

    Largest N first, so an N ``max_score_brute`` cannot search fails before any search runs.
    """
    n_max = _check_parties(n_max)
    brute = {n: max_score_brute(n) for n in range(n_max, 1, -1)}
    tables = {n: integer_tensor(n) for n in range(2, 11)}
    etas = dict(zip(range(2, 13), critical_efficiency(range(2, 13)).tolist()))
    scores = {n: _triple_scores(tables[n], _OUTCOME_TRIPLES) for n in (2, 3)}
    phasors = {
        n: [[party_phasor(s, k, n) for s in SIGN_TRIPLES] for k in range(n)]
        for n in (2, 3)
    }
    # A fault injection knob exercises the failure path of the harness itself.
    offset = 1e-3 if inject_fault else 0.0
    return [
        # (Q, Q) = (3/4) (T, T); (T, T) counts nonzero entries, exact in any order, as is 3/4 of it.
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
            (
                np.abs(scores[n][np.ix_(*[_SIGN_ROWS] * n)] - _phasor_scores(phasors[n])).max()
                for n in (2, 3)
            ),
            "max |tensor score - phasor score| = {:.3e}, exhaustive N=2,3",
        ),
        _check_phasor_sets(phasors[2]),
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
        _largest_gap(
            "detection-adjusted-bound",
            (_adjusted_gap(scores[n], tables[n]) for n in (2, 3)),
            "max |6^N - 3^N |(T,E)| - |sum T| zeros| at the top and never-click = {:.3e}, "
            "27^N strategies, N=2,3",
        ),
    ]
