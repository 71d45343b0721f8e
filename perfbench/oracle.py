"""Checks of ghzbell outputs that do not use ghzbell.

Every reference here is computed from the paper's definitions alone: the
phase grid (party 0 at pi/6, pi/2, 5pi/6; every other party at 0, pi/3,
2pi/3), cosines taken with ``math.cos``, the visibility/efficiency model of a
simulated trial, and ``mpmath`` for the threshold table. Nothing is imported
from the package under test, so a fault shared by the program and its own
self-checks still shows here.

Each ``check_*`` function returns a list of problems; an empty list means the
output passed. Statistical checks reject at a two-sided tail probability of
about 2.6e-12 (7 sigma for a normal statistic). A benchmark acceptance makes
a few times 10^4 checked operations, so a correct program fails one of them
by chance with probability about 1e-7; at 5 sigma that would be about 1 %,
enough to make two sets of runs disagree on their failed counts.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

Z_REJECT = 7.0
P_REJECT = math.erfc(Z_REJECT / math.sqrt(2.0))

FIRST_PARTY_PHASES = (math.pi / 6, math.pi / 2, 5 * math.pi / 6)
OTHER_PARTY_PHASES = (0.0, math.pi / 3, 2 * math.pi / 3)

CSV_HEADER = "n,v_cr_new,v_cr_old,eta_cr"
VERIFY_CHECKS = 11


def lhv_bound(n: int) -> float:
    """The classical bound 2^(N-1) sqrt(3)."""
    return 2.0 ** (n - 1) * math.sqrt(3.0)


@functools.lru_cache(maxsize=None)
def model_cosines(n: int) -> np.ndarray:
    """cos(sum of phases) for every setting combination, first party slowest."""
    phases = np.zeros((1,) * n)
    for k in range(n):
        shape = [1] * n
        shape[k] = 3
        triple = FIRST_PARTY_PHASES if k == 0 else OTHER_PARTY_PHASES
        phases = phases + np.asarray(triple).reshape(shape)
    q = np.fromiter((math.cos(x) for x in phases.ravel().tolist()), float, 3 ** n)
    q.setflags(write=False)
    return q


def _wilson_hilferty_z(x: float, k: float) -> float:
    """Normal deviate of x under a chi-square law with k degrees of freedom."""
    return ((x / k) ** (1.0 / 3.0) - (1.0 - 2.0 / (9.0 * k))) / math.sqrt(2.0 / (9.0 * k))


def _binomial_two_sided_p(k: int, trials: int, p: float) -> float:
    """Exact two-sided tail probability of k successes, summed outward from k."""
    if p == 0.0:
        return 1.0 if k == 0 else 0.0
    log_p, log_q = math.log(p), math.log1p(-p)
    head = math.lgamma(trials + 1)

    def pmf(j: int) -> float:
        return math.exp(
            head - math.lgamma(j + 1) - math.lgamma(trials - j + 1) + j * log_p + (trials - j) * log_q
        )

    step = -1 if k <= trials * p else 1
    tail, j = 0.0, k
    while 0 <= j <= trials:
        term = pmf(j)
        tail += term
        if term <= 1e-17 * tail:
            break
        j += step
    return min(1.0, 2.0 * tail)


def check_summary(summary: dict, n: int, v: float, eta: float, trials: int) -> list[str]:
    """Simulated-experiment summary against the trial model.

    Under the model a trial's outcome product is +-1 with probabilities
    eta^N (1 +- V q_i)/2 and 0 otherwise, so per combination its mean is
    mu_i = eta^N V q_i and its variance eta^N - mu_i^2. Counts per combination
    are taken as trials/3^N, which is exact for round-robin settings and the
    expectation for uniform-random ones.
    """
    problems: list[str] = []
    m = 3 ** n
    q = model_cosines(n)
    a = eta ** n
    mu = a * v * q
    var = a - mu ** 2
    count = trials / m

    tensor = summary["estimated_tensor"]
    est = np.asarray(tensor["entries"], dtype=float)
    if tensor["n_parties"] != n or est.shape != (m,):
        return [f"estimated tensor has shape {est.shape} for n_parties={tensor['n_parties']}"]

    lhs = summary["lhs"]
    expected = a * v * 3 ** n / 2
    sigma = math.sqrt(float(np.sum(q ** 2 * var)) / count)
    z = (lhs - expected) / sigma
    if not abs(z) <= Z_REJECT:
        problems.append(f"lhs {lhs!r} is {z:+.1f} sigma from eta^N V 3^N/2 = {expected!r}")

    # Chi-square of the tensor. Each term has mean exactly 1; its variance
    # follows from the fourth central moment of a {-1, 0, +1} outcome, which
    # matters at two trials per combination. The sum is matched to a scaled
    # chi-square law (Satterthwaite) and read through Wilson-Hilferty.
    live = var > 0.0
    if not np.array_equal(est[~live], mu[~live]):
        problems.append("entries with zero model variance differ from the model")
    p_plus = a * (1.0 + v * q[live]) / 2.0
    p_minus = a * (1.0 - v * q[live]) / 2.0
    mu_l, var_l = mu[live], var[live]
    mu4 = p_plus * (1 - mu_l) ** 4 + p_minus * (1 + mu_l) ** 4 + (1 - a) * mu_l ** 4
    term_var = (mu4 / var_l ** 2 + 3.0 * (count - 1.0)) / count - 1.0
    chi2 = float(np.sum(count * (est[live] - mu_l) ** 2 / var_l))
    mean, spread = float(live.sum()), float(np.sum(term_var))
    scale = spread / (2.0 * mean)
    z = _wilson_hilferty_z(chi2 / scale, mean / scale)
    if not abs(z) <= Z_REJECT:
        problems.append(f"tensor chi-square {chi2:.1f} over {mean:.0f} entries is {z:+.1f} sigma")

    p_all_zero = summary["p_all_zero"]
    all_zero = round(p_all_zero * trials)
    if all_zero / trials != p_all_zero:
        problems.append(f"p_all_zero {p_all_zero!r} is not a count over {trials} trials")
    p_value = _binomial_two_sided_p(all_zero, trials, (1.0 - eta) ** n)
    if not p_value >= P_REJECT:
        problems.append(
            f"{all_zero} all-zero trials of {trials} at (1-eta)^N = {(1 - eta) ** n!r}: p = {p_value:.2e}"
        )

    rhs = summary["rhs"]
    want = lhv_bound(n) - p_all_zero * abs(math.fsum(q))
    if not math.isclose(rhs, want, rel_tol=1e-9, abs_tol=1e-9):
        problems.append(f"rhs {rhs!r} != 2^(N-1) sqrt(3) - p_all_zero |sum q| = {want!r}")

    if summary["violated"] is not (lhs > rhs):
        problems.append(f"violated={summary['violated']!r} but lhs > rhs is {lhs > rhs}")
    return problems


def check_verify(report: dict) -> list[str]:
    """``verify --format json``: every one of the self checks passed."""
    checks = report["checks"]
    if report["passed"] != VERIFY_CHECKS or report["failed"] != 0 or len(checks) != VERIFY_CHECKS:
        return [f"verify reports {report['passed']} passed, {report['failed']} failed"]
    bad = [c["name"] for c in checks if c["passed"] is not True]
    return [f"verify checks not passed: {bad}"] if bad else []


def _efficiency_root(n: int):
    """Root in (1/2, 1] of the V = 1 margin, in log form.

    The margin eta^N 3^N/2 + |q_N| (1-eta)^N - 2^(N-1) sqrt(3), divided by the
    bound, vanishes where N log(3 eta/2) = log(sqrt 3) + log(1 - c (1-eta)^N)
    with c = |q_N| / (2^(N-1) sqrt 3). Here q_N = Re(prod of per-party phase
    sums) is the entry sum of the quantum tensor. The search starts at the
    c = 0 root (2/3) 3^(1/(2N)).
    """
    import mpmath as mp

    first = sum(mp.expjpi(mp.mpf(p) / 6) for p in (1, 3, 5))
    other = sum(mp.expjpi(mp.mpf(p) / 3) for p in (0, 1, 2))
    c = abs(mp.re(first * other ** (n - 1))) / (mp.mpf(2) ** (n - 1) * mp.sqrt(3))

    def log_margin(eta):
        return n * mp.log(3 * eta / 2) - mp.log(mp.sqrt(3)) - mp.log(1 - c * (1 - eta) ** n)

    return mp.findroot(log_margin, mp.mpf(2) / 3 * mp.mpf(3) ** (mp.mpf(1) / (2 * n)))


@functools.lru_cache(maxsize=None)
def threshold_reference(n_max: int) -> tuple[tuple[float, float, float], ...]:
    """(v_cr_new, v_cr_old, eta_cr) for N = 2..n_max, from mpmath at 30 digits."""
    import mpmath as mp

    rows = []
    with mp.workdps(30):
        for n in range(2, n_max + 1):
            v_new = mp.sqrt(3) * (mp.mpf(2) / 3) ** n
            v_old = mp.mpf(2) ** (mp.mpf(1 - n) / 2)
            rows.append((float(v_new), float(v_old), float(_efficiency_root(n))))
    return tuple(rows)


def check_thresholds_csv(text: str, n_max: int) -> list[str]:
    """``thresholds --format csv`` against the mpmath reference, row by row."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [f"header {lines[:1]!r} != {CSV_HEADER!r}"]
    reference = threshold_reference(n_max)
    if len(lines) - 1 != len(reference):
        return [f"{len(lines) - 1} rows for N = 2..{n_max}"]
    problems = []
    for n, (line, (v_new, v_old, eta)) in enumerate(zip(lines[1:], reference), start=2):
        fields = line.split(",")
        if len(fields) != 4 or fields[0] != str(n):
            problems.append(f"row {line!r} for N = {n}")
            continue
        got_new, got_old, got_eta = (float(x) for x in fields[1:])
        if not (
            math.isclose(got_new, v_new, rel_tol=1e-12)
            and math.isclose(got_old, v_old, rel_tol=1e-12)
            and abs(got_eta - eta) <= 1e-11
        ):
            problems.append(f"N = {n}: {line!r}, reference {v_new!r},{v_old!r},{eta!r}")
    return problems[:3]


def direct_score(n: int, assignments) -> float:
    """Scalar product of the quantum tensor with a strategy, as a 3^N-term sum."""
    q = model_cosines(n)
    signs = [math.prod(combo) for combo in itertools.product(*assignments)]
    return math.fsum(qi * s for qi, s in zip(q.tolist(), signs))


def check_bound(data: dict, n: int) -> list[str]:
    """``bound --n N``: values at the bound, and an argmax that attains it."""
    bound = lhv_bound(n)
    problems = []
    if data["n"] != n:
        problems.append(f"bound reports n = {data['n']}")
    for key in ("bound", "max_s", "max_s_brute", "max_s_factorized"):
        if not math.isclose(data[key], bound, rel_tol=1e-9):
            problems.append(f"{key} = {data[key]!r} != 2^(N-1) sqrt(3) = {bound!r}")
    argmax = data["argmax"]
    if len(argmax) != n or any(len(t) != 3 or set(t) - {-1, 1} for t in argmax):
        return problems + [f"argmax {argmax!r} is not {n} sign triples"]
    score = direct_score(n, argmax)
    if not math.isclose(score, bound, rel_tol=1e-9):
        problems.append(f"argmax scores {score!r} by direct sum, bound is {bound!r}")
    return problems


def check_same_batch(generated, loaded) -> list[str]:
    """Arrays read back from a saved batch equal the ones written."""
    problems = []
    for name in ("settings", "outcomes"):
        a, b = getattr(generated, name), getattr(loaded, name)
        if a.shape != b.shape or not np.array_equal(a, b):
            problems.append(f"loaded {name} differ from the generated ones")
    return problems


def check_same_summary(streamed: dict, batch: dict) -> list[str]:
    """Two summaries of one experiment agree field for field, bit for bit."""
    if streamed.keys() != batch.keys():
        return [f"summary fields differ: {sorted(streamed)} vs {sorted(batch)}"]
    return [
        f"summary field {key!r} differs between run_experiment and summarize_batch"
        for key in streamed
        if streamed[key] != batch[key]
    ]


def check_auxiliary_shift(aux_entries, plain_entries, n: int, eta: float, trials: int) -> list[str]:
    """Mean of (auxiliary - plain) entries against (-1)^N (1-eta)^N.

    Per trial the difference is 0 when all stations detect, (-1)^N when none
    does, and a fair sign otherwise, so its variance is
    1 - eta^N - (1-eta)^N^2. Equal counts per combination make the entry mean
    the trial mean.
    """
    p_none = (1.0 - eta) ** n
    expected = (-1) ** n * p_none
    shift = float(np.mean(np.asarray(aux_entries) - np.asarray(plain_entries)))
    sigma = math.sqrt((1.0 - eta ** n - p_none ** 2) / trials)
    z = (shift - expected) / sigma
    if not abs(z) <= Z_REJECT:
        return [f"auxiliary mean shift {shift!r} is {z:+.1f} sigma from {expected!r}"]
    return []
