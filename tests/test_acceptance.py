"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as they
pass; without ``-s`` pytest shows them only on failure. Statistical criteria
use fixed seeds and 4 sigma windows, so every run is deterministic.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

from ghzbell import (
    ExperimentConfig,
    auxiliary_tensor,
    critical_efficiency,
    critical_visibility,
    efficiency_closed_form,
    entry_sum_closed_form,
    generate_trials,
    lhv_bound,
    max_score_brute,
    max_score_factorized,
    percent_string,
    quantum_tensor,
    run_experiment,
    summarize_batch,
    two_setting_visibility_threshold,
    violation_factor,
)
from ghzbell.lhv import _triple_scores

SQRT3 = math.sqrt(3.0)


def _quantum_entries(n: int) -> np.ndarray:
    return quantum_tensor(n).entries


def _criterion(number: int, name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number:02d} {name}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_norm_identity():
    start = time.perf_counter()
    worst = max(
        abs(np.dot(_quantum_entries(n), _quantum_entries(n)) - 3.0 ** n / 2.0)
        for n in range(2, 11)
    )
    elapsed = time.perf_counter() - start
    _criterion(
        1,
        "norm identity (Q,Q) = 3^N/2, N = 2..10",
        worst < 1e-9 and elapsed < 1.0,
        f"worst |error| = {worst:.3e} (tol 1e-9), elapsed {elapsed:.3f} s (< 1 s)",
    )


def test_criterion_02_entry_sum_identity():
    worst = max(
        abs(np.sum(_quantum_entries(n)) - entry_sum_closed_form(n))
        for n in range(2, 11)
    )
    zero_exact = all(entry_sum_closed_form(n) == 0.0 for n in (4, 7, 10))
    zero_direct = max(abs(np.sum(_quantum_entries(n))) for n in (4, 7, 10))
    _criterion(
        2,
        "entry sum = -2^N sin((N-1)pi/3), N = 2..10",
        worst < 1e-9 and zero_exact and zero_direct < 1e-9,
        f"worst |error| = {worst:.3e} (tol 1e-9), "
        f"exact zero at N = 4, 7, 10: {zero_exact}",
    )


def test_criterion_03_bound_tightness_brute():
    worst_core = max(abs(max_score_brute(n)[0] - lhv_bound(n)) for n in range(2, 7))
    start = time.perf_counter()
    worst_large = max(abs(max_score_brute(n)[0] - lhv_bound(n)) for n in (7, 8))
    elapsed = time.perf_counter() - start
    _criterion(
        3,
        "exhaustive max over 8^N strategies = 2^(N-1) sqrt(3)",
        worst_core < 1e-9 and worst_large < 1e-9 and elapsed < 60.0,
        f"worst |error| N=2..6: {worst_core:.3e}, N=7..8: {worst_large:.3e} "
        f"(tol 1e-9), N=7..8 elapsed {elapsed:.2f} s (< 60 s)",
    )


def test_criterion_04_oracle_equivalence():
    agree = all(
        round(max_score_brute(n)[0], 9) == round(max_score_factorized(n), 9)
        for n in range(2, 7)
    )
    _criterion(
        4,
        "factorized maximum = brute-force maximum, N = 2..6",
        agree,
        "bit-level agreement after rounding to 1e-9"
        if agree
        else "routes disagree after rounding to 1e-9",
    )


def test_criterion_05_violation_factor():
    worst = max(
        abs(
            np.dot(_quantum_entries(n), _quantum_entries(n)) / lhv_bound(n)
            - violation_factor(n)
        )
        for n in range(2, 11)
    )
    _criterion(
        5,
        "(Q,Q)/bound = (3/2)^N/sqrt(3), N = 2..10",
        worst < 1e-12,
        f"worst |error| = {worst:.3e} (tol 1e-12)",
    )


def test_criterion_06_visibility_threshold_table():
    new_expected = {3: "51.3", 4: "34.2", 5: "22.8", 10: "3.0"}
    old_expected = {2: "70.7", 3: "50.0", 4: "35.4", 5: "25.0", 10: "4.4"}
    new_got = {n: percent_string(critical_visibility(n)) for n in new_expected}
    old_got = {n: percent_string(two_setting_visibility_threshold(n)) for n in old_expected}
    # The N = 2 value from the formula sqrt(3) (2/3)^N is 77.0%, not the
    # sometimes-quoted 77.8%; acceptance pins the formula value.
    n2 = percent_string(critical_visibility(2))
    ok = new_got == new_expected and old_got == old_expected and n2 == "77.0"
    _criterion(
        6,
        "visibility threshold table (percent, 1 decimal)",
        ok,
        f"new {new_got}, old {old_got}, N=2 new = {n2} (expected 77.0)",
    )


def test_criterion_07_critical_efficiencies():
    expected = {2: "87.0", 3: "79.8", 4: "76.5", 5: "74.4"}
    got = {n: percent_string(critical_efficiency(n)) for n in expected}
    closed_diff = abs(critical_efficiency(4) - efficiency_closed_form(4))
    eta40 = critical_efficiency(40)
    ok = got == expected and closed_diff < 1e-12 and 0.6667 < eta40 < 0.68
    _criterion(
        7,
        "critical efficiencies 87.0/79.8/76.5/74.4 %, closed form at N = 4",
        ok,
        f"got {got}, |bisection - closed form|(N=4) = {closed_diff:.3e} "
        f"(tol 1e-12), eta_cr(40) = {eta40:.6f} in (0.6667, 0.68)",
    )


def _folded_scores(q) -> np.ndarray:
    """Scores against ``q`` (N = 3) of all 27^3 three-outcome strategies, zeros folded to -1."""
    folded = np.asarray(list(itertools.product((-1, 0, 1), repeat=3)), dtype=np.float64)
    folded[folded == 0] = -1.0
    return _triple_scores(q, folded)


def test_criterion_08_three_outcome_folding():
    scores = _folded_scores(quantum_tensor(3))
    bound = lhv_bound(3)
    worst = float(scores.max())
    violations = int((scores > bound + 1e-9).sum())
    _criterion(
        8,
        "all 27^3 folded three-outcome strategies stay below 4 sqrt(3)",
        scores.size == 27 ** 3 and violations == 0,
        f"max folded score = {worst:.12f} vs bound {bound:.12f} over "
        f"{scores.size} strategies, violations = {violations}",
    )


def test_criterion_09_simulation_statistics():
    # Leg 1: N = 3, eta = 1, V = 1, 2.7e6 trials: lhs near (Q,Q) = 13.5.
    start = time.perf_counter()
    full = run_experiment(
        ExperimentConfig(
            n_parties=3, visibility=1.0, efficiency=1.0, trials=2_700_000, seed=901
        )
    )
    t_full = time.perf_counter() - start
    dev = abs(full.lhs - 13.5)
    leg1 = dev < 4 * full.standard_error_lhs and full.violated and t_full < 120.0

    # Leg 2: V = 0.40 sits below the 51.3 % threshold: no violation.
    start = time.perf_counter()
    weak = run_experiment(
        ExperimentConfig(
            n_parties=3, visibility=0.40, efficiency=1.0, trials=2_700_000, seed=902
        )
    )
    t_weak = time.perf_counter() - start
    leg2 = not weak.violated and t_weak < 120.0

    # Leg 3: N = 2, eta = 0.8: p_all_zero near 0.04 and the fold-to-(-1)
    # estimator offset near +0.04.
    config = ExperimentConfig(
        n_parties=2, visibility=1.0, efficiency=0.8, trials=1_000_008, seed=903
    )
    start = time.perf_counter()
    batch = generate_trials(config)
    summary = summarize_batch(batch, config)
    t_lossy = time.perf_counter() - start
    p_true = 0.04
    p_sigma = math.sqrt(p_true * (1 - p_true) / config.trials)
    p_dev = abs(summary.p_all_zero - p_true)

    plain_prod = batch.outcomes.astype(np.int64).prod(axis=1).astype(np.float64)
    folded_prod = (
        np.where(batch.outcomes == 0, -1, batch.outcomes)
        .astype(np.int64)
        .prod(axis=1)
        .astype(np.float64)
    )
    diff = folded_prod - plain_prod
    place = np.array([3, 1], dtype=np.int64)
    combos = ((batch.settings.astype(np.int64) - 1) * place).sum(axis=1)
    per_combo_mean = np.array([diff[combos == c].mean() for c in range(9)])
    per_combo_se = np.array(
        [
            diff[combos == c].std(ddof=1) / math.sqrt((combos == c).sum())
            for c in range(9)
        ]
    )
    aux_entries = auxiliary_tensor(batch, config).entries
    plain_entries = summary.estimated_tensor.entries
    assert np.allclose(aux_entries - plain_entries, per_combo_mean, atol=1e-12)
    offset = per_combo_mean.mean()
    offset_se = math.sqrt(float(np.sum(per_combo_se ** 2))) / 9.0
    offset_dev = abs(offset - 0.04)
    leg3 = p_dev < 4 * p_sigma and offset_dev < 4 * offset_se and t_lossy < 120.0

    _criterion(
        9,
        "simulation statistics at 2.7e6 and 1.0e6 trials",
        leg1 and leg2 and leg3,
        f"|lhs-13.5| = {dev:.4f} < 4 sigma = {4 * full.standard_error_lhs:.4f}, "
        f"violated = {full.violated}; V=0.40 violated = {weak.violated}; "
        f"|p0-0.04| = {p_dev:.2e} < {4 * p_sigma:.2e}, "
        f"|offset-0.04| = {offset_dev:.2e} < {4 * offset_se:.2e}; "
        f"runtimes {t_full:.1f}/{t_weak:.1f}/{t_lossy:.1f} s (< 120 s each)",
    )


def test_criterion_10_worker_determinism():
    base = [
        sys.executable, "-m", "ghzbell", "simulate",
        "--n", "3", "--v", "0.9", "--eta", "0.85",
        "--trials", "135027", "--seed", "42",
    ]
    env = dict(os.environ)
    env.pop("GHZBELL_SEED", None)
    one = subprocess.run(base + ["--workers", "1"], capture_output=True, env=env)
    eight = subprocess.run(base + ["--workers", "8"], capture_output=True, env=env)
    identical = (
        one.returncode == 0
        and eight.returncode == 0
        and one.stdout == eight.stdout
    )
    payload = json.loads(one.stdout) if identical else {}
    _criterion(
        10,
        "simulate --workers 1 vs --workers 8 byte-identical JSON",
        identical,
        f"stdout bytes equal = {one.stdout == eight.stdout}, "
        f"exit codes = ({one.returncode}, {eight.returncode}), "
        f"lhs = {payload.get('lhs')!r}",
    )
