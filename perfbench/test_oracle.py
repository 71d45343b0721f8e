"""The benchmark's own checks: each passes ghzbell's output and rejects a wrong one.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import tracing  # noqa: E402

ghzbell = pytest.importorskip("ghzbell")
import ghzbell.cli  # noqa: E402

N, V, ETA, TRIALS = 3, 0.9, 0.95, 108_000


def cli(*argv: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        ghzbell.cli.main(list(argv))
    return buf.getvalue()


def simulate(v: float = V, seed: int = 7, n: int = N, eta: float = ETA, trials: int = TRIALS,
             policy: str = "uniform-random") -> dict:
    config = ghzbell.ExperimentConfig(n, v, eta, trials, seed, policy)
    return ghzbell.run_experiment(config).to_dict()


@pytest.fixture(scope="module")
def summary() -> dict:
    return simulate()


def test_model_cosines_match_the_quantum_tensor():
    for n in (2, 3, 5):
        q = ghzbell.quantum_tensor(ghzbell.build_settings(n)).entries
        assert np.max(np.abs(oracle.model_cosines(n) - q)) < 1e-14


def test_summary_check_passes_the_program(summary):
    assert oracle.check_summary(summary, N, V, ETA, TRIALS) == []
    sparse = simulate(v=0.6, n=5, eta=0.98, trials=2 * 3 ** 5, policy="round-robin")
    assert oracle.check_summary(sparse, 5, 0.6, 0.98, 2 * 3 ** 5) == []


def test_summary_check_rejects_a_tensor_sampled_at_the_wrong_visibility():
    problems = oracle.check_summary(simulate(v=0.8), N, V, ETA, TRIALS)
    assert any(p.startswith("lhs") for p in problems)
    assert any("chi-square" in p for p in problems)


def test_summary_check_rejects_inflated_scatter(summary):
    mu = ETA ** N * V * oracle.model_cosines(N)
    est = np.asarray(summary["estimated_tensor"]["entries"])
    wrong = copy.deepcopy(summary)
    wrong["estimated_tensor"]["entries"] = list(mu + 3.0 * (est - mu))
    assert any("chi-square" in p for p in oracle.check_summary(wrong, N, V, ETA, TRIALS))


def test_summary_check_rejects_a_wrong_all_zero_count(summary):
    wrong = dict(summary, p_all_zero=summary["p_all_zero"] + 40 / TRIALS)
    assert any("all-zero" in p for p in oracle.check_summary(wrong, N, V, ETA, TRIALS))


def test_summary_check_rejects_rhs_off_by_1e_6(summary):
    wrong = dict(summary, rhs=summary["rhs"] + 1e-6)
    assert any(p.startswith("rhs") for p in oracle.check_summary(wrong, N, V, ETA, TRIALS))


def test_summary_check_rejects_a_flipped_verdict(summary):
    wrong = dict(summary, violated=not summary["violated"])
    assert any(p.startswith("violated") for p in oracle.check_summary(wrong, N, V, ETA, TRIALS))


def test_verify_check():
    assert oracle.check_verify(json.loads(cli("verify", "--n-max", "3", "--format", "json"))) == []
    faulty = json.loads(cli("verify", "--n-max", "3", "--format", "json", "--inject-fault"))
    assert oracle.check_verify(faulty)
    report = json.loads(cli("verify", "--n-max", "3", "--format", "json"))
    report["checks"][4]["passed"] = False
    assert oracle.check_verify(report)


def test_thresholds_check_rejects_values_off_by_1e_6():
    text = cli("thresholds", "--n-max", "40", "--format", "csv")
    assert oracle.check_thresholds_csv(text, 40) == []
    lines = text.splitlines()
    for row, column in ((1, 3), (7, 1), (39, 2)):
        fields = lines[row].split(",")
        value = float(fields[column])
        fields[column] = repr(value + 1e-6 if column == 3 else value * (1 + 1e-6))
        wrong = "\n".join(lines[:row] + [",".join(fields)] + lines[row + 1:]) + "\n"
        assert oracle.check_thresholds_csv(wrong, 40), (row, column)
    assert oracle.check_thresholds_csv("\n".join(lines[:-1]) + "\n", 40)
    assert oracle.check_thresholds_csv(text.replace("eta_cr", "eta"), 40)


def test_bound_check_scores_the_argmax_directly():
    data = json.loads(cli("bound", "--n", "4"))
    assert oracle.check_bound(data, 4) == []
    wrong = copy.deepcopy(data)
    wrong["argmax"][2] = [1, -1, 1]  # this party's three phasors sum to 0, so the score is 0
    assert any("argmax scores" in p for p in oracle.check_bound(wrong, 4))
    assert oracle.check_bound(dict(data, max_s=data["max_s"] * (1 + 1e-6)), 4)
    assert math.isclose(oracle.direct_score(4, data["argmax"]), oracle.lhv_bound(4), rel_tol=1e-12)


def test_batch_checks_reject_one_flipped_outcome(tmp_path):
    config = ghzbell.ExperimentConfig(4, 0.9, 0.5, 400 * 81, 11)
    batch = ghzbell.generate_trials(config)
    path = tmp_path / "trials.txt"
    batch.save(path)
    loaded = ghzbell.TrialBatch.load(path)
    assert oracle.check_same_batch(batch, loaded) == []
    streamed = ghzbell.run_experiment(config).to_dict()
    assert oracle.check_same_summary(streamed, ghzbell.summarize_batch(loaded, config).to_dict()) == []

    outcomes = loaded.outcomes.copy()
    row = int(np.flatnonzero((outcomes != 0).all(axis=1))[0])
    outcomes[row, 0] *= -1
    flipped = ghzbell.TrialBatch(settings=loaded.settings, outcomes=outcomes)
    assert oracle.check_same_batch(batch, flipped)
    assert oracle.check_same_summary(streamed, ghzbell.summarize_batch(flipped, config).to_dict())


def test_auxiliary_shift_check():
    n, eta, trials = 4, 0.5, 400 * 81
    config = ghzbell.ExperimentConfig(n, 0.9, eta, trials, 12)
    batch = ghzbell.generate_trials(config)
    plain = ghzbell.summarize_batch(batch, config).estimated_tensor.entries
    aux = ghzbell.auxiliary_tensor(batch, config).entries
    assert oracle.check_auxiliary_shift(aux, plain, n, eta, trials) == []
    assert oracle.check_auxiliary_shift(plain, plain, n, eta, trials)


def test_binomial_tail():
    assert oracle._binomial_two_sided_p(0, 10, 0.5) == pytest.approx(2 / 1024)
    assert oracle._binomial_two_sided_p(10, 10, 0.5) == pytest.approx(2 / 1024)
    assert oracle._binomial_two_sided_p(0, 10 ** 6, 1e-20) == 1.0
    assert oracle._binomial_two_sided_p(1, 10, 0.0) == 0.0


def test_tracer_splits_self_time_and_restores_the_package():
    original = ghzbell.cli.main
    tracer = tracing.Tracer()
    with tracer.record() as record:
        cli("bound", "--n", "3")
    assert ghzbell.cli.main is original
    assert record["cli.main.calls"] == 1 and record["lhv.max_score_brute.calls"] == 1
    assert 0.0 < record["cli.main.self"] < record["cli.main.incl"]
    assert record["cli.main.incl"] >= record["lhv.max_score_brute.incl"]
