"""The public API: exactly these names, each importable, at one version.

Adding or removing a public name is a deliberate change that edits this list.
CHANGES.md names what each release removed and what to use instead. The
README's Library example and its Command line examples run here as written.

The input contract: every public callable that takes a count, index, seed,
worker count or rate has a row in CONTRACT naming the field each such argument maps
to; every other callable says why it takes none. A value of the wrong type is
a _FieldError naming that field, and a numpy scalar gives the result of its
plain value bit for bit, down to the Python type of every stored number.
"""

import dataclasses
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import ghzbell
from ghzbell import (
    CorrelationTensor,
    ExperimentConfig,
    bound_attaining_strategy,
    critical_efficiency,
    critical_visibility,
    efficiency_closed_form,
    entry_sum_closed_form,
    generate_trials,
    lhv_bound,
    max_score_brute,
    max_score_factorized,
    party_phasor,
    quantum_tensor,
    run_checks,
    run_experiment,
    setting_phase_classes,
    threshold_table,
    two_setting_visibility_threshold,
    violation_factor,
    visibility_sweep,
)
from ghzbell.cli import main
from ghzbell.quantum import _FieldError

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = [
    "BLOCK_TRIALS",
    "CSV_HEADER",
    "CheckResult",
    "CorrelationTensor",
    "DeterministicStrategy",
    "ExperimentConfig",
    "ExperimentSummary",
    "PartyPhasor",
    "ROUND_ROBIN",
    "SETTING_POLICIES",
    "SIGN_TRIPLES",
    "SweepPoint",
    "ThresholdRow",
    "TrialBatch",
    "UNIFORM_RANDOM",
    "auxiliary_tensor",
    "bound_attaining_strategy",
    "critical_efficiency",
    "critical_visibility",
    "efficiency_closed_form",
    "entry_sum_closed_form",
    "generate_trials",
    "lhv_bound",
    "max_score_brute",
    "max_score_factorized",
    "party_phasor",
    "percent_string",
    "quantum_tensor",
    "render_table_csv",
    "run_checks",
    "run_experiment",
    "setting_phase_classes",
    "strategy_score",
    "summarize_batch",
    "threshold_table",
    "two_setting_visibility_threshold",
    "violation_factor",
    "visibility_sweep",
]


def test_public_names_are_pinned_and_resolve():
    assert len(PUBLIC_NAMES) == 38
    assert sorted(ghzbell.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(ghzbell, name) is not None


def test_version_matches_the_project_metadata():
    pyproject = (ROOT / "pyproject.toml").read_text()
    (version,) = re.findall(r'^version = "([^"]+)"$', pyproject, flags=re.M)
    assert ghzbell.__version__ == version == "0.10.0"


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    (code,) = re.findall(r"^```python\n(.*?)^```$", section.split("\n## ", 1)[0], flags=re.M | re.S)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("0.5132")


def test_readme_command_examples_run(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"^```sh\n(.*?)^```$", section, flags=re.M | re.S)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("ghzbell ")]
    assert len(commands) == 8
    for argv in commands:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 0, argv
        capsys.readouterr()


ALL_N = range(2, 647)
CONFIG = ExperimentConfig(3, 0.93, 0.93, 27, seed=1)
RATES = ("visibility", "efficiency")

# Callable -> [(field, plain values, call with that one argument varied)].
CONTRACT = {
    "CorrelationTensor": [("n_parties", [3], lambda n: CorrelationTensor(n, np.zeros(27)))],
    "quantum_tensor": [("n_parties", [2, 5], quantum_tensor)],
    "setting_phase_classes": [("n_parties", [3], setting_phase_classes)],
    "entry_sum_closed_form": [("n_parties", ALL_N, entry_sum_closed_form)],
    "lhv_bound": [("n_parties", ALL_N, lhv_bound)],
    "violation_factor": [("n_parties", ALL_N, violation_factor)],
    "bound_attaining_strategy": [("n_parties", [2, 5, 646], bound_attaining_strategy)],
    "party_phasor": [
        ("party", [0, 2], lambda k: party_phasor((1, 1, -1), k, 3)),
        ("n_parties", [2, 3], lambda n: party_phasor((1, 1, -1), 1, n)),
    ],
    "max_score_brute": [("n_parties", [3], max_score_brute)],
    "max_score_factorized": [("n_parties", ALL_N, max_score_factorized)],
    "two_setting_visibility_threshold": [("n_parties", ALL_N, two_setting_visibility_threshold)],
    "critical_visibility": [
        ("n_parties", ALL_N, lambda n: critical_visibility(n, 0.93)),
        ("efficiency", [0.5, 0.93, 1.0], lambda eta: [critical_visibility(n, eta) for n in ALL_N]),
    ],
    "critical_efficiency": [
        ("n_parties", ALL_N, critical_efficiency),
        ("n_parties", [5], lambda n: critical_efficiency([2, n])),
    ],
    "efficiency_closed_form": [("n_parties", range(4, 647, 3), efficiency_closed_form)],
    "threshold_table": [("n_parties", [5, 646], threshold_table)],
    "run_checks": [("n_parties", [3], run_checks)],
    "ExperimentConfig": [
        ("n_parties", [3], lambda n: ExperimentConfig(n, 0.93, 0.93, 27, seed=1)),
        ("visibility", [0.93], lambda v: ExperimentConfig(3, v, 0.93, 27, seed=1)),
        ("efficiency", [0.93], lambda eta: ExperimentConfig(3, 0.93, eta, 27, seed=1)),
        ("trials", [27], lambda trials: ExperimentConfig(3, 0.93, 0.93, trials, seed=1)),
        ("seed", [1, 2 ** 63 - 1], lambda seed: ExperimentConfig(3, 0.93, 0.93, 27, seed)),
    ],
    "generate_trials": [("workers", [1, 2], lambda w: generate_trials(CONFIG, workers=w))],
    "run_experiment": [("workers", [1, 2], lambda w: run_experiment(CONFIG, workers=w))],
    "visibility_sweep": [
        ("n_parties", [3], lambda n: visibility_sweep(n, 0.93, [0.93], 27, seed=1)),
        ("efficiency", [0.93], lambda eta: visibility_sweep(3, eta, [0.93], 27, seed=1)),
        ("visibility", [0.93], lambda v: visibility_sweep(3, 0.93, [0.5, v], 27, seed=1)),
        ("trials", [27], lambda trials: visibility_sweep(3, 0.93, [0.93], trials, seed=1)),
        ("seed", [1], lambda seed: visibility_sweep(3, 0.93, [0.93], 27, seed)),
        ("workers", [1], lambda w: visibility_sweep(3, 0.93, [0.93], 27, seed=1, workers=w)),
    ],
}

TAKES_NO_COUNT_OR_RATE = {
    "CheckResult": "a check's name, verdict and detail",
    "DeterministicStrategy": "its party count is the length of its sign triples",
    "ExperimentSummary": "built from a checked config's statistics",
    "PartyPhasor": "an exact magnitude and phase class, each checked against its set",
    "SweepPoint": "built from a checked config's summary",
    "ThresholdRow": "built from threshold_table's checked values",
    "TrialBatch": "trial arrays, range-checked as arrays; their width takes the party rule",
    "auxiliary_tensor": "its counts come in through its ExperimentConfig",
    "summarize_batch": "its counts come in through its ExperimentConfig",
    "strategy_score": "a strategy and a tensor, each checked when built",
    "render_table_csv": "threshold_table's rows",
    "percent_string": "formats any real number, not a rate (numpy floats: test_thresholds.py)",
}

CASES = [
    pytest.param(call, field, values, id=f"{name}-{field}-{i}")
    for name, rows in CONTRACT.items()
    for i, (field, values, call) in enumerate(rows)
]


def _same(a, b):
    """Equal bit for bit, with the same type at every level."""
    assert type(a) is type(b), (a, b)
    if isinstance(a, float):
        assert a.hex() == b.hex()
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _same(x, y)
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            _same(getattr(a, f.name), getattr(b, f.name))
    else:
        assert a == b


def test_every_public_callable_has_a_contract_row_or_takes_no_count_or_rate():
    callables = {name for name in ghzbell.__all__ if callable(getattr(ghzbell, name))}
    assert not CONTRACT.keys() & TAKES_NO_COUNT_OR_RATE.keys()
    assert CONTRACT.keys() | TAKES_NO_COUNT_OR_RATE.keys() == callables


@pytest.mark.parametrize("call, field, values", CASES)
def test_a_value_of_the_wrong_type_names_its_field(call, field, values):
    for bad in ("0.5", math.nan) if field in RATES else (2.5, "3"):
        with pytest.raises(_FieldError) as info:
            call(bad)
        assert info.value.field == field, bad


@pytest.mark.parametrize("call, field, values", CASES)
def test_numpy_scalars_give_the_plain_values_result(call, field, values):
    types = (np.float64, np.float32) if field in RATES else (np.int64, np.uint64)
    for value in values:
        for typed in (t(value) for t in types):
            _same(call(typed), call(typed.item()))


def test_numpy_built_results_serialize_to_json():
    config = ExperimentConfig(
        np.int64(3), np.float32(0.93), np.float64(0.93), np.int64(27), seed=np.uint64(1)
    )
    quantum_tensor(np.int64(4))  # the cached tensor keeps a plain count
    for obj in (config, run_experiment(config), quantum_tensor(4)):
        json.dumps(obj.to_dict())
