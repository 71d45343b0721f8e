"""The public API: exactly these names, each importable, at one version.

Adding or removing a public name is a deliberate change that edits this list.
README.md names what 0.2.0, 0.3.0, 0.4.0 and 0.5.0 removed and what to use instead,
and its Library example runs here as written.
"""

import re
from pathlib import Path

import ghzbell

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
    "SettingsGrid",
    "SweepPoint",
    "ThresholdRow",
    "TrialBatch",
    "UNIFORM_RANDOM",
    "auxiliary_tensor",
    "bound_attaining_strategy",
    "build_settings",
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
    assert len(PUBLIC_NAMES) == 40
    assert sorted(ghzbell.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(ghzbell, name) is not None


def test_version_matches_the_project_metadata():
    pyproject = (ROOT / "pyproject.toml").read_text()
    (version,) = re.findall(r'^version = "([^"]+)"$', pyproject, flags=re.M)
    assert ghzbell.__version__ == version == "0.6.0"


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    (code,) = re.findall(r"^```python\n(.*?)^```$", section.split("\n## ", 1)[0], flags=re.M | re.S)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("0.5132")
