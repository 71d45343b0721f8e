"""The committed before/after perf records, ``BENCH_*.json`` at the repo root.

A perf claim counts only with such a record, so each one is checked here as
data: the shared schema, correct outputs with no failed operation on either
side, the claimed metric lower on every seed, and both commit ids present in
the history when a full clone is at hand.
"""

import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))

TOP_KEYS = {"what", "parent_commit", "change_commit", "command", "method", "host", "claim"}
WORKLOAD_KEYS = {"pairs", "correct", "attempted", "failed", "metrics"}
METRIC_KEYS = {"unit", "parent_median", "change_median", "parent_iqr", "pairs_won"}
SIDES = {"parent", "change"}


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _seeds(record: dict) -> dict:
    return {key: value for key, value in record.items() if key.startswith("seed_")}


def _full_history() -> bool:
    """True when the repo root holds a ``.git`` with its whole history, not a shallow one."""
    if not (ROOT / ".git").exists():
        return False
    try:
        res = subprocess.run(
            ["git", "rev-parse", "--is-shallow-repository"],
            cwd=ROOT, capture_output=True, text=True,
        )
    except OSError:
        return False
    return res.returncode == 0 and res.stdout.strip() == "false"


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_schema(path):
    record = _load(path)
    assert TOP_KEYS <= set(record)
    assert set(record["claim"]) == {"workload", "metric"}
    seeds = _seeds(record)
    assert seeds and set(record) == TOP_KEYS | set(seeds)
    for workloads in seeds.values():
        assert workloads
        for run in workloads.values():
            assert set(run) == WORKLOAD_KEYS
            assert set(run["attempted"]) == SIDES and set(run["failed"]) == SIDES
            assert run["pairs"] >= 1
            for metric in run["metrics"].values():
                assert set(metric) == METRIC_KEYS
                assert 0 <= metric["pairs_won"] <= run["pairs"]


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_outputs_correct_and_no_operation_failed(path):
    for workloads in _seeds(_load(path)).values():
        for run in workloads.values():
            assert run["correct"] is True
            assert run["failed"] == {"parent": 0, "change": 0}


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_claimed_metric_is_lower_on_every_seed(path):
    record = _load(path)
    workload, metric = record["claim"]["workload"], record["claim"]["metric"]
    for workloads in _seeds(record).values():
        claimed = workloads[workload]["metrics"][metric]
        assert claimed["change_median"] < claimed["parent_median"]


@pytest.mark.skipif(not _full_history(), reason="needs the repo's .git with full history")
@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_commit_ids_resolve(path):
    record = _load(path)
    for key in ("parent_commit", "change_commit"):
        res = subprocess.run(
            ["git", "cat-file", "-e", f"{record[key]}^{{commit}}"], cwd=ROOT, capture_output=True
        )
        assert res.returncode == 0, f"{key} {record[key]} is not a commit in this history"
