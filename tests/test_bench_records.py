"""The committed before/after perf records, ``BENCH_*.json`` at the repo root.

A perf claim counts only with such a record, so each one is checked here as
data: the shared schema, correct outputs with no failed operation on either
side, the claimed metric lower on every seed, and both commit ids present in
the history when a full clone is at hand. A record whose ``claim`` is null
claims no gain; it must instead show every end-to-end metric of
``BENCHMARK.json`` within that metric's bound on every workload and seed.
A metric may also carry its raw per-pair values as ``parent`` and ``change``
lists, one value per pair, whose medians must agree with the stated ones.
"""

import json
import statistics
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))

TOP_KEYS = {"what", "parent_commit", "change_commit", "command", "method", "host", "claim"}
WORKLOAD_KEYS = {"pairs", "correct", "attempted", "failed", "metrics"}
METRIC_KEYS = {"unit", "parent_median", "change_median", "parent_iqr", "pairs_won"}
SIDES = {"parent", "change"}
# Medians are stored rounded to 4 decimals, as are the raw per-pair values.
MEDIAN_ROUNDING = 1e-4


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


def _bounds() -> dict:
    """Each end-to-end metric's allowed relative regression, from ``BENCHMARK.json``."""
    spec = _load(ROOT / "BENCHMARK.json")
    return {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_schema(path):
    record = _load(path)
    assert TOP_KEYS <= set(record)
    assert record["claim"] is None or set(record["claim"]) == {"workload", "metric"}
    seeds = _seeds(record)
    assert seeds and set(record) == TOP_KEYS | set(seeds)
    for workloads in seeds.values():
        assert workloads
        for run in workloads.values():
            assert set(run) == WORKLOAD_KEYS
            assert set(run["attempted"]) == SIDES and set(run["failed"]) == SIDES
            assert run["pairs"] >= 1
            for metric in run["metrics"].values():
                assert METRIC_KEYS <= set(metric) <= METRIC_KEYS | SIDES
                assert 0 <= metric["pairs_won"] <= run["pairs"]
                for side in SIDES & set(metric):
                    assert len(metric[side]) == run["pairs"]
                    assert statistics.median(metric[side]) == pytest.approx(
                        metric[f"{side}_median"], abs=MEDIAN_ROUNDING
                    )


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_outputs_correct_and_no_operation_failed(path):
    for workloads in _seeds(_load(path)).values():
        for run in workloads.values():
            assert run["correct"] is True
            assert run["failed"] == {"parent": 0, "change": 0}


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_claimed_metric_is_lower_on_every_seed(path):
    record = _load(path)
    if record["claim"] is None:
        bounds = _bounds()
        for workloads in _seeds(record).values():
            for run in workloads.values():
                assert set(bounds) <= set(run["metrics"])
                for name, bound in bounds.items():
                    metric = run["metrics"][name]
                    assert metric["change_median"] <= metric["parent_median"] * (1 + bound)
        return
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
