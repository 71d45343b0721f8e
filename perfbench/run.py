"""Benchmark of ghzbell: one workload, one seed, one run length.

    python3 perfbench/run.py --workload simulate-n3 --seed 1 --seconds 16 --trace 0

Runs from the root of a source checkout; the package is imported from its
``src/``. The workload runs in ``PROCESSES`` fresh single-threaded processes
(``worker.py``), one after the other; each sets up and measures for an equal
share of ``--seconds``, and their measurements are pooled. The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The traced run also writes its per-operation
layer records under ``.perfbench-work/``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench-work"
WORKLOADS = ("simulate-n3", "simulate-n12", "exact-verify", "trials-file")

# Fresh processes per run. Each sets up once and measures for an equal share
# of --seconds, so per-process differences in speed average out and setup_s
# is a median of PROCESSES set-ups.
PROCESSES = 5
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    "setup.import_ms": "ms",
    "experiment.run_experiment_ms": "ms",
    "experiment.trials_per_s": "1/s",
    "experiment.generate_trials_ms": "ms",
    "experiment.summarize_batch_ms": "ms",
    "experiment.blocks": "count",
    "experiment.batch_save_ms": "ms",
    "experiment.batch_load_ms": "ms",
    "experiment.batch_bytes": "bytes",
    "experiment.auxiliary_tensor_ms": "ms",
    "quantum.quantum_tensor_ms": "ms",
    "quantum.setting_phase_classes_ms": "ms",
    "quantum.build_settings_ms": "ms",
    "lhv.max_score_brute_ms": "ms",
    "lhv.max_score_factorized_ms": "ms",
    "lhv.strategy_score_ms": "ms",
    "lhv.strategy_score_calls": "count",
    "thresholds.threshold_table_ms": "ms",
    "thresholds.critical_efficiency_ms": "ms",
    "checks.run_checks_ms": "ms",
    "cli.self_ms": "ms",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_pct": "%",
}

# BLAS threads from numpy's einsum would make timings depend on the core count.
THREAD_PINNING = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchmarkError(Exception):
    pass


def run_worker(args, process: int, seconds: float) -> dict:
    """One fresh worker process; its set-up time is scaled to nominal host speed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_PINNING)
    before = hostspeed.reference_seconds()
    argv = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--process", str(process), "--seconds", repr(seconds),
        "--trace", str(args.trace), "--spawned-at", repr(time.monotonic()),
    ]
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"process {process} exceeded {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"process {process} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    factor = hostspeed.speed_factor(before, result["reference_s"])
    result["setup_s"] *= factor
    result["import_ms"] *= factor
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "ghzbell" / "__init__.py").is_file():
        print(f"perfbench: no ghzbell sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    hostspeed.reference_seconds()  # the first call in a process runs cold
    try:
        runs = [run_worker(args, k, args.seconds / PROCESSES) for k in range(PROCESSES)]
    except BenchmarkError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    def pooled(key):
        return [x for run in runs for x in run[key]]

    def median_of(key):
        return statistics.median(run[key] for run in runs)

    if args.trace:
        values = tracing.layer_metrics(pooled("records"), pooled("traced_times"), pooled("times"))
        values["setup.import_ms"] = median_of("import_ms")
        units = PER_LAYER_UNITS
        WORK_DIR.mkdir(exist_ok=True)
        trace_file = WORK_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(pooled("records")))
    else:
        values = {
            "setup_s": median_of("setup_s"),
            "wall_s": statistics.median(pooled("round_times")),
            "op_p50_ms": statistics.median(pooled("times")) * 1000.0,
            "peak_rss_mb": median_of("peak_rss_mb"),
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    wrong = sum(run["wrong"] for run in runs)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
