"""Steadiness of the benchmark: repeated runs of the same code, spread per metric.

    python3 perfbench/steady.py --runs 10 --first-seed 1
    python3 perfbench/steady.py --runs 10 --first-seed 101 --compare .perfbench-work/steady-<stamp>.json

Runs ``run.py`` once per seed and workload, seed by seed so that every
workload sees the same stretch of host load, and prints, per workload and
end-to-end metric, the median, the quartiles (``statistics.quantiles`` with
n=4) and the interquartile range as a share of the median. A spread is
flagged when it exceeds a third of the metric's bound in BENCHMARK.json
(``setup_s`` is exempt; it is judged on its median alone). With
``--compare`` it also flags every metric whose median is worse than that of
an earlier set by more than its bound, and failed shares that differ. All
run results are written to ``.perfbench-work/steady-<stamp>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench-work"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=600)
    elapsed = time.monotonic() - start
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: run.py exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = elapsed
    return result


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for metric in metrics:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[metric["name"]] = {"median": median, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / median if median else 0.0}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--compare", type=Path, help="an earlier steady-*.json to compare medians with")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    metrics = spec["end_to_end"]

    runs = {w: [] for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in workloads:
            result = run_once(workload, seed, args.seconds, 0)
            runs[workload].append(result)
            print(f"seed {seed} {workload}: {result['elapsed_s']:.1f} s, "
                  f"{result['attempted']} attempted, {result['failed']} failed", file=sys.stderr)

    earlier = json.loads(args.compare.read_text())["summary"] if args.compare else {}
    summary, flagged = {}, []
    for workload in workloads:
        summary[workload] = summarize(runs[workload], metrics)
        attempted = sum(r["attempted"] for r in runs[workload])
        failed = sum(r["failed"] for r in runs[workload])
        summary[workload]["failed_share"] = failed / attempted
        print(f"{workload}: {attempted} operations, failed share {failed / attempted:.6g}, "
              f"max run {max(r['elapsed_s'] for r in runs[workload]):.1f} s")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            s = summary[workload][name]
            notes, bad = [], False
            if name != "setup_s" and s["spread"] > bound / 3:
                notes.append(f"SPREAD > bound/3 = {bound / 3:.3f}")
                bad = True
            if workload in earlier:
                before = earlier[workload][name]["median"]
                worse = (s["median"] - before) / before
                if metric["better"] == "higher":
                    worse = -worse
                notes.append(f"vs earlier {worse:+.3f}")
                if worse > bound:
                    notes.append("WORSE THAN BOUND")
                    bad = True
            print(f"  {name:12s} median {s['median']:.6g} {metric['unit']:4s} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} {' '.join(notes)}")
            if bad:
                flagged.append((workload, name))
        if workload in earlier and earlier[workload]["failed_share"] != summary[workload]["failed_share"]:
            print(f"  FAILED SHARE differs from earlier: {earlier[workload]['failed_share']}")
            flagged.append((workload, "failed_share"))

    WORK_DIR.mkdir(exist_ok=True)
    out = WORK_DIR / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.write_text(json.dumps({"seconds": args.seconds, "runs": runs, "summary": summary}, indent=1))
    print(f"results in {out.relative_to(ROOT)}; {len(flagged)} flagged")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
