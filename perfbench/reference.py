"""One-time reference figures, set beside the ROADMAP north-star numbers.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python3 perfbench/reference.py

Each figure is the best of a few repetitions, as the ROADMAP baseline was.
These are not benchmark metrics: they are not scaled to nominal host speed,
have no bound and no workload, and are recorded once in README.md.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import ghzbell
import hostspeed

ROOT = Path(__file__).resolve().parent.parent


def best_of(repeats: int, fn) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def trials_per_s(n: int, trials: int, workers: int = 1) -> float:
    config = ghzbell.ExperimentConfig(n, 1.0, 1.0, trials, 1)
    ghzbell.run_experiment(config, workers=workers)
    return trials / best_of(3, lambda: ghzbell.run_experiment(config, workers=workers))


def cli_cold_start_s() -> float:
    argv = [sys.executable, "-m", "ghzbell", "bound", "--n", "2"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return best_of(5, lambda: subprocess.run(argv, env=env, cwd=ROOT, check=True,
                                             stdout=subprocess.DEVNULL))


def main() -> int:
    n3 = trials_per_s(3, 2_700_000)
    figures = {
        "trials_per_s_n3": n3,
        "trials_per_s_n12": trials_per_s(12, 2 * 3 ** 12),
        "workers2_speedup_n3": trials_per_s(3, 2_700_000, workers=2) / n3,
        "cli_cold_start_s": cli_cold_start_s(),
        "max_score_brute_8_s": best_of(3, lambda: ghzbell.max_score_brute(8)),
        "cpus": os.cpu_count(),
        # Host speed at the time; the benchmark's nominal speed is hostspeed.REFERENCE_S.
        "reference_work_s": best_of(5, hostspeed.reference_seconds),
    }
    print(json.dumps(figures, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
