"""One fresh, single-threaded benchmark process for one workload.

Started by ``run.py``; not meant to be run by hand. It imports ghzbell,
builds the inputs, runs one untimed warm-up operation and notes how long
that took since ``--spawned-at``. Then it runs whole rounds of operations
until ``--seconds`` have passed and checks every output with ``oracle``
outside the timed spans. It prints its raw measurements as one JSON line;
``run.py`` pools them over the run's processes.

The program is driven only through its public functions and through
``ghzbell.cli.main`` called in-process with stdout captured. Package
functions are looked up on the module at call time, so the tracer's wrappers
see the benchmark's own calls as well as the package's internal ones.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench-work"

_import_start = time.perf_counter()
import ghzbell  # noqa: E402
import ghzbell.cli  # noqa: E402

IMPORT_MS = (time.perf_counter() - _import_start) * 1000.0

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402


class OperationFailed(Exception):
    """The program refused an operation: an exit status other than 0."""


@dataclass
class Context:
    tracer: tracing.Tracer
    workdir: str


def call_cli(argv: list[str], ctx: Context) -> str:
    """``ghzbell.cli.main(argv)`` with stdout captured; a usage error fails the operation."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = ghzbell.cli.main(argv)
    except SystemExit as exc:
        raise OperationFailed(f"ghzbell {' '.join(argv)}: exit {exc.code}") from None
    text = buf.getvalue()
    ctx.tracer.add("cli.stdout_bytes", len(text))
    if code != 0:
        raise OperationFailed(f"ghzbell {' '.join(argv)}: exit {code}")
    return text


# --- simulate-n3: the trial engine, called as a library -----------------------

N3 = {"n": 3, "v": 0.9, "eta": 0.95, "trials": 270_000}


def n3_make(seed: int):
    return ghzbell.ExperimentConfig(
        n_parties=N3["n"], visibility=N3["v"], efficiency=N3["eta"], trials=N3["trials"],
        seed=seed, setting_policy=ghzbell.UNIFORM_RANDOM,
    )


def n3_run(config, ctx: Context):
    return ghzbell.run_experiment(config, workers=1)


def n3_check(config, summary, ctx: Context) -> list[str]:
    return oracle.check_summary(summary.to_dict(), N3["n"], N3["v"], N3["eta"], N3["trials"])


def sampler_and_reduction(config, ctx: Context) -> None:
    """The engine's two halves on the operation's own config, for the trace."""
    batch = ghzbell.generate_trials(config, workers=1)
    ghzbell.summarize_batch(batch, config)


# --- simulate-n12: the same engine through the CLI, two trials per combination

N12 = {"n": 12, "v": 0.6, "eta": 0.98, "trials": 2 * 3 ** 12}


def n12_make(seed: int):
    return ghzbell.ExperimentConfig(
        n_parties=N12["n"], visibility=N12["v"], efficiency=N12["eta"], trials=N12["trials"],
        seed=seed, setting_policy=ghzbell.ROUND_ROBIN,
    )


def n12_run(config, ctx: Context) -> str:
    return call_cli(
        ["simulate", "--n", str(config.n_parties), "--v", repr(config.visibility),
         "--eta", repr(config.efficiency), "--trials", str(config.trials),
         "--seed", str(config.seed), "--policy", config.setting_policy, "--workers", "1"],
        ctx,
    )


def n12_check(config, text: str, ctx: Context) -> list[str]:
    data = json.loads(text)
    echo = {
        "n_parties": config.n_parties, "visibility": config.visibility,
        "efficiency": config.efficiency, "trials": config.trials,
        "seed": config.seed, "setting_policy": config.setting_policy,
    }
    problems = [] if data["config"] == echo else [f"config echo {data['config']} != {echo}"]
    return problems + oracle.check_summary(data, N12["n"], N12["v"], N12["eta"], N12["trials"])


# --- exact-verify: quantum, lhv, thresholds and checks, no Monte Carlo ---------

VERIFY_N_MAX, THRESHOLDS_N_MAX, BOUND_N = 8, 600, 8


def exact_make(seed: int) -> None:
    return None


def exact_run(_, ctx: Context) -> tuple[str, str, str]:
    return (
        call_cli(["verify", "--n-max", str(VERIFY_N_MAX), "--format", "json"], ctx),
        call_cli(["thresholds", "--n-max", str(THRESHOLDS_N_MAX), "--format", "csv"], ctx),
        call_cli(["bound", "--n", str(BOUND_N)], ctx),
    )


def exact_check(_, texts, ctx: Context) -> list[str]:
    verify, thresholds, bound = texts
    return (
        oracle.check_verify(json.loads(verify))
        + oracle.check_thresholds_csv(thresholds, THRESHOLDS_N_MAX)
        + oracle.check_bound(json.loads(bound), BOUND_N)
    )


# --- trials-file: generate, save, load, summarize, auxiliary estimator --------

TF = {"n": 4, "v": 0.9, "eta": 0.5, "trials": 400 * 3 ** 4}


def tf_make(seed: int):
    return ghzbell.ExperimentConfig(
        n_parties=TF["n"], visibility=TF["v"], efficiency=TF["eta"], trials=TF["trials"],
        seed=seed, setting_policy=ghzbell.ROUND_ROBIN,
    )


def tf_run(config, ctx: Context):
    batch = ghzbell.generate_trials(config, workers=1)
    path = os.path.join(ctx.workdir, "trials.txt")
    batch.save(path)
    loaded = ghzbell.TrialBatch.load(path)
    summary = ghzbell.summarize_batch(loaded, config)
    aux = ghzbell.auxiliary_tensor(loaded, config)
    return batch, loaded, summary, aux


def tf_check(config, out, ctx: Context) -> list[str]:
    batch, loaded, summary, aux = out
    streamed = ghzbell.run_experiment(config, workers=1).to_dict()
    plain = summary.to_dict()
    return (
        oracle.check_same_batch(batch, loaded)
        + oracle.check_same_summary(streamed, plain)
        + oracle.check_summary(plain, TF["n"], TF["v"], TF["eta"], TF["trials"])
        + oracle.check_auxiliary_shift(
            aux.entries, summary.estimated_tensor.entries, TF["n"], TF["eta"], TF["trials"]
        )
    )


@dataclass(frozen=True)
class Workload:
    """A round is ``round_size`` operations of one size with distinct seeds."""

    round_size: int
    make: Callable
    run: Callable
    check: Callable
    extra: Callable | None = None


WORKLOADS = {
    "simulate-n3": Workload(5, n3_make, n3_run, n3_check, sampler_and_reduction),
    "simulate-n12": Workload(1, n12_make, n12_run, n12_check, sampler_and_reduction),
    "exact-verify": Workload(1, exact_make, exact_run, exact_check),
    "trials-file": Workload(2, tf_make, tf_run, tf_check),
}


def derive_seed(workload: str, seed: int, *path) -> int:
    """63-bit operation seed from the workload seed and the operation's place."""
    text = ":".join(str(x) for x in (workload, seed, *path))
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big") >> 1


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MiB.

    Taken after import and one operation, before the benchmark's reference
    work and output checks add to it. ``VmHWM`` belongs to this process's own
    address space; ``ru_maxrss`` would also count the parent's memory at the
    time it started this process.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _scaled(record: dict, factor: float) -> dict:
    """A trace record with its span times scaled to nominal host speed."""
    return {k: v * factor if k.endswith((".self", ".incl")) else v for k, v in record.items()}


def measure(name: str, seed: int, process: int, seconds: float, trace: bool, ctx: Context) -> dict:
    """Whole rounds of operations until ``seconds`` have passed.

    Each operation's time is scaled to nominal host speed by reference work
    timed right before and right after it (see hostspeed.py); the work after
    one operation serves as the work before the next. Traced runs alternate
    traced and untraced operations, so that both see the same host and their
    ratio is the tracing overhead.
    """
    workload = WORKLOADS[name]
    times, traced_times, round_times, records = [], [], [], []
    attempted = failed = wrong = 0
    start = time.monotonic()
    rounds = 0
    reference = hostspeed.reference_seconds()
    while rounds == 0 or attempted < (2 if trace else 1) or time.monotonic() - start < seconds:
        round_time = 0.0
        for index in range(workload.round_size):
            op = workload.make(derive_seed(name, seed, process, rounds, index))
            traced = trace and attempted % 2 == 1
            attempted += 1
            op_rec = extra_rec = {}
            begin = time.perf_counter()
            try:
                with ctx.tracer.record() if traced else contextlib.nullcontext({}) as op_rec:
                    begin = time.perf_counter()  # after the tracer's wrappers are in place
                    out = workload.run(op, ctx)
                    elapsed = time.perf_counter() - begin
            except Exception as exc:  # the run goes on; the operation counts as failed
                elapsed = time.perf_counter() - begin
                failed += 1
                print(f"perfbench: {name} operation failed: {exc!r}", file=sys.stderr)
                out = None
            before, reference = reference, hostspeed.reference_seconds()
            factor = hostspeed.speed_factor(before, reference)
            (traced_times if traced else times).append(elapsed * factor)
            round_time += elapsed * factor
            if out is None:
                continue
            if traced and workload.extra is not None:
                with ctx.tracer.record() as extra_rec:
                    workload.extra(op, ctx)
            if traced:
                records.append((_scaled(op_rec, factor), _scaled(extra_rec, factor)))
            problems = workload.check(op, out, ctx)
            if problems:
                failed += 1
                wrong += 1
                print(f"perfbench: {name} wrong output: {'; '.join(problems)}", file=sys.stderr)
        round_times.append(round_time)
        rounds += 1
    return {
        "attempted": attempted, "failed": failed, "wrong": wrong, "times": times,
        "traced_times": traced_times, "round_times": round_times, "records": records,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--process", type=int, required=True, help="index among the run's processes")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not Path(ghzbell.__file__).resolve().is_relative_to(src):
        print(f"perfbench: ghzbell imported from {ghzbell.__file__}, not {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    ctx = Context(tracer=tracing.Tracer(), workdir=tempfile.mkdtemp(dir=WORK_DIR))
    try:
        warm_up = workload.make(derive_seed(args.workload, args.seed, args.process, "warm-up"))
        workload.run(warm_up, ctx)
        result = {
            "setup_s": time.monotonic() - args.spawned_at,
            "import_ms": IMPORT_MS,
            "peak_rss_mb": peak_rss_mb(),
        }
        hostspeed.reference_seconds()  # the first call in a process runs cold
        result["reference_s"] = hostspeed.reference_seconds()
        result.update(measure(args.workload, args.seed, args.process, args.seconds, bool(args.trace), ctx))
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
