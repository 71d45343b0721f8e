"""Per-layer spans recorded from outside the package.

The layers are ghzbell's modules. While a record is open, the public
functions named in ``LAYERS`` are replaced, in every ``ghzbell`` module
namespace that holds them, by wrappers that time each call. Calls between
modules, and within a module, look those names up at call time, so the
wrappers see them; nothing under ``src/`` changes. A layer's self time is
its span minus the spans of wrapped calls made inside it. Functions that are
not listed count toward their caller.
"""

from __future__ import annotations

import collections
import contextlib
import math
import os
import statistics
import sys
import time

# (module, attribute, layer span name). ``TrialBatch.save``/``.load`` are
# methods; the rest are module-level functions.
LAYERS = (
    ("ghzbell.cli", "main", "cli.main"),
    ("ghzbell.checks", "run_checks", "checks.run_checks"),
    ("ghzbell.experiment", "run_experiment", "experiment.run_experiment"),
    ("ghzbell.experiment", "generate_trials", "experiment.generate_trials"),
    ("ghzbell.experiment", "summarize_batch", "experiment.summarize_batch"),
    ("ghzbell.experiment", "auxiliary_tensor", "experiment.auxiliary_tensor"),
    ("ghzbell.experiment", "TrialBatch.save", "experiment.batch_save"),
    ("ghzbell.experiment", "TrialBatch.load", "experiment.batch_load"),
    ("ghzbell.quantum", "quantum_tensor", "quantum.quantum_tensor"),
    ("ghzbell.quantum", "setting_phase_classes", "quantum.setting_phase_classes"),
    ("ghzbell.quantum", "build_settings", "quantum.build_settings"),
    ("ghzbell.lhv", "max_score_brute", "lhv.max_score_brute"),
    ("ghzbell.lhv", "max_score_factorized", "lhv.max_score_factorized"),
    ("ghzbell.lhv", "strategy_score", "lhv.strategy_score"),
    ("ghzbell.thresholds", "threshold_table", "thresholds.threshold_table"),
    ("ghzbell.thresholds", "critical_efficiency", "thresholds.critical_efficiency"),
)


def _config_counts(args, kwargs, result) -> dict:
    """Trials and 65536-trial blocks of a call taking an ExperimentConfig first."""
    import ghzbell

    config = args[0] if args else kwargs["config"]
    return {"trials": config.trials, "blocks": math.ceil(config.trials / ghzbell.BLOCK_TRIALS)}


def _file_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}


COUNTERS = {
    "experiment.run_experiment": _config_counts,
    "experiment.generate_trials": _config_counts,
    "experiment.batch_save": _file_bytes,
}


class Tracer:
    """Aggregates spans into per-record totals: ``<layer>.self``, ``.incl``, ``.calls``.

    Only one record is open at a time; wrappers are installed while it is open
    and the original functions are restored when it closes.
    """

    def __init__(self) -> None:
        self._stack: list[list[float]] = []
        self._record: collections.defaultdict | None = None

    def add(self, key: str, amount: float) -> None:
        """Add a count to the open record; does nothing when none is open."""
        if self._record is not None:
            self._record[key] += amount

    def _wrap(self, layer: str, fn):
        tracer = self
        counter = COUNTERS.get(layer)

        def wrapper(*args, **kwargs):
            frame = [0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                record = tracer._record
                record[layer + ".self"] += elapsed - frame[0]
                record[layer + ".incl"] += elapsed
                record[layer + ".calls"] += 1
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    record[layer + "." + key] += value
            return result

        return wrapper

    def _patches(self):
        """(owner, attribute, original, replacement) for every name to patch."""
        modules = [
            module for name, module in sys.modules.items()
            if name == "ghzbell" or name.startswith("ghzbell.")
        ]
        patches = []
        for module_name, attr, layer in LAYERS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                if isinstance(original, classmethod):
                    replacement = classmethod(self._wrap(layer, original.__func__))
                else:
                    replacement = self._wrap(layer, original)
                patches.append((cls, method, original, replacement))
                continue
            original = getattr(owner, attr)
            replacement = self._wrap(layer, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    patches.append((module, attr, original, replacement))
        return patches

    @contextlib.contextmanager
    def record(self):
        """Open a record, with wrappers installed, and yield its totals."""
        if self._record is not None:
            raise RuntimeError("a trace record is already open")
        record = collections.defaultdict(float)
        patches = self._patches()
        for owner, attr, _, replacement in patches:
            setattr(owner, attr, replacement)
        self._record = record
        try:
            yield record
        finally:
            self._record = None
            self._stack.clear()
            for owner, attr, original, _ in patches:
                setattr(owner, attr, original)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(records, traced_times, plain_times) -> dict:
    """Per-layer values, each the median over traced operations.

    A span's time is taken from the operation when the operation calls it, and
    otherwise from the operation's sampler-and-reduction record, so that the
    simulate workloads report the two halves of their engine.
    """
    def self_ms(span):
        def value(op_rec, extra_rec):
            rec = op_rec if f"{span}.calls" in op_rec else extra_rec
            return rec.get(f"{span}.self", 0.0) * 1000.0
        return value

    def count(*keys):
        return lambda op_rec, _: sum(op_rec.get(key, 0.0) for key in keys)

    def trials_per_s(op_rec, _):
        incl = op_rec.get("experiment.run_experiment.incl", 0.0)
        return op_rec["experiment.run_experiment.trials"] / incl if incl else 0.0

    per_op = {
        ("cli.self_ms" if span == "cli.main" else f"{span}_ms"): self_ms(span)
        for _, _, span in LAYERS
    }
    per_op.update({
        "experiment.trials_per_s": trials_per_s,
        "experiment.blocks": count("experiment.run_experiment.blocks", "experiment.generate_trials.blocks"),
        "experiment.batch_bytes": count("experiment.batch_save.bytes"),
        "lhv.strategy_score_calls": count("lhv.strategy_score.calls"),
        "cli.stdout_bytes": count("cli.stdout_bytes"),
    })
    metrics = {
        name: median([fn(op_rec, extra_rec) for op_rec, extra_rec in records])
        for name, fn in per_op.items()
    }
    metrics["trace.overhead_pct"] = (median(traced_times) / median(plain_times) - 1.0) * 100.0
    return metrics
