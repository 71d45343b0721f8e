"""Command line interface for the toolkit.

Subcommands:
    bound      -- classical maximum, analytic bound, tensor identities, argmax
    thresholds -- per-N critical visibility/efficiency table (json/csv/human)
    simulate   -- one Monte Carlo experiment, summary with config echo
    sweep      -- experiments across a visibility grid
    verify     -- self-check suite; nonzero exit when any check fails

JSON is the default format; the human format is rendered from the same data
structure, never computed separately. Exit codes: 0 success, 1 failed check,
2 usage error. main alone reports a _FieldError, raised by the library or a
handler, through the subcommand's parser and led by the flag that set the
value. The parser is built once per process, on the first main call, and
reused. GHZBELL_SEED is read on every main call: when set, it is --seed's
default for that call, so its errors name --seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .checks import run_checks
from .experiment import (
    ExperimentConfig,
    ROUND_ROBIN,
    SETTING_POLICIES,
    run_experiment,
    visibility_sweep,
)
from .lhv import (
    bound_attaining_strategy,
    lhv_bound,
    max_score_brute,
    max_score_factorized,
    violation_factor,
)
from .quantum import _FieldError, entry_sum_closed_form
from .thresholds import percent_string, render_table_csv, threshold_table

SEED_ENV_VAR = "GHZBELL_SEED"
_ARRAY_PIECE = 65536  # float64 array entries rendered per JSON piece


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _json_pieces(value, indent: str = "\n"):
    """The text of ``json.dumps(value, indent=2)`` in pieces (string keys only).

    A 1-D float64 ndarray, such as the 3^N estimated tensor entries, prints as
    its ``tolist()`` would, without that list of floats, ``_ARRAY_PIECE``
    entries at a time: json renders each distinct bit pattern of a piece
    (which keeps -0.0 and 0.0 apart) once, and the piece's entries are read
    back from that table by index and joined as one piece. No table outlives
    its piece, so memory does not grow with the array, however many distinct
    values it holds. Any other value is ``json.dumps(value, indent=2)`` itself.
    """
    inner = indent + "  "
    if isinstance(value, dict) and value:
        for i, (key, item) in enumerate(value.items()):
            yield ("," if i else "{") + f"{inner}{json.dumps(key)}: "
            yield from _json_pieces(item, inner)
        yield indent + "}"
    elif isinstance(value, np.ndarray) and value.size:
        sep = "," + inner
        for start in range(0, value.size, _ARRAY_PIECE):
            bits, index = np.unique(
                value[start:start + _ARRAY_PIECE].view(np.int64), return_inverse=True
            )
            reprs = json.dumps(bits.view(np.float64).tolist())[1:-1].split(", ")
            yield sep if start else "[" + inner
            yield sep.join(np.array(reprs, dtype=object)[index].tolist())
        yield indent + "]"
    elif isinstance(value, np.ndarray):
        yield "[]"
    else:
        yield json.dumps(value, indent=2).replace("\n", indent)


def _emit_json(data) -> None:
    sys.stdout.writelines(_json_pieces(data))
    sys.stdout.write("\n")


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="ghzbell",
        description=(
            "Three-setting Bell test for N-party GHZ correlations: classical "
            "bounds, critical visibility and detection efficiency, Monte Carlo "
            "experiments."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="classical maximum and the analytic bound")
    p_bound.add_argument("--n", type=int, required=True, help="number of parties (>= 2)")
    p_bound.add_argument(
        "--method",
        choices=("brute", "factorized", "both"),
        default="both",
        help="exhaustive search (N <= 8), phase-class dynamic program, or both",
    )
    p_bound.add_argument("--format", choices=("json", "human"), default="json")

    p_thresh = sub.add_parser("thresholds", help="critical visibility/efficiency table")
    p_thresh.add_argument("--n-max", type=int, required=True, help="largest N (>= 2)")
    p_thresh.add_argument("--format", choices=("json", "csv", "human"), default="json")

    p_sim = sub.add_parser("simulate", help="run one Monte Carlo experiment")
    p_sim.add_argument("--n", type=int, required=True, help="number of parties (>= 2)")
    p_sim.add_argument("--v", type=float, required=True, help="visibility in [0, 1]")
    p_sim.add_argument("--eta", type=float, required=True, help="detection efficiency in [0, 1]")
    p_sim.add_argument("--trials", type=int, required=True, help="number of trials")

    p_sweep = sub.add_parser("sweep", help="experiments across a visibility grid")
    p_sweep.add_argument("--n", type=int, required=True, help="number of parties (>= 2)")
    p_sweep.add_argument("--eta", type=float, required=True, help="detection efficiency in [0, 1]")
    p_sweep.add_argument(
        "--v-grid", type=str, required=True, help="comma-separated visibilities, e.g. 0.4,0.5,0.6"
    )
    p_sweep.add_argument("--trials-per-point", type=int, required=True)
    for p, formats in ((p_sim, ("json", "human")), (p_sweep, ("json", "csv", "human"))):
        # main sets the default from the environment on each call.
        p.add_argument(
            "--seed", type=int, help=f"64-bit seed (default ${SEED_ENV_VAR}, else 0)"
        )
        p.add_argument("--policy", choices=SETTING_POLICIES, default=ROUND_ROBIN)
        p.add_argument("--workers", type=int, default=1, help="worker threads (no effect on output)")
        p.add_argument("--format", choices=formats, default="json")

    p_verify = sub.add_parser("verify", help="run the self-check suite")
    p_verify.add_argument(
        "--n-max", type=int, default=6, help="cap for exhaustive-search checks (2..8)"
    )
    p_verify.add_argument("--format", choices=("human", "json"), default="human")
    p_verify.add_argument(
        "--inject-fault",
        action="store_true",
        help="force the first check to fail (tests the failure path)",
    )
    return parser, sub.choices


def _cmd_bound(args) -> int:
    try:
        norm_sq = 3.0 ** args.n / 2.0
    except OverflowError:
        norm_sq = math.inf  # printed as null/inf, like simulate's standard error
    try:
        data = {
            "n": args.n,
            "method": args.method,
            "bound": lhv_bound(args.n),
            "norm_sq": norm_sq if math.isfinite(norm_sq) else None,
            "q_entry_sum": entry_sum_closed_form(args.n),
            "violation_factor": violation_factor(args.n),
        }
    except OverflowError:
        raise _FieldError("n_parties", f"{args.n} overflows double precision") from None
    if args.method in ("brute", "both"):
        brute, strategy = max_score_brute(args.n)
        data["max_s"] = brute
        data["argmax"] = [list(t) for t in strategy.assignments]
        if args.method == "both":
            data["max_s_brute"] = brute
            data["max_s_factorized"] = max_score_factorized(args.n)
    else:
        data["max_s"] = max_score_factorized(args.n)
        data["argmax"] = [list(t) for t in bound_attaining_strategy(args.n).assignments]
    if args.format == "human":
        lines = [
            f"parties           : {data['n']}",
            f"method            : {data['method']}",
            f"max S             : {data['max_s']!r}",
            f"bound 2^(N-1)sqrt3: {data['bound']!r}",
            f"norm_sq (3^N/2)   : {norm_sq!r}",
            f"entry sum q_N     : {data['q_entry_sum']!r}",
            f"violation factor  : {data['violation_factor']!r}",
        ]
        if "max_s_brute" in data:
            lines.append(f"max S (brute)     : {data['max_s_brute']!r}")
            lines.append(f"max S (factorized): {data['max_s_factorized']!r}")
        lines.append("argmax strategy   :")
        for k, triple in enumerate(data["argmax"]):
            lines.append(f"  party {k}: ({triple[0]:+d}, {triple[1]:+d}, {triple[2]:+d})")
        _emit("\n".join(lines))
    else:
        _emit_json(data)
    return 0


def _cmd_thresholds(args) -> int:
    try:
        rows = threshold_table(args.n_max)
    except OverflowError:
        raise _FieldError("n_parties", f"{args.n_max} overflows double precision") from None
    if args.format == "csv":
        sys.stdout.write(render_table_csv(rows))
    elif args.format == "human":
        lines = [f"{'N':>3}  {'v_cr_new':>9}  {'v_cr_old':>9}  {'eta_cr':>9}"]
        for row in rows:
            lines.append(
                f"{row.n:>3}  "
                f"{percent_string(row.v_cr_new) + '%':>9}  "
                f"{percent_string(row.v_cr_old) + '%':>9}  "
                f"{percent_string(row.eta_cr) + '%':>9}"
            )
        _emit("\n".join(lines))
    else:
        _emit_json([row.to_dict() for row in rows])
    return 0


def _cmd_simulate(args) -> int:
    config = ExperimentConfig(
        n_parties=args.n,
        visibility=args.v,
        efficiency=args.eta,
        trials=args.trials,
        seed=args.seed,
        setting_policy=args.policy,
    )
    summary = run_experiment(config, workers=args.workers)
    data = {"config": config.to_dict(), **summary._json_fields()}
    if args.format == "human":
        cfg = data["config"]
        _emit(
            "\n".join(
                [
                    f"parties        : {cfg['n_parties']}",
                    f"visibility     : {cfg['visibility']!r}",
                    f"efficiency     : {cfg['efficiency']!r}",
                    f"trials         : {cfg['trials']}",
                    f"seed           : {cfg['seed']}",
                    f"setting policy : {cfg['setting_policy']}",
                    f"p_all_zero     : {data['p_all_zero']!r}",
                    f"lhs |(Q,E)|    : {data['lhs']!r}",
                    f"rhs bound      : {data['rhs']!r}",
                    f"standard error : {summary.standard_error_lhs!r}",
                    f"violated       : {str(data['violated']).lower()}",
                ]
            )
        )
    else:
        _emit_json(data)
    return 0


def _cmd_sweep(args) -> int:
    try:
        grid = [float(tok) for tok in args.v_grid.split(",") if tok.strip()]
    except ValueError:
        raise _FieldError(
            "visibility", f"visibilities must be comma-separated numbers, got {args.v_grid!r}"
        ) from None
    points = visibility_sweep(
        n_parties=args.n,
        eta=args.eta,
        v_grid=grid,
        trials_per_point=args.trials_per_point,
        seed=args.seed,
        setting_policy=args.policy,
        workers=args.workers,
    )
    data = {
        "n_parties": args.n,
        "efficiency": args.eta,
        "trials_per_point": args.trials_per_point,
        "seed": args.seed,
        "setting_policy": args.policy,
        "points": [p.to_dict() for p in points],
    }
    if args.format == "csv":
        lines = ["v,lhs,rhs,violated"]
        for p in data["points"]:
            lines.append(
                f"{p['visibility']!r},{p['lhs']!r},{p['rhs']!r},{str(p['violated']).lower()}"
            )
        _emit("\n".join(lines))
    elif args.format == "human":
        lines = [f"{'v':>6}  {'lhs':>12}  {'rhs':>12}  violated"]
        for p in data["points"]:
            lines.append(
                f"{p['visibility']:>6.3f}  {p['lhs']:>12.6f}  {p['rhs']:>12.6f}  "
                f"{str(p['violated']).lower()}"
            )
        _emit("\n".join(lines))
    else:
        _emit_json(data)
    return 0


def _cmd_verify(args) -> int:
    results = run_checks(n_max=args.n_max, inject_fault=args.inject_fault)
    failed = [r for r in results if not r.passed]
    if args.format == "json":
        _emit_json(
            {
                "checks": [r.to_dict() for r in results],
                "passed": len(results) - len(failed),
                "failed": len(failed),
            }
        )
    else:
        for r in results:
            _emit(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
        _emit(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


_ENGINE_FLAGS = {
    "n_parties": "--n",
    "visibility": "--v",
    "efficiency": "--eta",
    "trials": "--trials",
    "seed": "--seed",
    "workers": "--workers",
    "setting_policy": "--policy",
}
# Each subcommand's handler, and the flag that sets each field its library
# calls check: a _FieldError naming that field is a usage error led by the flag.
COMMANDS = {
    "bound": (_cmd_bound, {"n_parties": "--n"}),
    "thresholds": (_cmd_thresholds, {"n_parties": "--n-max"}),
    "simulate": (_cmd_simulate, _ENGINE_FLAGS),
    "sweep": (_cmd_sweep, {**_ENGINE_FLAGS, "visibility": "--v-grid", "trials": "--trials-per-point"}),
    "verify": (_cmd_verify, {"n_parties": "--n-max"}),
}


def main(argv=None) -> int:
    parser, subparsers = _build_parser()
    # argparse runs a string default through type=int only when --seed is absent.
    seed = os.environ.get(SEED_ENV_VAR, "0")
    for name in ("simulate", "sweep"):
        subparsers[name].set_defaults(seed=seed)
    args = parser.parse_args(argv)
    handler, flags = COMMANDS[args.command]
    try:
        return handler(args)
    except _FieldError as exc:
        subparsers[args.command].error(f"{flags[exc.field]}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
