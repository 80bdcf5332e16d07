"""Command-line interface.

Subcommands: rate, eval, compare, sweep, simulate, export.  Exit status
is 0 on success, 1 on bad input (unparseable flags, malformed files,
invalid parameters), and 2 when an internal invariant breaks.  All
output is deterministic: the same inputs and seed produce byte-identical
bytes, so ``--format csv`` doubles as the plotting data contract.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import MISSING, astuple, fields, replace
from typing import IO, Sequence, get_type_hints

from . import metrics as metrics_mod
from . import simulate as simulate_mod
from . import store
from . import sweep as sweep_mod
from .errors import InputError
from .rating import PROFILES, EngineState, RatingParams
from .replay import compile_history, replay, write_replay_log

_PARAM_FIELDS = tuple(f.name for f in fields(RatingParams))


class _Parser(argparse.ArgumentParser):
    # Usage problems must exit 1, not argparse's default 2.
    def error(self, message):
        raise InputError(message)


def _float_list(text: str, flag: str) -> tuple[float, ...]:
    """Parse '1,2,3' or an inclusive 'start:stop:step' range; no NaN, and a
    finite step."""
    try:
        ranged = ":" in text
        values = tuple(float(part) for part in text.split(":" if ranged else ","))
        if any(math.isnan(value) for value in values):
            raise ValueError
        if not ranged:
            return values
        start, stop, step = values
        if not 0 < step < math.inf or stop < start:
            raise ValueError
    except ValueError:
        raise InputError(f"{flag} expects comma-separated numbers or "
                         f"start:stop:step") from None
    return sweep_mod.grid_points(start, stop, step, f"{flag} range {text!r}")


def _resolve_params(profile: str | None, overrides: list[str] | None) -> RatingParams:
    params = PROFILES[profile or "elo"]
    if not overrides:
        return params
    values = {}
    for item in overrides:
        key, sep, raw = item.partition("=")
        key = key.strip()
        if not sep:
            raise InputError(f"--param expects KEY=VALUE, got {item!r}")
        if key not in _PARAM_FIELDS:
            raise InputError(f"unknown parameter {key!r}; choose one of "
                             f"{', '.join(_PARAM_FIELDS)}")
        try:
            values[key] = float(raw)
        except ValueError:
            raise InputError(f"parameter {key!r} needs a numeric value, "
                             f"got {raw!r}") from None
    return replace(params, **values)


def _dest(path: str | None):
    """Where an ``--output``-style flag writes: ``path``, or stdout for None/'-'."""
    return sys.stdout if path in (None, "-") else path


def _refuse_with_timeline(timeline: str | None, timeline_flag: str,
                          given: dict) -> None:
    """Reject rating flags given with a timeline, which supplies the ratings."""
    if timeline is None:
        return
    for flag, value in given.items():
        if value is not None:
            raise InputError(f"{flag} has no effect with {timeline_flag}: "
                             f"the timeline supplies the ratings")


def _read_rounds(path: str | None):
    return store.parse_rounds(sys.stdin if path in (None, "-") else path)


def _cell(value, decimals: int | str | None) -> str:
    """A table cell: "-" for None; a float to ``decimals`` places, or as a
    percentage to one place for "%"; anything else as ``str``."""
    if value is None:
        return "-"
    if decimals == "%":
        return f"{100.0 * value:.1f}%"
    if decimals is not None and isinstance(value, float):
        return f"{value:.{decimals}f}"
    return str(value)


def _write_table(fh: IO[str], header: Sequence[str],
                 rows: Sequence[Sequence[str]]) -> None:
    table = [list(header)] + [list(row) for row in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for r, row in enumerate(table):
        cells = [row[0].ljust(widths[0])]
        cells += [row[i].rjust(widths[i]) for i in range(1, len(row))]
        line = "  ".join(cells).rstrip()
        fh.write(line + "\n")
        if r == 0:
            fh.write("  ".join("-" * w for w in widths).rstrip() + "\n")


def _emit(args, header: Sequence[str], rows, decimals: Sequence[int | str | None]) -> None:
    with store.open_text(_dest(args.output), "w") as fh:
        if args.format == "csv":
            store.write_csv(fh, header, rows)
        else:
            _write_table(fh, header, [list(map(_cell, r, decimals)) for r in rows])


def _resume(path: str | None, params: RatingParams, rounds) -> EngineState | None:
    """The engine state to start from: the snapshot at ``path``, or None (a
    fresh engine).  A snapshot rated under other parameters, or one that
    already applied a round of ``rounds``, is refused: either would rate
    on from a state these rounds and parameters cannot produce."""
    if path is None:
        return None
    state = store.load_snapshot(path)
    if state.params is not None:
        for name in _PARAM_FIELDS:
            had, has = getattr(state.params, name), getattr(params, name)
            if had != has:
                raise InputError(f"snapshot was rated with {name}={had!r}, this run "
                                 f"uses {name}={has!r}; to rate under other "
                                 f"parameters, replay the rounds from scratch")
    if any(round_input.round_id == state.last_round_id for round_input in rounds):
        raise InputError(f"round {state.last_round_id!r} is already applied in "
                         f"the snapshot; resume with the rounds after it")
    return state


def _cmd_rate(args) -> int:
    params = _resolve_params(args.profile, args.param)
    rounds = _read_rounds(args.input)
    state = _resume(args.snapshot_in, params, rounds)
    result = replay(rounds, params, state=state,
                    keep_observations=args.output is not None)
    if args.output is not None:
        write_replay_log(result.rounds, _dest(args.output))
    if args.snapshot_out:
        store.save_snapshot(result.state, args.snapshot_out)
    error = result.mean_error
    # A log on stdout keeps the stream one CSV: the summary goes to stderr.
    print(f"rated {len(result.round_errors)} rounds, "
          f"{len(result.state.ids)} players, mean error "
          f"{'n/a' if error is None else repr(error)}",
          file=sys.stderr if args.output == "-" else sys.stdout)
    return 0


def _cmd_eval(args) -> int:
    _refuse_with_timeline(args.timeline, "--timeline",
                          {"--profile": args.profile, "--param": args.param,
                           "--snapshot-in": args.snapshot_in})
    rounds = _read_rounds(args.input)
    if args.timeline is not None:
        if args.report != "rounds":
            raise InputError("--timeline evaluation supports --report rounds "
                             "only (per-player breakdowns need a replay)")
        rows = metrics_mod.evaluate_timeline(rounds,
                                             store.parse_timeline(args.timeline))
    else:
        params = _resolve_params(args.profile, args.param)
        result = replay(rounds, params, state=_resume(args.snapshot_in, params, rounds))
        if args.report == "stats":
            stats = metrics_mod.rating_stats(result)
            rows = list(zip((f.name for f in fields(stats)), astuple(stats)))
            _emit(args, ("stat", "value"), rows, (None, 4))
            return 0
        if args.report == "buckets":
            report = metrics_mod.aggregate_error(result.rounds)
            _emit(args, ("bucket", "count", "mean_delta_r", "mean_perf", "mean_error"),
                  [astuple(row) for row in report.rows], (None, None, 2, 4, 4))
            return 0
        rows = metrics_mod.evaluate_replay(result)
    _emit(args, [f.name for f in fields(metrics_mod.RoundMetrics)],
          [astuple(m) for m in rows], (None, None, None, 4, 4, 4))
    return 0


def _cmd_compare(args) -> int:
    _refuse_with_timeline(args.vs_timeline, "--vs-timeline",
                          {"--vs-profile": args.vs_profile,
                           "--vs-param": args.vs_param})
    rounds = _read_rounds(args.input)
    params_a = _resolve_params(args.profile, args.param)
    compiled = compile_history(rounds)   # one compilation for both systems
    result_a = replay(compiled, params_a)
    metrics_a = metrics_mod.evaluate_replay(result_a)
    if args.vs_timeline is not None:
        metrics_b = metrics_mod.evaluate_timeline(
            compiled, store.parse_timeline(args.vs_timeline))
    else:
        params_b = _resolve_params(args.vs_profile, args.vs_param)
        result_b = replay(compiled, params_b)
        metrics_b = metrics_mod.evaluate_replay(result_b)
    report = metrics_mod.compare_systems(metrics_a, metrics_b)
    _emit(args, ("bucket", "rounds", "kendall_win", "spearman_win",
                 "error_win"),
          [astuple(row) for row in report.rows], (None, None, "%", "%", "%"))
    return 0


def _cmd_sweep(args) -> int:
    rounds = _read_rounds(args.input)
    base = _resolve_params(args.profile, args.param)
    if args.target == "joint":
        if args.inflation_grid is None or args.bonus_grid is None:
            raise InputError("--target joint needs --inflation-grid and "
                             "--bonus-grid")
        best = sweep_mod.joint_search(
            _float_list(args.inflation_grid, "--inflation-grid"),
            _float_list(args.bonus_grid, "--bonus-grid"), rounds, base=base)
        rows = [(best.inflation, best.bonus, best.mean_error)]
        _emit(args, ("inflation", "bonus", "mean_error"), rows, (2, 2, 4))
        return 0
    if args.grid is None:
        raise InputError("--grid is required")
    spec = sweep_mod.SweepSpec(
        target=args.target, grid=_float_list(args.grid, "--grid"), base=base,
        k_range=(args.k_min, args.k_max), k_step=args.k_step)
    result = sweep_mod.run_sweep(spec, rounds)
    _emit(args, ("param_value", "best_K", "mean_error"),
          [astuple(p) for p in result.points], (2, 2, 4))
    return 0


def _cmd_simulate(args) -> int:
    if args.skills_out == "-" and _dest(args.output) is sys.stdout:
        raise InputError("--skills-out - and the rounds CSV would share stdout; "
                         "write one of them to a file")
    config = simulate_mod.SimConfig(**{f.name: getattr(args, f.name)
                                       for f in fields(simulate_mod.SimConfig)})
    result = simulate_mod.generate_history(config)
    store.write_rounds(result.rounds, _dest(args.output))
    if args.skills_out:
        with store.open_text(_dest(args.skills_out), "w") as fh:
            store.write_csv(fh, ("player_id", "skill"),
                            sorted(result.skills.items()))
    return 0


def _cmd_export(args) -> int:
    state = store.load_snapshot(args.snapshot_in)
    store.export_snapshot(state, _dest(args.output), fmt=args.format)
    return 0


def _add_profile_flags(parser, prefix: str = "") -> None:
    parser.add_argument(f"--{prefix}profile", choices=PROFILES,
                        help="parameter profile (default elo)")
    parser.add_argument(f"--{prefix}param", action="append", metavar="KEY=VALUE",
                        help="override one rating parameter")


def _build_parser() -> _Parser:
    parser = _Parser(prog="rankelo",
                     description="Elo-style rating engine for multi-player "
                                 "ranked contests")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def common(p):
        p.add_argument("--output", help="write to this path instead of stdout")
        p.add_argument("--format", choices=("csv", "table"), default="csv")

    rate = sub.add_parser("rate", help="replay a rounds file, updating ratings")
    _add_profile_flags(rate)
    rate.add_argument("--input", help="rounds CSV (default: stdin)")
    rate.add_argument("--snapshot-in", help="resume from this engine snapshot")
    rate.add_argument("--snapshot-out", help="save the final engine state here")
    rate.add_argument("--output",
                      help="write the per-player replay log CSV here")
    rate.set_defaults(func=_cmd_rate)

    ev = sub.add_parser("eval", help="accuracy reports for a replayed history")
    _add_profile_flags(ev)
    ev.add_argument("--input", help="rounds CSV (default: stdin)")
    ev.add_argument("--snapshot-in", help="resume from this engine snapshot")
    ev.add_argument("--timeline",
                    help="evaluate externally supplied pre-round ratings "
                         "instead of replaying")
    ev.add_argument("--report", choices=("buckets", "rounds", "stats"),
                    default="buckets")
    common(ev)
    ev.set_defaults(func=_cmd_eval)

    comp = sub.add_parser("compare",
                          help="fraction of rounds one system predicts better")
    _add_profile_flags(comp)
    _add_profile_flags(comp, prefix="vs-")
    comp.add_argument("--input", help="rounds CSV (default: stdin)")
    comp.add_argument("--vs-timeline",
                      help="compare against an external ratings timeline")
    common(comp)
    comp.set_defaults(func=_cmd_compare)

    sw = sub.add_parser("sweep", help="error curve over one parameter, "
                                      "re-optimizing K per point")
    _add_profile_flags(sw)
    sw.add_argument("--input", help="rounds CSV (default: stdin)")
    sw.add_argument("--target", default="k_factor",
                    choices=sweep_mod.SWEEP_TARGETS + ("joint",))
    sw.add_argument("--grid", help="values to sweep: '1,2,3' or start:stop:step")
    sw.add_argument("--inflation-grid", help="inflation grid for --target joint")
    sw.add_argument("--bonus-grid", help="bonus grid for --target joint")
    k_min, k_max = sweep_mod.SweepSpec.k_range
    sw.add_argument("--k-min", type=float, default=k_min)
    sw.add_argument("--k-max", type=float, default=k_max)
    sw.add_argument("--k-step", type=float, default=sweep_mod.SweepSpec.k_step)
    common(sw)
    sw.set_defaults(func=_cmd_sweep)

    sim = sub.add_parser("simulate", help="generate a synthetic rounds file")
    types = get_type_hints(simulate_mod.SimConfig)
    for f in fields(simulate_mod.SimConfig):   # one flag per field, in field order
        required = f.default is MISSING
        sim.add_argument(f"--{f.name.replace('_', '-')}", type=types[f.name],
                         required=required, default=None if required else f.default)
    sim.add_argument("--skills-out", help="also write final latent skills here")
    sim.add_argument("--output", help="write to this path instead of stdout")
    sim.set_defaults(func=_cmd_simulate)

    exp = sub.add_parser("export", help="dump a snapshot as CSV or a table")
    exp.add_argument("--snapshot-in", required=True)
    common(exp)
    exp.set_defaults(func=_cmd_export)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:   # --help
        code = exc.code
        return code if isinstance(code, int) else 0
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
