"""Command-line interface.

Subcommands: rate, eval, compare, sweep, simulate, export.  Exit status
is 0 on success, 1 on bad input (unparseable flags, malformed files,
invalid parameters), and 2 when an internal invariant breaks.  All
output is deterministic: the same inputs and seed produce byte-identical
bytes, so ``--format csv`` doubles as the plotting data contract.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from typing import IO, Callable, Sequence

from . import metrics as metrics_mod
from . import simulate as simulate_mod
from . import store
from . import sweep as sweep_mod
from .errors import InputError
from .rating import PROFILES, RatingParams
from .replay import replay, write_replay_log

_PARAM_FIELDS = tuple(f.name for f in fields(RatingParams))

# Most values a start:stop:step range may expand to.
_MAX_RANGE_POINTS = 10_000


class _Parser(argparse.ArgumentParser):
    # Usage problems must exit 1, not argparse's default 2.
    def error(self, message):
        raise InputError(message)


def _float_list(text: str, flag: str) -> tuple[float, ...]:
    """Parse '1,2,3' or an inclusive 'start:stop:step' range."""
    try:
        if ":" not in text:
            return tuple(float(part) for part in text.split(","))
        start, stop, step = (float(part) for part in text.split(":"))
        if step <= 0 or stop < start:
            raise ValueError
        steps = (stop - start) / step + 1e-9
    except ValueError:
        raise InputError(f"{flag} expects comma-separated numbers or "
                         f"start:stop:step") from None
    if not steps < _MAX_RANGE_POINTS:   # also rejects inf and nan
        raise InputError(f"{flag} range {text!r} has more than "
                         f"{_MAX_RANGE_POINTS} points")
    return tuple(start + i * step for i in range(int(steps) + 1))


def _resolve_params(profile: str | None, overrides: list[str] | None) -> RatingParams:
    params = PROFILES.get(profile or "elo", RatingParams())
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
    return store.parse_rounds(sys.stdin if path is None else path)


def _cell(value, decimals: int | None = None, percent: bool = False) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if percent:
            return f"{100.0 * value:.1f}%"
        if decimals is not None:
            return f"{value:.{decimals}f}"
        return repr(value)
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


def _emit(args, header: Sequence[str], rows,
          table_row: Callable[[Sequence], Sequence[str]]) -> None:
    with store.open_text(_dest(args.output), "w") as fh:
        if args.format == "csv":
            store.write_csv(fh, header, rows)
        else:
            _write_table(fh, header, [table_row(r) for r in rows])


def _cmd_rate(args) -> int:
    params = _resolve_params(args.profile, args.param)
    rounds = _read_rounds(args.input)
    state = store.load_snapshot(args.snapshot_in) if args.snapshot_in else None
    result = replay(rounds, params, state=state,
                    keep_observations=args.output is not None)
    if args.output is not None:
        write_replay_log(result.divisions, _dest(args.output))
    if args.snapshot_out:
        store.save_snapshot(result.state, args.snapshot_out)
    error = result.mean_error
    print(f"rated {len(result.round_errors)} rounds, "
          f"{len(result.state.players)} players, mean error "
          f"{'n/a' if error is None else repr(error)}")
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
        return _emit_round_metrics(args, rows)

    params = _resolve_params(args.profile, args.param)
    state = store.load_snapshot(args.snapshot_in) if args.snapshot_in else None
    result = replay(rounds, params, state=state)

    if args.report == "rounds":
        return _emit_round_metrics(args, metrics_mod.evaluate_replay(result))
    if args.report == "stats":
        stats = metrics_mod.rating_stats(result)
        rows = [(name, getattr(stats, name))
                for name in ("count", "mean_error", "delta_mean", "delta_std",
                             "delta_max", "initial_rating", "rating_median",
                             "rating_max")]
        _emit(args, ("stat", "value"), rows,
              lambda r: (r[0], _cell(r[1], 4)))
        return 0
    report = metrics_mod.aggregate_error(result.divisions)
    rows = [(row.label, row.count, row.mean_delta_r, row.mean_perf,
             row.mean_error) for row in report.rows]
    _emit(args, ("bucket", "count", "mean_delta_r", "mean_perf", "mean_error"),
          rows,
          lambda r: (r[0], str(r[1]), _cell(r[2], 2), _cell(r[3], 4),
                     _cell(r[4], 4)))
    return 0


def _emit_round_metrics(args, rows_in) -> int:
    rows = [(m.round_id, m.division, m.n, m.mean_error, m.kendall, m.spearman)
            for m in rows_in]
    _emit(args, ("round_id", "division", "n", "mean_error", "kendall",
                 "spearman"),
          rows,
          lambda r: (r[0], str(r[1]), str(r[2]), _cell(r[3], 4), _cell(r[4], 4),
                     _cell(r[5], 4)))
    return 0


def _cmd_compare(args) -> int:
    _refuse_with_timeline(args.vs_timeline, "--vs-timeline",
                          {"--vs-profile": args.vs_profile,
                           "--vs-param": args.vs_param})
    rounds = _read_rounds(args.input)
    params_a = _resolve_params(args.profile, args.param)
    result_a = replay(rounds, params_a)
    metrics_a = metrics_mod.evaluate_replay(result_a)
    if args.vs_timeline is not None:
        metrics_b = metrics_mod.evaluate_timeline(
            rounds, store.parse_timeline(args.vs_timeline))
    else:
        params_b = _resolve_params(args.vs_profile, args.vs_param)
        result_b = replay(rounds, params_b)
        metrics_b = metrics_mod.evaluate_replay(result_b)
    report = metrics_mod.compare_systems(metrics_a, metrics_b)
    rows = [(row.label, row.rounds, row.kendall, row.spearman, row.error)
            for row in report.rows]
    _emit(args, ("bucket", "rounds", "kendall_win", "spearman_win",
                 "error_win"),
          rows,
          lambda r: (r[0], str(r[1]), _cell(r[2], percent=True),
                     _cell(r[3], percent=True), _cell(r[4], percent=True)))
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
        _emit(args, ("inflation", "bonus", "mean_error"), rows,
              lambda r: (_cell(r[0], 2), _cell(r[1], 2), _cell(r[2], 4)))
        return 0
    if args.grid is None:
        raise InputError("--grid is required")
    spec = sweep_mod.SweepSpec(
        target=args.target, grid=_float_list(args.grid, "--grid"), base=base,
        k_range=(args.k_min, args.k_max), k_step=args.k_step)
    result = sweep_mod.run_sweep(spec, rounds)
    rows = [(p.value, p.best_k, p.mean_error) for p in result.points]
    _emit(args, ("param_value", "best_K", "mean_error"), rows,
          lambda r: (_cell(r[0], 2), _cell(r[1], 2), _cell(r[2], 4)))
    return 0


def _cmd_simulate(args) -> int:
    config = simulate_mod.SimConfig(
        players=args.players, rounds=args.rounds, skill_mean=args.skill_mean,
        skill_std=args.skill_std, noise_std=args.noise_std,
        participation=args.participation, drift_std=args.drift_std,
        arrival_rate=args.arrival_rate, div1_fraction=args.div1_fraction,
        tie_step=args.tie_step, seed=args.seed)
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
    flag = f"--{prefix}profile" if prefix else "--profile"
    parser.add_argument(flag, choices=("elo", "elo2", "custom"),
                        help="parameter profile (default elo; custom = "
                             "defaults plus overrides)")
    parser.add_argument(f"--{prefix}param" if prefix else "--param",
                        action="append", metavar="KEY=VALUE",
                        help="override one rating parameter")


def _build_parser() -> _Parser:
    parser = _Parser(prog="rankelo",
                     description="Elo-style rating engine for multi-player "
                                 "ranked contests")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def common(p, formats=True):
        p.add_argument("--output", help="write to this path instead of stdout")
        if formats:
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
    sw.add_argument("--k-min", type=float, default=25.0)
    sw.add_argument("--k-max", type=float, default=1500.0)
    sw.add_argument("--k-step", type=float, default=5.0)
    common(sw)
    sw.set_defaults(func=_cmd_sweep)

    sim = sub.add_parser("simulate", help="generate a synthetic rounds file")
    sim.add_argument("--players", type=int, required=True)
    sim.add_argument("--rounds", type=int, required=True)
    sim.add_argument("--skill-mean", type=float, default=1500.0)
    sim.add_argument("--skill-std", type=float, default=300.0)
    sim.add_argument("--noise-std", type=float, default=200.0)
    sim.add_argument("--participation", type=float, default=1.0)
    sim.add_argument("--drift-std", type=float, default=0.0)
    sim.add_argument("--arrival-rate", type=float, default=0.0)
    sim.add_argument("--div1-fraction", type=float, default=0.0)
    sim.add_argument("--tie-step", type=float, default=0.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--skills-out", help="also write final latent skills here")
    common(sim, formats=False)
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
