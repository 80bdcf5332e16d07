"""End-to-end and per-layer benchmark of the rankelo CLI.

    python3 bench/run.py --workload srm_small_divs --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload srm_large_divs --seed 1 --seconds 35 --steady 10

Each run generates a seeded SRM-like history with ``rankelo.simulate``,
runs one untimed warm-up round of the workload's CLI commands and checks
its outputs against independent references (``checks.py``), then repeats
rounds until ``--seconds`` have passed.  Commands run in this process
through ``rankelo.cli.run`` and every output of every round must be
byte-identical to the warm-up's.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as medians
over the timed rounds.  ``--trace 1`` wraps the program's public functions
(``spans.py``) and reports the per-layer metrics instead.  ``--steady N``
runs the benchmark as 2 sets of N runs on fresh seeds and reports whether
the two sets agree within the bounds of BENCHMARK.json.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every check passed and no CLI invocation failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

MIN_ROUNDS = 3
MIN_UPDATE_SAMPLES = 40
TAIL_BEYOND = 10
K_RANGE = (25.0, 1500.0)          # the CLI's default K search range
KERNEL_SIZES = ((16, 400), (128, 100), (512, 10), (2048, 1))  # (n, calls per batch)
KERNEL_BATCHES = 5


@dataclass(frozen=True)
class Workload:
    sim: dict            # rankelo.simulate.SimConfig fields, seed excluded
    sweep_rounds: int    # the sweep runs on this many leading rounds
    sweep_grid: str
    update_rounds: int   # single-round updates replay this many trailing rounds
    update_passes: int   # passes over them per round of commands
    sample_per_division: int  # divisions per division number checked pairwise


WORKLOADS = {
    # Many 150-250-player rounds, scores on a 25-point grid (ties are common),
    # ~20k registered players: per-entry Python work and snapshot I/O.
    "srm_small_divs": Workload(
        sim=dict(players=40000, rounds=120, participation=0.006,
                 arrival_rate=30.0, div1_fraction=0.3, tie_step=25.0),
        sweep_rounds=15, sweep_grid="0,27", update_rounds=10,
        update_passes=1, sample_per_division=4),
    # A few ~2400-player rounds with distinct scores, 3000 players: the
    # O(n^2) division_ranks kernel at n ~ 720 and ~1680.
    "srm_large_divs": Workload(
        sim=dict(players=3000, rounds=6, participation=0.8,
                 div1_fraction=0.3),
        sweep_rounds=1, sweep_grid="27", update_rounds=4,
        update_passes=2, sample_per_division=1),
}

# Runs in a fresh interpreter: import the CLI and parse the history.
SETUP_CODE = "import sys, rankelo.cli, rankelo.store as s; s.parse_rounds(sys.argv[1])"
IMPORT_CODE = ("import time; t = time.perf_counter(); import rankelo.cli; "
               "print(time.perf_counter() - t)")
# Runs one round's plan in a fresh interpreter and reports its peak RSS.
PLAN_CODE = """
import contextlib, io, json, resource, shutil, sys
import rankelo.cli as cli
failed = attempted = 0
for step in json.loads(sys.argv[1]):
    if step[0] == "copy":
        shutil.copyfile(step[1], step[2])
    elif step[0] == "run":
        attempted += 1
        with contextlib.redirect_stdout(io.StringIO()):
            failed += cli.run(step[2]) != 0
print(json.dumps({"attempted": attempted, "failed": failed,
                  "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


median = statistics.median


def info(message: str) -> None:
    print(f"# {message}", flush=True)


class Files:
    def __init__(self, root: Path, update_rounds: int):
        self.root = root
        for name in ("history", "prefix", "log", "eval", "compare",
                     "self_compare", "sweep"):
            setattr(self, name, str(root / f"{name}.csv"))
        self.base = str(root / "base.snap")
        self.bulk = str(root / "bulk.snap")
        self.upd = str(root / "upd.snap")
        self.updates = [str(root / f"update{k:02d}.csv") for k in range(update_rounds)]


def round_plan(f: Files, wl: Workload) -> list:
    """One round: each bulk command once, with the update passes spread
    evenly between them so update samples cover the whole round.

    Steps are ("run", metric, argv), ("copy", src, dst) and
    ("verify", got, want); the peak-RSS child ignores "verify".
    """
    elo2 = ["--profile", "elo2"]
    bulk = [
        ("run", "rate", ["rate", *elo2, "--input", f.history, "--output", f.log,
                         "--snapshot-out", f.bulk]),
        ("run", "eval", ["eval", *elo2, "--input", f.history, "--report", "rounds",
                         "--output", f.eval]),
        ("run", "compare", ["compare", *elo2, "--vs-profile", "elo", "--input",
                            f.history, "--output", f.compare]),
        ("run", "sweep", ["sweep", *elo2, "--target", "bonus", "--grid",
                          wl.sweep_grid, "--input", f.prefix, "--output", f.sweep]),
    ]
    updates = []
    for _ in range(wl.update_passes):
        updates.append(("copy", f.base, f.upd))
        updates += [("run", "update", ["rate", *elo2, "--input", path,
                                       "--snapshot-in", f.upd, "--snapshot-out", f.upd])
                    for path in f.updates]
        updates.append(("verify", f.upd, f.bulk))
    plan = []
    for k, step in enumerate(bulk):
        plan.append(step)
        plan += updates[k * len(updates) // len(bulk):(k + 1) * len(updates) // len(bulk)]
    return plan


def self_compare_plan(f: Files) -> list:
    """A check, not a measured command: elo2 against itself."""
    return [("run", "self_compare", ["compare", "--profile", "elo2", "--vs-profile",
                                     "elo2", "--input", f.history,
                                     "--output", f.self_compare])]


@dataclass
class RoundResult:
    times: dict          # metric -> list of seconds
    stdout: str          # hash of every command's standard output
    files: str           # hash of every output file
    ops: list            # (metric, argv, first span, end span, counts before, after)
    wall: float


class Runner:
    """Executes round plans in process and counts CLI invocations."""

    def __init__(self, cli, files: Files):
        self.cli = cli
        self.files = files
        self.attempted = 0
        self.failed = 0

    def call(self, argv) -> tuple[float, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            start = time.perf_counter()
            code = self.cli.run(argv)
            elapsed = time.perf_counter() - start
        self.attempted += 1
        if code != 0:
            self.failed += 1
            raise checks.CheckError(f"rankelo {' '.join(argv)} exited {code}")
        return elapsed, out.getvalue()

    def run(self, plan, tracer: spans.Tracer | None = None) -> RoundResult:
        times: dict[str, list[float]] = {}
        ops = []
        digest = hashlib.sha256()
        start = time.perf_counter()
        for step in plan:
            if step[0] == "copy":
                shutil.copyfile(step[1], step[2])
            elif step[0] == "verify":
                checks.check_same_bytes(Path(step[1]).read_bytes(),
                                        Path(step[2]).read_bytes(),
                                        "update pass snapshot vs bulk rate snapshot")
            else:
                first = len(tracer.names) if tracer else 0
                before = tracer.counts if tracer else {}
                elapsed, stdout = self.call(step[2])
                times.setdefault(step[1], []).append(elapsed)
                if tracer:
                    ops.append((step[1], step[2], first, len(tracer.names), before,
                                tracer.counts))
                digest.update(stdout.encode())
        wall = time.perf_counter() - start
        return RoundResult(times, digest.hexdigest(), self.files_digest(), ops, wall)

    def files_digest(self) -> str:
        f = self.files
        digest = hashlib.sha256()
        for path in (f.log, f.bulk, f.eval, f.compare, f.sweep, f.upd):
            digest.update(Path(path).read_bytes())
        return digest.hexdigest()


def timed_child(code: str, *args) -> tuple[float, str]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *args], env=child_env(),
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise checks.CheckError(f"child process failed: {proc.stderr.strip()[-500:]}")
    return elapsed, proc.stdout


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        import rankelo.cli
        if not Path(rankelo.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"rankelo imported from {rankelo.__file__}, not {SRC}")
        self.name = workload
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.files = Files(work, self.wl.update_rounds)
        self.runner = Runner(rankelo.cli, self.files)

    def generate(self) -> None:
        """Write the seeded history, its sweep prefix, the update rounds and
        the base snapshot they start from."""
        from rankelo import simulate, store
        workload, seed = self.name, self.seed
        self.started = time.perf_counter()
        history = simulate.generate_history(
            simulate.SimConfig(seed=seed, **self.wl.sim))
        self.rounds = history.rounds
        f = self.files
        store.write_rounds(self.rounds, f.history)
        store.write_rounds(self.rounds[:self.wl.sweep_rounds], f.prefix)
        tail = self.rounds[len(self.rounds) - self.wl.update_rounds:]
        self.inputs = {f.history: self.rounds,
                       f.prefix: self.rounds[:self.wl.sweep_rounds]}
        for path, round_input in zip(f.updates, tail):
            store.write_rounds([round_input], path)
            self.inputs[path] = [round_input]
        store.write_rounds(self.rounds[:len(self.rounds) - len(tail)], f.base)
        self.runner.call(["rate", "--profile", "elo2", "--input", f.base,
                          "--snapshot-out", f.base])
        self.made = time.perf_counter()
        self.entries = sum(len(d.entries) for r in self.rounds for d in r.divisions)
        self.players = len({p for r in self.rounds for d in r.divisions
                            for p, _ in d.entries})
        info(f"{workload} seed {seed}: {len(self.rounds)} rounds, "
             f"{len(checks.division_keys(self.rounds))} divisions, "
             f"{self.entries} entries, {self.players} players")

    # -- checks ---------------------------------------------------------

    def sample_divisions(self) -> list[tuple[str, int]]:
        rng = random.Random(self.seed)
        keys = checks.division_keys(self.rounds)
        sample = []
        for number in sorted({d for _, d in keys}):
            pool = [k for k in keys if k[1] == number]
            sample += rng.sample(pool, min(self.wl.sample_per_division, len(pool)))
        return sample

    def check_outputs(self) -> None:
        """Independent checks of the warm-up round's outputs."""
        from rankelo import PROFILES, SnapshotError, store
        f = self.files
        read = lambda path: checks.read_csv(Path(path).read_text(encoding="utf-8"))
        log = read(f.log)
        sample = self.sample_divisions()
        checks.check_replay_log(log, self.rounds, sample)
        tie_free = checks.check_perf_sums(log, self.rounds)
        checks.check_round_metrics(read(f.eval), log, self.rounds, sample)
        checks.check_compare(read(f.compare), self.rounds, self_compare=False)
        checks.check_compare(read(f.self_compare), self.rounds, self_compare=True)
        try:
            state = store.load_snapshot(f.bulk)
        except SnapshotError as exc:
            raise checks.CheckError(f"bulk snapshot does not load: {exc}") from None
        checks.check_snapshot(state, self.rounds)
        checks.check_same_bytes(Path(f.upd).read_bytes(), Path(f.bulk).read_bytes(),
                                "last update pass snapshot vs bulk rate snapshot")
        prefix = self.rounds[:self.wl.sweep_rounds]
        fresh_replay = sys.modules["rankelo.replay"].replay

        def objective(bonus, k):
            params = replace(PROFILES["elo2"], bonus=bonus, k_factor=k)
            return fresh_replay(prefix, params, keep_observations=False).mean_error

        grid = [float(v) for v in self.wl.sweep_grid.split(",")]
        checks.check_sweep(read(f.sweep), grid, objective, K_RANGE)
        info(f"checks passed: {len(sample)} divisions recomputed pairwise, "
             f"{tie_free} tie-free performance sums, {len(log)} log rows chained")

    # -- end-to-end -----------------------------------------------------

    def warm_up(self) -> dict:
        """Run one round in a fresh process that does nothing else (its
        peak RSS is a metric), warm this process up on the self-compare,
        and check the outputs.  Returns the child's report."""
        _, out = timed_child(PLAN_CODE, json.dumps(round_plan(self.files, self.wl)))
        child = json.loads(out)
        self.runner.attempted += child["attempted"]
        self.runner.failed += child["failed"]
        if child["failed"]:
            raise checks.CheckError(f"{child['failed']} commands failed in the "
                                    f"warm-up process")
        self.runner.run(self_compare_plan(self.files))
        checked = time.perf_counter()
        self.check_outputs()
        info(f"set-up {self.made - self.started:.1f} s, warm-up round "
             f"{checked - self.made:.1f} s, checks {time.perf_counter() - checked:.1f} s")
        self.reference = self.runner.files_digest()
        self.stdout = None
        return child

    def same_outputs(self, result: RoundResult, what: str) -> None:
        """Every round's files equal the warm-up's, and stdout repeats."""
        if result.files != self.reference or self.stdout not in (None, result.stdout):
            raise checks.CheckError(f"{what} outputs differ from the warm-up round")
        self.stdout = result.stdout

    def end_to_end(self, seconds: float) -> dict:
        child = self.warm_up()
        plan = round_plan(self.files, self.wl)
        start = time.perf_counter()
        timed_child(SETUP_CODE, self.files.history)     # warm-up cold start
        setup, times, rounds = [], {}, 0
        while (rounds < MIN_ROUNDS or len(times.get("update", ())) < MIN_UPDATE_SAMPLES
               or time.perf_counter() - start < seconds):
            setup.append(timed_child(SETUP_CODE, self.files.history)[0])
            result = self.runner.run(plan)
            self.same_outputs(result, f"timed round {rounds}")
            for name, values in result.times.items():
                times.setdefault(name, []).extend(values)
            rounds += 1
        updates = sorted(times["update"])
        tail_index = len(updates) - TAIL_BEYOND - 1
        info(f"{rounds} timed rounds in {time.perf_counter() - start:.1f} s; "
             f"{len(setup)} cold starts; {len(updates)} update samples, "
             f"tail = p{100 * (tail_index + 1) / len(updates):.1f}")
        return {
            "setup_s": median(setup),
            "rate_s": median(times["rate"]),
            "eval_rounds_s": median(times["eval"]),
            "compare_s": median(times["compare"]),
            "sweep_s": median(times["sweep"]),
            "update_p50_ms": 1e3 * median(updates),
            "update_tail_ms": 1e3 * updates[tail_index],
            "peak_rss_mb": child["maxrss_kb"] / 1024.0,
        }

    # -- per layer ------------------------------------------------------

    def kernel_times(self) -> dict:
        division_ranks = sys.modules["rankelo.rating"].division_ranks
        import numpy as np
        rng = np.random.default_rng(self.seed)
        out = {}
        for n, calls in KERNEL_SIZES:
            scores, ratings = rng.normal(size=n), rng.normal(1500.0, 300.0, size=n)
            division_ranks(scores, ratings)
            batches = []
            for _ in range(KERNEL_BATCHES):
                start = time.perf_counter()
                for _ in range(calls):
                    division_ranks(scores, ratings)
                batches.append((time.perf_counter() - start) / calls)
            out[n] = median(batches)
        return {"rating.kernel_n16_us": 1e6 * out[16],
                "rating.kernel_n128_us": 1e6 * out[128],
                "rating.kernel_n512_ms": 1e3 * out[512],
                "rating.kernel_n2048_ms": 1e3 * out[2048]}

    def division_sizes(self, argv) -> list[int]:
        rounds = self.inputs[argv[argv.index("--input") + 1]]
        return [len(d.entries) for r in rounds for d in r.divisions]

    def check_trace(self, tracer: spans.Tracer, result: RoundResult) -> tuple[dict, int]:
        """Traced counts against counts derived from the input itself.

        Each command's kernel calls are its input divisions repeated a whole
        number of times (the rank passes), and registrations are a whole
        number of calls per replayed entry, the same for every command.
        """
        passes: dict[str, set] = {}
        per_entry = set()
        names, sizes = tracer.names, tracer.sizes
        for op, argv, lo, hi, before, after in result.ops:
            want = sorted(self.division_sizes(argv))
            got = sorted(sizes[i] for i in range(lo, hi) if names[i] == "rating.division_ranks")
            repeats, rest = divmod(len(got), len(want))
            if rest or repeats < 1 or got != sorted(want * repeats):
                raise checks.CheckError(f"{op}: traced kernel sizes are not whole "
                                        f"passes over its {len(want)} divisions")
            passes.setdefault(op, set()).add(repeats)
            replays = sum(1 for i in range(lo, hi) if names[i] == "replay.replay")
            registered = (after.get("rating.get_or_create_player", 0)
                          - before.get("rating.get_or_create_player", 0))
            replayed = replays * sum(want)
            if replayed == 0 or registered % replayed:
                raise checks.CheckError(f"{op}: {registered} registrations for "
                                        f"{replayed} replayed entries")
            per_entry.add(registered // replayed)
        if len(per_entry) != 1:
            raise checks.CheckError(f"registrations per entry differ by command: {per_entry}")
        return {op: sorted(v) for op, v in passes.items()}, per_entry.pop()

    def layer_metrics(self, tracer: spans.Tracer, result: RoundResult) -> dict:
        names, starts, ends = tracer.names, tracer.starts, tracer.ends
        parents, sizes = tracer.parents, tracer.sizes
        lo, hi = result.ops[0][2], result.ops[-1][3]
        own = spans.self_times(starts, ends, parents)
        idx = range(lo, hi)
        dur = lambda i: ends[i] - starts[i]

        def total(name, of=dur):
            return sum(of(i) for i in idx if names[i] == name)

        def in_ops(name, ops):
            return [dur(i) for op, _, a, b, _, _ in result.ops if op in ops
                    for i in range(a, b) if names[i] == name]

        selfs = lambda i: own[i]
        kernel = [i for i in idx if names[i] == "rating.division_ranks"]
        pairs = sum(sizes[i] ** 2 for i in kernel)
        ranks_s = sum(dur(i) for i in kernel)
        entries = total("rating.rate_division", lambda i: sizes[i])
        sweep_replays = [dur(i) for i in idx if names[i] == "replay.replay"
                         and spans.has_ancestor(i, parents, names, "sweep.run_sweep")]
        correlations = [i for i in idx
                        if names[i] in ("metrics.kendall_tau", "metrics.spearman_rho")]
        registrations = (result.ops[-1][5].get("rating.get_or_create_player", 0)
                         - result.ops[0][4].get("rating.get_or_create_player", 0))
        parses = in_ops("store.parse_rounds", ("rate", "eval", "compare"))
        loads = in_ops("store.load_snapshot", ("update",))
        saves = in_ops("store.save_snapshot", ("update",))
        return {
            "store.parse_rounds_s": median(parses) if parses else 0.0,
            "store.load_snapshot_ms": 1e3 * median(loads) if loads else 0.0,
            "store.save_snapshot_ms": 1e3 * median(saves) if saves else 0.0,
            "store.snapshot_kb": os.path.getsize(self.files.bulk) / 1024.0,
            "cli.self_s": total("cli.run", selfs),
            "replay.replay_self_s": total("replay.replay", selfs),
            "replay.write_replay_log_s": total("replay.write_replay_log"),
            "rating.rate_round_self_s": total("rating.rate_round", selfs),
            "rating.registrations": registrations,
            "rating.rate_division_self_us_per_entry":
                1e6 * total("rating.rate_division", selfs) / entries if entries else 0.0,
            "rating.division_ranks_s": ranks_s,
            "rating.pairs": pairs,
            "rating.division_ranks_ns_per_pair": 1e9 * ranks_s / pairs if pairs else 0.0,
            "metrics.evaluate_replay_self_s": total("metrics.evaluate_replay", selfs),
            "metrics.correlation_s": sum(dur(i) for i in correlations),
            "metrics.correlation_calls": len(correlations),
            "metrics.eval_pairs": sum(sizes[i] ** 2 for i in kernel if spans.has_ancestor(
                i, parents, names, "metrics.evaluate_replay")),
            "metrics.compare_systems_s": total("metrics.compare_systems"),
            "sweep.objective_evals": len(sweep_replays),
            "sweep.replay_s_per_eval":
                sum(sweep_replays) / len(sweep_replays) if sweep_replays else 0.0,
            "sweep.self_s": total("sweep.run_sweep", selfs),
        }

    def split(self, tracer: spans.Tracer, result: RoundResult) -> str:
        """Share of each bulk command's time spent inside division_ranks."""
        parts = []
        for op, _, lo, hi, _, _ in result.ops:
            if op == "update":
                continue
            kernel = sum(tracer.ends[i] - tracer.starts[i] for i in range(lo, hi)
                         if tracer.names[i] == "rating.division_ranks")
            parts.append(f"{op} {100 * kernel / sum(result.times[op]):.0f}%")
        return ", ".join(parts)

    def per_layer(self, seconds: float) -> dict:
        self.warm_up()
        start = time.perf_counter()
        imports = [float(timed_child(IMPORT_CODE)[1]) for _ in range(4)][1:]
        metrics = self.kernel_times()
        metrics["cli.import_s"] = median(imports)
        plan = round_plan(self.files, self.wl)
        tracer = spans.Tracer()
        untraced, traced = [], []
        # Untraced and traced rounds alternate, so their ratio (the tracing
        # overhead) sees the same machine speed.
        while not traced or time.perf_counter() - start < seconds:
            untraced.append(self.runner.run(plan))
            missing = tracer.install()
            try:
                traced.append(self.runner.run(plan, tracer))
            finally:
                tracer.uninstall()
        if missing:
            info(f"not in this version of rankelo: {', '.join(missing)}")
        for k, result in enumerate(untraced + traced):
            self.same_outputs(result, "untraced" if k < len(untraced) else "traced")
        passes, per_entry = self.check_trace(tracer, traced[0])
        per_round = [self.layer_metrics(tracer, r) for r in traced]
        for name in per_round[0]:
            metrics[name] = median([m[name] for m in per_round])
        traced_wall = median([r.wall for r in traced])
        untraced_wall = median([r.wall for r in untraced])
        info(f"{len(traced)} traced rounds; rank passes per command {passes}; "
             f"{per_entry} registrations per replayed entry")
        info(f"division_ranks share of command time: {self.split(tracer, traced[0])}")
        per_command = ", ".join(
            f"{op} {100 * (median([t for r in traced for t in r.times[op]]) / median([t for r in untraced for t in r.times[op]]) - 1):+.0f}%"
            for op in traced[0].times)
        info(f"tracing overhead: round {traced_wall:.3f} s traced vs "
             f"{untraced_wall:.3f} s untraced "
             f"({100 * (traced_wall / untraced_wall - 1):+.1f}%); {per_command}")
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{self.name}-{self.seed}-{os.getpid()}.jsonl"
        with open(trace_path, "w", encoding="utf-8") as fh:
            tracer.dump(fh)
        info(f"spans written to {trace_path.relative_to(ROOT)}")
        return metrics


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(args) -> int:
    spec = declared()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    bench = Bench(args.workload, args.seed, work)
    work.mkdir(parents=True, exist_ok=True)
    correct = True
    values: dict = {}
    try:
        bench.generate()
        if args.trace:
            values = bench.per_layer(args.seconds)
        else:
            values = bench.end_to_end(args.seconds)
    except checks.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if correct and set(values) != {m["name"] for m in wanted}:
        print(f"computed metrics {sorted(values)} differ from BENCHMARK.json",
              file=sys.stderr)
        correct = False
    print(json.dumps({
        "correct": correct,
        "attempted": max(bench.runner.attempted, 1),
        "failed": bench.runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in values},
    }))
    return 0 if correct else 1


def steady(args) -> int:
    """Two sets of ``--steady`` runs on consecutive fresh seeds."""
    spec = declared()
    sets = []
    for s in range(2):
        runs = []
        for k in range(args.steady):
            seed = args.seed + s * args.steady + k
            began = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], capture_output=True, text=True, cwd=ROOT,
                timeout=600)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            if proc.returncode != 0 or not last.startswith("{"):
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(last)
            runs.append(result)
            info(f"set {s + 1} seed {seed} ({time.perf_counter() - began:.0f} s): " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()))
        sets.append(runs)
    report = {"workload": args.workload, "runs_per_set": args.steady,
              "seconds": args.seconds, "metrics": {}}
    agree = len({r["failed"] / r["attempted"] for runs in sets for r in runs}) == 1
    print(f"{'metric':<16}{'set':>4}{'median':>11}{'q1':>11}{'q3':>11}"
          f"{'spread':>8}{'bound':>7}  verdict")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        rows = []
        for s, runs in enumerate(sets):
            q1, q2, q3 = statistics.quantiles([r["metrics"][name]["value"] for r in runs],
                                              n=4)
            rows.append((q1, q2, q3, (q3 - q1) / q2))
        worse = rows[1][1] / rows[0][1] - 1.0
        ok = worse <= bound and (name == "setup_s" or
                                 all(r[3] <= bound for r in rows))
        agree = agree and ok
        report["metrics"][name] = {"sets": [dict(zip(("q1", "median", "q3", "spread"), r))
                                            for r in rows],
                                   "bound": bound, "second_vs_first": worse, "ok": ok}
        for s, (q1, q2, q3, spread) in enumerate(rows):
            verdict = (f"{'ok' if ok else 'FAIL'} (2nd/1st {100 * worse:+.1f}%)"
                       if s else "")
            print(f"{name if not s else '':<16}{s + 1:>4}{q2:>11.4g}{q1:>11.4g}"
                  f"{q3:>11.4g}{100 * spread:>7.1f}%{100 * bound:>6.0f}%  {verdict}")
    report["agree"] = agree
    OUT.mkdir(exist_ok=True)
    path = OUT / f"steady-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps(report, indent=1), encoding="utf-8")
    info(f"report written to {path.relative_to(ROOT)}")
    print(json.dumps({"agree": agree}))
    return 0 if agree else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="N",
                        help="run 2 sets of N end-to-end runs and compare them")
    args = parser.parse_args(argv)
    if not (SRC / "rankelo" / "__init__.py").is_file():
        print(f"no rankelo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.steady:
        return steady(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
