"""Byte-identity pin: the CLI's deterministic outputs on fixed histories.

Every digest in ``FROZEN`` was frozen from the output of the commit before
the engine state became columnar, every digest in ``LONG_FROZEN`` from
the commit before the reports became masked folds, every digest in
``LOG_FROZEN`` from the commit before canonical order became private to
the rank pass, and ``LARGE_FROZEN``'s ``simulate`` and ``eval_rounds`` from
commit ``810aa43``, before the correlations became one pass per history,
and its ``rate``, ``rate_summary`` and ``sweep`` from commit ``b14ef0e``,
before divisions of equal ratings skipped the pairwise pass.
``LOG_FROZEN``'s ``rate_negzero_log`` is from commit ``f64db40``, before
the replay log formatted each distinct value of a division once, and
``FROZEN``'s ``sweep_k_factor`` from commit ``b3adb8d``, before a ``k_factor``
sweep became ``_optimize_k`` over a one-point K range.  A
refactor that keeps the maths must keep every one of them; a change that
moves output bits on purpose updates the digest here and declares the
change.  Snapshot bytes are not pinned: their layout is versioned
separately (see ``tests/test_store.py``).
"""

import contextlib
import csv
import hashlib
import io

import pytest

from rankelo.cli import run
from rankelo.store import parse_rounds, write_rounds

# (name, argv): each command writes ``--output`` to its own file; ``{h}`` is
# the history and ``{s}`` the snapshot that ``rate`` writes.
COMMANDS = (
    ("simulate", ["simulate", "--players", "40", "--rounds", "14",
                  "--participation", "0.7", "--arrival-rate", "2",
                  "--div1-fraction", "0.4", "--tie-step", "50",
                  "--seed", "11"]),
    ("rate", ["rate", "--profile", "elo2", "--input", "{h}",
              "--snapshot-out", "{s}"]),
    ("eval_buckets", ["eval", "--profile", "elo2", "--input", "{h}",
                      "--report", "buckets"]),
    ("eval_buckets_table", ["eval", "--profile", "elo2", "--input", "{h}",
                            "--report", "buckets", "--format", "table"]),
    ("eval_rounds", ["eval", "--profile", "elo2", "--input", "{h}",
                     "--report", "rounds"]),
    ("eval_stats", ["eval", "--input", "{h}", "--report", "stats"]),
    ("compare", ["compare", "--profile", "elo2", "--vs-profile", "elo",
                 "--input", "{h}"]),
    ("sweep", ["sweep", "--profile", "elo2", "--target", "bonus",
               "--grid", "0,27", "--k-min", "100", "--k-max", "900",
               "--input", "{h}"]),
    ("sweep_k_factor", ["sweep", "--profile", "elo2", "--target", "k_factor",
                        "--grid", "300:900:150", "--input", "{h}"]),
    ("export_csv", ["export", "--snapshot-in", "{s}"]),
    ("export_table", ["export", "--snapshot-in", "{s}", "--format", "table"]),
)

FROZEN = {
    "simulate": "35b7fa9c961ac36d4b187781fddd4e5c531a9eeeb1858273928a365d640d19fa",
    "rate": "0ac287d43bee517e64e94d589ea3d808b0a0e5dd88de546480dfc0eff6084e21",
    "rate_summary": "5d3d483619c3ac4540ed7aeb3169ec3b798a3d4ba2d30c1a4fd12367c9d24206",
    "eval_buckets": "238d144494342a3449b60e544689a75b21eeb5e346f06bbc10d0f58898405c90",
    "eval_buckets_table": "2df843842fad5a843a317b4293794eb0fb60ce6c423abd806ab5be96a452071a",
    "eval_rounds": "efd37590effa8ec39a5b6a1de9115db9c78d8747493693e6825e0de4da80757b",
    "eval_stats": "9e35c45b4f83940213b9dd0e895c58bcb65d75fa6367d8fb82d2bbb1037e4bce",
    "compare": "973b3dea8ce15c50ed23841c8c247ceac073f78281e3ce75090cdc295e5f19ac",
    "sweep": "09d43daae5aec7e4a98bb919601be0958c2c239693ddb687d4ec2c947dda16f7",
    "sweep_k_factor": "490e829f27e1c93fec20f97dda81b945a74e5514550a6021a88a02c00e489d0d",
    "export_csv": "3679cad7dabd3cd63fa13b22c864cd8e0f383efd224b8d15c57a12a3864220f3",
    "export_table": "c43e17765699055a83c80006f45fe3fb421080f6305dae3963977d433bdf6858",
}


# About 90 rounds in two divisions: the reports reach the 25-74 and 75-199
# round experience buckets and two division-size buckets.
LONG_COMMANDS = (
    ("simulate", ["simulate", "--players", "30", "--rounds", "90",
                  "--participation", "0.9", "--arrival-rate", "1",
                  "--div1-fraction", "0.4", "--tie-step", "50",
                  "--seed", "23"]),
    ("eval_buckets", dict(COMMANDS)["eval_buckets"]),
    ("eval_buckets_table", dict(COMMANDS)["eval_buckets_table"]),
    ("compare", dict(COMMANDS)["compare"]),
    ("compare_table", dict(COMMANDS)["compare"] + ["--format", "table"]),
)

LONG_FROZEN = {
    "simulate": "39426e5864e73f8d2783b16104d23211220a47d0e3c3f2fe80bb245cd5d31bcd",
    "eval_buckets": "d7190d81c566e7879ba78acbc1b2226a39ac45fc9b2dca093ee90ac6dcd3092b",
    "eval_buckets_table": "cece7954f04c1e4fd6ceac20bf2792558424c9376b8b3a5250a844707f601682",
    "compare": "b003c8d6d4ba834585ed9d1fae5def39bb32bafc33df1a470f555e9149106318",
    "compare_table": "8718d947305e129ecafd89c93d800257e493258c13b1588f9a616a503398e25f",
}


# The replay log and the timeline paths, on the long history.  ``{a}`` and
# ``{b}`` are its first and second halves, ``{t}`` a timeline of the
# pre-round ratings in the elo replay log, ``{s}`` the first half's snapshot.
LOG_COMMANDS = (
    LONG_COMMANDS[0],
    ("rate_log", ["rate", "--input", "{h}"]),
    ("rate_elo2_log", ["rate", "--profile", "elo2", "--input", "{h}"]),
    ("rate_first_half", ["rate", "--profile", "elo2", "--input", "{a}",
                         "--snapshot-out", "{s}"]),
    ("rate_resumed", ["rate", "--profile", "elo2", "--input", "{b}",
                      "--snapshot-in", "{s}"]),
    ("eval_timeline", ["eval", "--input", "{h}", "--timeline", "{t}",
                       "--report", "rounds"]),
    ("compare_timeline", ["compare", "--profile", "elo2", "--input", "{h}",
                          "--vs-timeline", "{t}"]),
    # round 1's players start at -0.0 (later ones at -0.0 + 0.0 = 0.0), and
    # two of its divisions also log 0.0: the log must keep each sign
    ("rate_negzero_log", ["rate", "--param", "initial_rating=-0.0",
                          "--param", "inflation=0", "--input", "{h}"]),
)

# compare_timeline equals LONG_FROZEN["compare"]: an elo timeline of the
# elo replay's own pre-round ratings reproduces the elo replay's metrics.
LOG_FROZEN = {
    "simulate": "39426e5864e73f8d2783b16104d23211220a47d0e3c3f2fe80bb245cd5d31bcd",
    "rate_log": "907d531139600440b40ac30e64f8f612086b9bd55cdaa28d88da68348e492f55",
    "rate_elo2_log": "1721a42ce43804a4e48cc2e54fe770acb4177c1199dca052b5a2e7494e1c5e27",
    "rate_first_half": "151f6d83830fa0cab47e20563013f4875506f0efd6cf1dcc855223b02e75d2a4",
    "rate_resumed": "9aacf3f0e978718b68a3f448d5d7703c285fc87fbb267fbaec3e237100bb9de2",
    "eval_timeline": "1122652edbabc37bcbc05af130553f326bde46bb558cdbf3374b68516d8a4248",
    "compare_timeline": "b003c8d6d4ba834585ed9d1fae5def39bb32bafc33df1a470f555e9149106318",
    "rate_negzero_log": "fecb32b1889d98b7d62013709e3e0586a3f8106f1c68da441e7dd51201a39b37",
}


# Three rounds of two tie-free divisions of 1,075 to 1,086 players: each
# division's discordant-pair count runs through 11 merge levels, and round
# 1's two divisions are debut divisions, every rating in them equal.
LARGE_COMMANDS = (
    ("simulate", ["simulate", "--players", "2400", "--rounds", "3",
                  "--participation", "0.9", "--div1-fraction", "0.5",
                  "--seed", "7"]),
    ("eval_rounds", dict(COMMANDS)["eval_rounds"]),
    ("rate", dict(COMMANDS)["rate"]),
    ("sweep", dict(COMMANDS)["sweep"]),
)

LARGE_FROZEN = {
    "simulate": "d545b8d8ed602a7d5bf755526d13d95764161cd0fd2d95b605f982cf8a1c9043",
    "eval_rounds": "a4bd31cd0ca3af5fcf48fd5d80b3c9dc3b5e6fff406dd1be67be3eeb95990537",
    "rate": "dd6201a3cc94b50825e0b2bbc6f1f8f3ddcbcb006a553a5ba235b601defa1ade",
    "rate_summary": "48e31360a37bf26149f5f6d79a5d10b29b7c994893dc19aefc1d2786261e5287",
    "sweep": "30fa256c8093a14dfda1836b40d2d8cc338ba2d0c3879297e7517e9a079372ff",
}


def _split_history(root):
    """Write the history's first and second halves, by round."""
    rounds = parse_rounds(str(root / "simulate.out"))
    half = len(rounds) // 2
    write_rounds(rounds[:half], str(root / "first.csv"))
    write_rounds(rounds[half:], str(root / "second.csv"))


def _timeline_from_log(root):
    """Write each logged entry's ``round_id,player_id,rating_before``."""
    with open(root / "rate_log.out", newline="") as log, \
            open(root / "timeline.csv", "w", newline="") as timeline:
        writer = csv.writer(timeline, lineterminator="\n")
        writer.writerow(("round_id", "player_id", "rating_before"))
        writer.writerows((row["round_id"], row["player_id"], row["rating_before"])
                         for row in csv.DictReader(log))


# Files some commands read, written from the output of an earlier one.
AFTER = {"simulate": _split_history, "rate_log": _timeline_from_log}


def _run_all(root, commands):
    """SHA-256 of each command's ``--output`` file, plus ``rate``'s summary line."""
    paths = {"h": root / "simulate.out", "s": root / "state.snap",
             "a": root / "first.csv", "b": root / "second.csv",
             "t": root / "timeline.csv"}
    out = {}
    for name, argv in commands:
        dest = root / f"{name}.out"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert run([arg.format(**paths) for arg in argv]
                       + ["--output", str(dest)]) == 0, name
        out[name] = hashlib.sha256(dest.read_bytes()).hexdigest()
        if name == "rate":
            out["rate_summary"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
        if name in AFTER:
            AFTER[name](root)
    return out


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return _run_all(tmp_path_factory.mktemp("identity"), COMMANDS)


@pytest.fixture(scope="module")
def long_digests(tmp_path_factory):
    return _run_all(tmp_path_factory.mktemp("identity_long"), LONG_COMMANDS)


@pytest.fixture(scope="module")
def log_digests(tmp_path_factory):
    return _run_all(tmp_path_factory.mktemp("identity_log"), LOG_COMMANDS)


@pytest.fixture(scope="module")
def large_digests(tmp_path_factory):
    return _run_all(tmp_path_factory.mktemp("identity_large"), LARGE_COMMANDS)


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_output_bytes_are_frozen(digests, name):
    assert digests[name] == FROZEN[name]


def test_every_output_is_pinned(digests):
    assert sorted(digests) == sorted(FROZEN)


@pytest.mark.parametrize("name", sorted(LONG_FROZEN))
def test_long_history_bytes_are_frozen(long_digests, name):
    assert long_digests[name] == LONG_FROZEN[name]


def test_every_long_history_output_is_pinned(long_digests):
    assert sorted(long_digests) == sorted(LONG_FROZEN)


@pytest.mark.parametrize("name", sorted(LOG_FROZEN))
def test_replay_log_and_timeline_bytes_are_frozen(log_digests, name):
    assert log_digests[name] == LOG_FROZEN[name]


def test_every_replay_log_and_timeline_output_is_pinned(log_digests):
    assert sorted(log_digests) == sorted(LOG_FROZEN)


@pytest.mark.parametrize("name", sorted(LARGE_FROZEN))
def test_large_division_bytes_are_frozen(large_digests, name):
    assert large_digests[name] == LARGE_FROZEN[name]


def test_every_large_division_output_is_pinned(large_digests):
    assert sorted(large_digests) == sorted(LARGE_FROZEN)
