"""Tests of the benchmark's own code: checks, tracer and plumbing.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from rankelo import cli, metrics, rating, simulate, store  # noqa: E402


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """A small tie-heavy history and the CLI outputs of one round."""
    tmp = tmp_path_factory.mktemp("outputs")
    rounds = simulate.generate_history(simulate.SimConfig(
        players=40, rounds=6, participation=0.8, div1_fraction=0.3,
        tie_step=25.0, seed=3)).rounds
    history = str(tmp / "history.csv")
    store.write_rounds(rounds, history)
    out = {name: str(tmp / f"{name}.csv") for name in ("log", "eval", "self")}
    snap = str(tmp / "bulk.snap")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["rate", "--profile", "elo2", "--input", history,
                        "--output", out["log"], "--snapshot-out", snap]) == 0
        assert cli.run(["eval", "--profile", "elo2", "--input", history,
                        "--report", "rounds", "--output", out["eval"]]) == 0
        assert cli.run(["compare", "--profile", "elo2", "--vs-profile", "elo2",
                        "--input", history, "--output", out["self"]]) == 0
    read = lambda path: checks.read_csv(Path(path).read_text(encoding="utf-8"))
    return {"rounds": rounds, "log": read(out["log"]), "eval": read(out["eval"]),
            "self": read(out["self"]), "snap": snap}


def _copy(rows):
    return [dict(row) for row in rows]


def test_checks_accept_the_program_outputs(outputs):
    rounds = outputs["rounds"]
    every = checks.division_keys(rounds)
    checks.check_replay_log(outputs["log"], rounds, every)
    checks.check_round_metrics(outputs["eval"], outputs["log"], rounds, every)
    checks.check_compare(outputs["self"], rounds, self_compare=True)
    checks.check_snapshot(store.load_snapshot(outputs["snap"]), rounds)


@pytest.mark.parametrize("sampled", [True, False])
def test_perturbed_delta_is_rejected(outputs, sampled):
    rounds, log = outputs["rounds"], _copy(outputs["log"])
    # A first-round row of a player who plays again: the pairwise
    # recomputation sees it when sampled, the rating chain when not.
    later = {row["player_id"] for row in log if row["round_id"] != rounds[0].round_id}
    row = next(r for r in log if r["round_id"] == rounds[0].round_id
               and r["player_id"] in later)
    row["delta_r"] = repr(float(row["delta_r"]) * (1 + 1e-7))
    key = (row["round_id"], int(row["division"]))
    with pytest.raises(checks.CheckError):
        checks.check_replay_log(log, rounds, [key] if sampled else [])


def test_flipped_snapshot_byte_is_rejected(outputs, tmp_path):
    data = Path(outputs["snap"]).read_bytes()
    flipped = bytearray(data)
    flipped[len(flipped) // 2] ^= 0x01
    with pytest.raises(checks.CheckError):
        checks.check_same_bytes(bytes(flipped), data, "snapshot")
    checks.check_same_bytes(data, data, "snapshot")


def test_self_compare_off_half_is_rejected(outputs):
    rows = _copy(outputs["self"])
    rows[-1]["error_win"] = "0.501"
    with pytest.raises(checks.CheckError):
        checks.check_compare(rows, outputs["rounds"], self_compare=True)


def test_perturbed_correlation_is_rejected(outputs):
    rounds, rows = outputs["rounds"], _copy(outputs["eval"])
    # The first round's ratings are all equal, so its tau is undefined.
    key = (rows[-1]["round_id"], int(rows[-1]["division"]))
    rows[-1]["kendall"] = repr(float(rows[-1]["kendall"]) + 1e-6)
    with pytest.raises(checks.CheckError):
        checks.check_round_metrics(rows, outputs["log"], rounds, [key])


def test_snapshot_state_check_rejects_a_missing_round(outputs):
    state = store.load_snapshot(outputs["snap"])
    with pytest.raises(checks.CheckError):
        checks.check_snapshot(state, outputs["rounds"][:-1])


def test_negative_performance_sum_is_rejected():
    round_input = rating.RoundInput("r0", [rating.DivisionResult(1, [("a", 2.0), ("b", 1.0)])])
    rows = [{"round_id": "r0", "division": "1", "perf": "0.1"},
            {"round_id": "r0", "division": "1", "perf": "-0.2"}]
    with pytest.raises(checks.CheckError):
        checks.check_perf_sums(rows, [round_input])


def test_sweep_check_rejects_a_stale_error_and_a_better_probe():
    rows = [{"param_value": "27.0", "best_K": "600.0", "mean_error": "1.0"}]
    checks.check_sweep(rows, [27.0], lambda v, k: 1.0 if k == 600.0 else 2.0,
                       (25.0, 1500.0))
    with pytest.raises(checks.CheckError):
        checks.check_sweep(rows, [27.0], lambda v, k: 1.5, (25.0, 1500.0))
    with pytest.raises(checks.CheckError):
        checks.check_sweep(rows, [27.0], lambda v, k: 1.0 if k == 600.0 else 0.5,
                           (25.0, 1500.0))


def test_references_agree_with_the_program():
    rng = random.Random(5)
    scores = [float(rng.randrange(6)) for _ in range(40)]
    ratings = [rng.gauss(1500.0, 300.0) for _ in range(40)]
    actual, expected, mu, var = rating.division_ranks(scores, ratings)
    for i, ranks in enumerate(checks.pairwise_ranks(scores, ratings)):
        for got, want in zip(ranks, (actual[i], expected[i], mu[i], var[i])):
            assert got == pytest.approx(want, rel=1e-12)
    assert checks.kendall_tau_b(ratings, scores) == pytest.approx(
        metrics.kendall_tau(ratings, scores), rel=1e-12)
    assert checks.spearman_mid_rank(ratings, scores) == pytest.approx(
        metrics.spearman_rho(ratings, scores), rel=1e-12)


def test_self_times_on_a_hand_made_tree():
    #   0 root [0, 10]
    #   1  a   [1, 4]      2 c [2, 3] under a
    #   3  b   [5, 9]      4 d [5, 6], 5 e [5.5, 7] overlapping d,
    #                      6 f [8.5, 9.5] overhanging b's end
    starts = [0.0, 1.0, 2.0, 5.0, 5.0, 5.5, 8.5]
    ends = [10.0, 4.0, 3.0, 9.0, 6.0, 7.0, 9.5]
    parents = [-1, 0, 1, 0, 3, 3, 3]
    assert spans.self_times(starts, ends, parents) == pytest.approx(
        [3.0, 2.0, 1.0, 1.5, 1.0, 1.5, 1.0])


def test_tracer_wraps_every_binding_and_restores_them():
    originals = (rating.division_ranks, metrics.division_ranks)
    assert originals[0] is originals[1]
    tracer = spans.Tracer()
    assert tracer.install() == []
    try:
        assert rating.division_ranks is metrics.division_ranks
        assert rating.division_ranks is not originals[0]
        replay_module = sys.modules["rankelo.replay"]
        assert replay_module.replay is not replay_module.replay.__wrapped__
        metrics.division_metrics("r", 1, [3.0, 2.0, 1.0], [1500.0, 1400.0, 1300.0])
    finally:
        tracer.uninstall()
    assert (rating.division_ranks, metrics.division_ranks) == originals
    assert tracer.names[0] == "rating.division_ranks" and tracer.sizes[0] == 3
    assert tracer.names[1:] == ["metrics.kendall_tau", "metrics.spearman_rho"]


@pytest.mark.parametrize("trace", [0, 1])
def test_a_tiny_run_reports_every_declared_metric(monkeypatch, capsys, trace):
    monkeypatch.setitem(run.WORKLOADS, "tiny", run.Workload(
        sim=dict(players=60, rounds=8, participation=0.8, div1_fraction=0.3,
                 tie_step=25.0),
        sweep_rounds=2, sweep_grid="27", update_rounds=3, update_passes=4,
        sample_per_division=2))
    monkeypatch.setattr(run, "MIN_ROUNDS", 1)
    monkeypatch.setattr(run, "MIN_UPDATE_SAMPLES", 12)
    code = run.main(["--workload", "tiny", "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = run.declared()["per_layer" if trace else "end_to_end"]
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in spec]
