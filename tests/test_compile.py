"""Compiled histories: compile once, replay many times, with the same bits."""

import math
import random
import sys
from dataclasses import fields

import numpy as np
import pytest

from rankelo import (
    DivisionResult,
    EngineState,
    InputError,
    PROFILES,
    RoundInput,
    SimConfig,
    SweepSpec,
    generate_history,
    joint_search,
    rate_division,
    rate_round,
    rating_stats,
    replay,
    run_sweep,
    write_rounds,
)
from rankelo.cli import run
from rankelo.rating import rate_compiled_round
from rankelo.replay import ReplayResult, compile_history, division_errors
from rankelo.store import write_csv

ELO = PROFILES["elo"]
ELO2 = PROFILES["elo2"]

# Ids whose Python str order a numpy ``U`` array would not keep: it drops
# trailing NULs ("a" and "a\0" would tie), and non-ASCII code points.
ODD_IDS = ["a\0", "a", "A", "é", "z", "\U0001F600", "名前", "a\0\0"]


def shuffled_history(seed, rounds=12):
    """A tie-heavy simulated history with odd ids, every round's divisions
    and every division's entries in a random order."""
    rng = random.Random(seed)
    sim = generate_history(SimConfig(players=30, rounds=rounds, participation=0.7,
                                     arrival_rate=2.0, div1_fraction=0.4,
                                     tie_step=100.0, seed=seed))
    names = {}
    out = []
    for round_input in sim.rounds:
        divisions = []
        for division in round_input.divisions:
            entries = [(names.setdefault(pid, ODD_IDS[len(names)]
                                         if len(names) < len(ODD_IDS) else pid), score)
                       for pid, score in division.entries]
            rng.shuffle(entries)
            divisions.append(DivisionResult(division.division, entries))
        rng.shuffle(divisions)
        out.append(RoundInput(round_input.round_id, divisions))
    return out


def assert_same_replay(got: ReplayResult, want: ReplayResult):
    assert got.state == want.state
    assert got.state.index == want.state.index
    for name in ("round_errors", "count", "mean_error"):
        assert getattr(got, name) == getattr(want, name), name
    assert rating_stats(got) == rating_stats(want)
    assert len(got.rounds) == len(want.rounds)
    for (a, a_breakdown), (b, b_breakdown) in zip(got.rounds, want.rounds):
        assert (a.round_id, a.numbers, a.bounds, a.ids,
                list(division_errors(a, a_breakdown.perf))) == \
            (b.round_id, b.numbers, b.bounds, b.ids,
             list(division_errors(b, b_breakdown.perf)))
        assert a.scores.dtype == b.scores.dtype and np.array_equal(a.scores, b.scores)
        for f in fields(a_breakdown):
            x, y = getattr(a_breakdown, f.name), getattr(b_breakdown, f.name)
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name


class TestCompiledReplay:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("params", [ELO, ELO2], ids=["elo", "elo2"])
    def test_compiled_replay_equals_replay_of_rounds(self, seed, params):
        rounds = shuffled_history(seed)
        assert any(len({score for _, score in d.entries}) < len(d.entries)
                   for r in rounds for d in r.divisions)   # ties to break
        compiled = compile_history(rounds)
        want = replay(rounds, params)
        assert_same_replay(replay(compiled, params), want)
        assert_same_replay(replay(compiled, params), want)   # reusable

    @pytest.mark.parametrize("seed", [1, 2])
    def test_division_by_division_matches(self, seed):
        # rate_division ranks one division alone (its own id ranks, its own
        # arithmetic) from the pre-round ratings the replay gathered
        rounds = shuffled_history(seed)
        result = replay(compile_history(rounds), ELO2)
        records = iter([part for compiled, breakdown in result.rounds
                        for part in compiled.split(breakdown) if part.nr.size])
        ids, rating, num_rounds = [], np.empty(0), np.empty(0, np.int64)
        for played, round_input in enumerate(rounds):
            r1 = ELO2.initial_rating + ELO2.inflation / 100.0 * played
            for division in round_input.divisions:
                new = [pid for pid, _ in division.entries if pid not in ids]
                ids += new
                rating = np.concatenate((rating, np.full(len(new), r1)))
                num_rounds = np.concatenate((num_rounds, np.zeros(len(new), np.int64)))
            state = EngineState(ids=ids, rating=rating, num_rounds=num_rounds)
            for division in round_input.divisions:
                want = rate_division(division, state, ELO2)
                if not division.entries:
                    continue
                got = next(records)
                for f in fields(want):
                    assert np.array_equal(getattr(got, f.name), getattr(want, f.name))
                index = [state.index[pid] for pid, _ in division.entries]
                rating[index] += want.delta_r
                num_rounds[index] += 1
        assert next(records, None) is None
        assert np.array_equal(result.state.rating, rating)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_one_round_at_a_time_matches(self, seed):
        # rate_round compiles each round alone: its ids rank per round,
        # not over the history, and the bits do not move
        rounds = shuffled_history(seed)
        state = EngineState.fresh(ELO2)
        for round_input in rounds:
            rate_round(round_input, state, ELO2)
        assert state == replay(rounds, ELO2).state

    def test_resume_compiles_against_the_snapshot_registry(self):
        rounds = shuffled_history(6)
        head = replay(rounds[:5], ELO2).state
        compiled = compile_history(rounds[5:], head)
        assert compiled.registry == head.ids
        assert compiled.registry is not head.ids
        resumed = replay(compiled, ELO2, head, keep_observations=False).state
        assert resumed == replay(rounds, ELO2).state

    @pytest.mark.parametrize("ids", [list(reversed(ODD_IDS)), ["a\0", "a"]],
                             ids=["odd", "trailing_nul"])
    def test_canonical_order_sorts_ids_as_python_strings(self, ids):
        scores = [1.0] * len(ids)
        compiled_round, = compile_history(
            [RoundInput("r", [DivisionResult(1, list(zip(ids, scores)))])]).rounds
        # a fresh registry: every id is new, numbered in order of first appearance
        assert [compiled_round.ids[k] for k in np.argsort(compiled_round.players)] == ids
        assert compiled_round.players.tolist() == list(range(len(ids)))   # entry order
        assert [ids[k] for k in compiled_round.order] == sorted(ids)

    def test_canonical_order_is_score_descending_then_id(self):
        entries = [("b", 2.0), ("c", 5.0), ("a", 2.0), ("d", -0.0), ("e", 0.0)]
        compiled_round, = compile_history(
            [RoundInput("r", [DivisionResult(7, entries)])]).rounds
        assert [entries[k][0] for k in compiled_round.order] == ["c", "a", "b", "d", "e"]
        assert compiled_round.scores[compiled_round.order].tolist() == \
            [5.0, 2.0, 2.0, -0.0, 0.0]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_round_breakdown_is_in_entry_order(self, seed):
        # the step's round breakdown lines up with the round's entries:
        # rate_round's per-division breakdowns, concatenated
        rounds = shuffled_history(seed, rounds=4)
        for played, round_input in enumerate(rounds):
            state = replay(rounds[:played], ELO2).state
            other = replay(rounds[:played], ELO2).state
            compiled, = compile_history([round_input], state).rounds
            got = rate_compiled_round(compiled, state, ELO2)
            want = rate_round(round_input, other, ELO2)
            assert len(want) == len(round_input.divisions) > 1
            for f in fields(got):
                column = np.concatenate([getattr(b, f.name) for b in want])
                assert np.array_equal(getattr(got, f.name), column), f.name


class TestCompileOnce:
    @pytest.fixture
    def compiles(self, monkeypatch):
        """Counts every compile_history call, through any module's binding."""
        original = compile_history
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "rankelo"
                    and getattr(module, "compile_history", None) is original):
                monkeypatch.setattr(module, "compile_history", counting)
        return calls

    @pytest.fixture
    def replays(self, monkeypatch):
        original = replay
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "rankelo"
                    and getattr(module, "replay", None) is original):
                monkeypatch.setattr(module, "replay", counting)
        return calls

    def test_run_sweep(self, compiles, replays):
        rounds = shuffled_history(7, rounds=6)
        run_sweep(SweepSpec(target="bonus", grid=(0.0, 27.0), k_step=100.0), rounds)
        assert len(compiles) == 1 and len(replays) > 2

    def test_joint_search(self, compiles, replays):
        rounds = shuffled_history(8, rounds=6)
        joint_search((0.0, 63.0), (0.0, 27.0), rounds)
        assert len(compiles) == 1 and len(replays) > 2

    def test_compare(self, compiles, replays, tmp_path):
        path = tmp_path / "history.csv"
        write_rounds(shuffled_history(9, rounds=6), str(path))
        assert run(["compare", "--profile", "elo2", "--vs-profile", "elo",
                    "--input", str(path), "--output", str(tmp_path / "out.csv")]) == 0
        assert len(compiles) == 1 and len(replays) == 2

    @pytest.mark.parametrize("argv", [
        ["eval", "--report", "rounds", "--timeline"],
        ["compare", "--vs-timeline"],
    ], ids=["eval", "compare"])
    def test_timeline_commands(self, compiles, replays, tmp_path, argv):
        rounds = shuffled_history(10, rounds=6)
        assert sum(len(round_input.divisions) for round_input in rounds) > 6
        history, timeline = tmp_path / "history.csv", tmp_path / "timeline.csv"
        write_rounds(rounds, str(history))
        rng = random.Random(10)
        with open(timeline, "w", encoding="utf-8", newline="") as fh:
            write_csv(fh, ("round_id", "player_id", "rating_before"), (
                (round_input.round_id, player_id, rng.gauss(1500.0, 300.0))
                for round_input in rounds for division in round_input.divisions
                for player_id, _ in division.entries))
        assert run([*argv, str(timeline), "--input", str(history),
                    "--output", str(tmp_path / "out.csv")]) == 0
        assert len(compiles) == 1
        assert len(replays) == (argv[0] == "compare")


class TestRefusals:
    def rounds(self):
        return [RoundInput("r0", [DivisionResult(1, [("a", 2.0), ("b", 1.0)])]),
                RoundInput("r1", [DivisionResult(1, [("c", 2.0), ("a", 1.0)])])]

    def test_foreign_registry_refused(self):
        compiled = compile_history(self.rounds())
        other = EngineState(ids=["z"], rating=[1500.0], num_rounds=[1])
        with pytest.raises(InputError, match="compiled against another player registry"):
            replay(compiled, ELO, other)
        state = EngineState(ids=["a"], rating=[1500.0], num_rounds=[1])
        against_state = compile_history(self.rounds(), state)
        with pytest.raises(InputError, match="compiled against another player registry"):
            replay(against_state, ELO)   # a fresh registry is another one
        replay(against_state, ELO, state)
        with pytest.raises(InputError, match="compiled against another player registry"):
            replay(against_state, ELO, state)   # the registry has grown since

    @pytest.mark.parametrize("entries,message", [
        ([("a", 1.0), ("a", 2.0)], "player 'a' appears twice in round 'r2'"),
        ([("a", 1.0), ("new", math.nan)], "non-finite score in division 4"),
        ([("a", 1.0), ("new", -math.inf)], "non-finite score in division 4"),
    ], ids=["repeated_player", "nan_score", "inf_score"])
    def test_bad_round_raises_before_any_round_is_rated(self, entries, message):
        state = EngineState(ids=["b"], rating=[1300.0], num_rounds=[2], r1=1250.0)
        before = EngineState(ids=["b"], rating=[1300.0], num_rounds=[2], r1=1250.0)
        rounds = self.rounds() + [RoundInput("r2", [DivisionResult(4, entries)])]
        with pytest.raises(InputError, match=message):
            replay(rounds, ELO2, state)
        assert state == before and state.index == {"b": 0}
        with pytest.raises(InputError, match=message):
            rate_round(rounds[-1], state, ELO2)
        assert state == before and state.index == {"b": 0}

    def test_non_finite_rating_names_its_division(self):
        state = EngineState(ids=["a", "b"], rating=[1300.0, math.inf], num_rounds=[1, 1])
        round_input = RoundInput("r", [DivisionResult(3, [("a", 1.0)]),
                                       DivisionResult(8, [("b", 1.0), ("c", 2.0)])])
        with pytest.raises(InputError, match="non-finite rating in division 8"):
            replay([round_input], ELO, state)
