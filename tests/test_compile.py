"""Compiled histories: compile once, replay many times, with the same bits."""

import copy
import io
import math
import random
import sys
from dataclasses import fields
from itertools import count

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rankelo import (
    DivisionResult,
    EngineState,
    InputError,
    PROFILES,
    PerformanceBreakdown,
    RoundInput,
    SimConfig,
    SweepSpec,
    aggregate_error,
    generate_history,
    joint_search,
    rate_division,
    rate_round,
    rating_stats,
    replay,
    run_sweep,
    write_replay_log,
    write_rounds,
)
from rankelo.cli import run
from rankelo.rating import CompiledRound, bind, rate_compiled_round
from rankelo.replay import (REPLAY_LOG_HEADER, ReplayResult, compile_history,
                            division_errors)
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


def assert_bitwise_replay(got: ReplayResult, want: ReplayResult):
    """Equal states, round errors and, byte for byte, breakdown columns."""
    assert got.state == want.state
    assert got.round_errors == want.round_errors
    assert len(got.rounds) == len(want.rounds)
    for (_, a), (_, b) in zip(got.rounds, want.rounds):
        for f in fields(a):
            assert getattr(a, f.name).tobytes() == getattr(b, f.name).tobytes(), f.name


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
        records = iter([{f.name: getattr(breakdown, f.name)[a:b]
                         for f in fields(breakdown)}
                        for compiled, breakdown in result.rounds
                        for a, b in zip(compiled.bounds, compiled.bounds[1:]) if a != b])
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
                    assert np.array_equal(got[f.name], getattr(want, f.name))
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

    def test_resume_binds_to_the_snapshot_registry(self):
        rounds = shuffled_history(6)
        head = replay(rounds[:5], ELO2).state
        compiled = compile_history(rounds[5:])
        # known ids at their registry index, new ids past it by first appearance
        new = [p for p in compiled.players if p not in head.index]
        number = {**head.index, **dict(zip(new, count(len(head.ids))))}
        assert new and len(new) < len(compiled.players)   # both kinds
        for compiled_round in bind(compiled, head):
            assert compiled_round.players.tolist() == \
                [number[p] for p in compiled_round.ids]
        resumed = replay(compiled, ELO2, head, keep_observations=False).state
        assert resumed == replay(rounds, ELO2).state

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_a_split_replay_from_the_head_state_is_the_whole_replay(self, data):
        # ids shared across rounds, new ids, NUL and non-ASCII ids; tied scores
        pool = ODD_IDS + [f"p{k}" for k in range(6)]
        rounds = []
        for r in range(data.draw(st.integers(1, 6), label="rounds")):
            ids = data.draw(st.lists(st.sampled_from(pool), max_size=9, unique=True))
            cut = data.draw(st.integers(0, len(ids)))
            scores = data.draw(st.lists(st.integers(0, 3).map(float),
                                        min_size=len(ids), max_size=len(ids)))
            entries = list(zip(ids, scores))
            rounds.append(RoundInput(f"r{r}", [DivisionResult(1, entries[:cut]),
                                               DivisionResult(2, entries[cut:])]))
        k = data.draw(st.integers(0, len(rounds)), label="k")
        params = data.draw(st.sampled_from([ELO, ELO2]), label="params")
        whole = replay(rounds, params)
        head = replay(rounds[:k], params).state
        tail = compile_history(rounds[k:])
        assert bind(tail, EngineState.fresh(params)) is tail.rounds
        got = replay(tail, params, head)
        assert_bitwise_replay(got, ReplayResult(whole.state, whole.rounds[k:],
                                                whole.round_errors[k:]))

    def test_one_compiled_history_replays_from_any_state(self):
        rounds = [RoundInput("r0", [DivisionResult(1, [("a", 2.0), ("b", 1.0)])]),
                  RoundInput("r1", [DivisionResult(1, [("c", 2.0), ("a", 1.0)])])]
        compiled = compile_history(rounds)
        growing = EngineState(ids=["b", "z"], rating=[1300.0, 1700.0],
                              num_rounds=[2, 5], r1=1250.0)
        for state in (EngineState.fresh(ELO2),
                      EngineState(ids=["z"], rating=[1500.0], num_rounds=[1]),
                      EngineState(ids=["z", "a"], rating=[1500.0, 1400.0],
                                  num_rounds=[1, 3]),
                      growing, growing):   # the second run finds a, b and c known
            want = replay(rounds, ELO2, copy.deepcopy(state))
            assert_bitwise_replay(replay(compiled, ELO2, state), want)

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
        # rate_round's record, every division in entry order
        rounds = shuffled_history(seed, rounds=4)
        for played, round_input in enumerate(rounds):
            state = replay(rounds[:played], ELO2).state
            other = replay(rounds[:played], ELO2).state
            compiled, = bind(compile_history([round_input]), state)
            got = rate_compiled_round(compiled, state, ELO2)
            want_compiled, want = rate_round(round_input, other, ELO2)
            assert len(want_compiled.numbers) == len(round_input.divisions) > 1
            for f in fields(got):
                got_column, want_column = getattr(got, f.name), getattr(want, f.name)
                assert got_column.tobytes() == want_column.tobytes(), f.name

    @pytest.mark.parametrize("played", [0, 3], ids=["fresh", "resumed"])
    def test_rate_round_returns_the_replay_record(self, played):
        # one round from one state: rate_round's record is the pair replay
        # keeps, and the readers of replay records take it as is
        rounds = shuffled_history(7, rounds=played + 1)
        state = replay(rounds[:played], ELO2).state
        round_input = rounds[-1]
        assert len(round_input.divisions) > 1
        result = replay([round_input], ELO2, copy.deepcopy(state))
        record = rate_round(round_input, state, ELO2)
        assert state == result.state
        for got, want in zip(record, *result.rounds, strict=True):
            for f in fields(got):
                x, y = getattr(got, f.name), getattr(want, f.name)
                if isinstance(x, np.ndarray):
                    assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), f.name
                else:
                    assert x == y, f.name
        assert aggregate_error([record]) == aggregate_error(result.rounds)
        logs = [io.StringIO(), io.StringIO()]
        write_replay_log([record], logs[0])
        write_replay_log(result.rounds, logs[1])
        assert logs[0].getvalue() == logs[1].getvalue()


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

    @pytest.mark.parametrize("entries,message", [
        ([("a", 1.0), ("a", 2.0)], "player 'a' appears twice in round 'r2'"),
        ([("a", 1.0), ("new", math.nan)], "non-finite score in division 4"),
        ([("a", 1.0), ("new", -math.inf)], "non-finite score in division 4"),
        ([("", 1.0)], "player ids must be non-empty"),
        ([("a", 1.0), ("", 2.0), ("", 3.0)], "player ids must be non-empty"),
    ], ids=["repeated_player", "nan_score", "inf_score", "empty_player", "empty_twice"])
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

    def test_repeated_round_id_raises_before_any_round_is_rated(self):
        rounds = [RoundInput("r1", [DivisionResult(1, [("a", 2.0), ("b", 1.0)])]),
                  RoundInput("r1", [DivisionResult(1, [("c", 2.0), ("d", 1.0)])])]
        message = "round 'r1' appears twice"
        with pytest.raises(InputError, match=message):
            compile_history(rounds)
        state = EngineState.fresh(ELO2)
        with pytest.raises(InputError, match=message):
            replay(rounds, ELO2, state)
        assert state == EngineState.fresh(ELO2) and state.index == {}
        # rate_round compiles one round per call, so successive calls may reuse an id
        for round_input in rounds:
            rate_round(round_input, state, ELO2)
        assert state.rounds_processed == 2 and state.ids == ["a", "b", "c", "d"]

    def test_non_finite_rating_names_its_division(self):
        # EngineState refuses a non-finite rating, so the replay's own check
        # is reached through a state changed after its construction
        state = EngineState(ids=["a", "b"], rating=[1300.0, 1300.0], num_rounds=[1, 1])
        state.rating[1] = math.inf
        round_input = RoundInput("r", [DivisionResult(3, [("a", 1.0)]),
                                       DivisionResult(8, [("b", 1.0), ("c", 2.0)])])
        with pytest.raises(InputError, match="non-finite rating in division 8"):
            replay([round_input], ELO, state)


# Floats the replay log must spell exactly: both zeros, subnormals, the
# smallest normal, values near the float64 limits, and common cells.
LOG_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
              1e308, -1e308, 1.0, 0.1, 1200.0, 3.5]


def log_record(round_id, divisions):
    """One ``(CompiledRound, PerformanceBreakdown)`` record from ``(number,
    entries)`` divisions, each entry ``(id, nr, eleven float cells)``."""
    entries = [entry for _, division in divisions for entry in division]
    bounds = np.cumsum([0] + [len(division) for _, division in divisions])
    n = len(entries)
    compiled = CompiledRound(round_id, tuple(number for number, _ in divisions),
                             tuple(bounds.tolist()), tuple(p for p, _, _ in entries),
                             np.zeros(n), np.arange(n), np.arange(n))
    cells = np.array([c for _, _, c in entries], dtype=np.float64).reshape(n, 11)
    return compiled, PerformanceBreakdown(np.array([nr for _, nr, _ in entries], np.int64),
                                          *cells.T.copy())


def naive_replay_log(records) -> str:
    """The replay log written cell by cell: ``repr`` of each value, and each
    id or round id quoted, as ``csv.QUOTE_MINIMAL`` with a carriage return."""
    def quoted(text):
        return ('"' + text.replace('"', '""') + '"'
                if any(c in text for c in ',"\r\n') else text)
    names = [f.name for f in fields(PerformanceBreakdown)]
    lines = [",".join(REPLAY_LOG_HEADER)]
    for compiled, breakdown in records:
        for number, a, b in zip(compiled.numbers, compiled.bounds, compiled.bounds[1:]):
            for k in range(a, b):
                lines.append(",".join(
                    [quoted(compiled.round_id), str(number), quoted(compiled.ids[k]),
                     str(b - a)] + [repr(getattr(breakdown, name)[k].item()) for name in names]))
    return "\n".join(lines) + "\n"


log_entries = st.lists(st.tuples(
    st.text(st.sampled_from('ab,"\r\né'), min_size=1, max_size=4),
    st.integers(-2 ** 63, 2 ** 63 - 1),
    st.lists(st.one_of(st.sampled_from(LOG_FLOATS), st.floats()), min_size=11, max_size=11)),
    max_size=6)
log_records = st.lists(st.builds(log_record, st.text(st.sampled_from('r1,"'), min_size=1),
                                 st.lists(st.tuples(st.integers(1, 3), log_entries),
                                          max_size=3)), max_size=3)


class TestReplayLog:
    @settings(max_examples=80, deadline=None)
    @example([log_record('r,"0"', [
        # -0.0 and 0.0 in one division, in different columns, beside
        # repeats, subnormals and +-1e308, under ids that need quotes
        (1, [('say "hi"', 1, [-0.0, 0.0, 5e-324, 1e308, -1e308, 1e-310,
                              1.0, 1.0, 0.1, 0.1, -0.0]),
             ("a,b", 2, [0.0, -0.0, 5e-324, -1e308, 1e308, 1e-310,
                         1.0, 0.1, 0.1, 1.0, 0.0])]),
        (2, []),
        (3, [("plain", 3, [1200.0] * 11), ("x", 1, [-0.0] * 11)]),
    ])])
    @given(log_records)
    def test_every_cell_is_its_values_repr(self, records):
        log = io.StringIO()
        write_replay_log(records, log)
        assert log.getvalue() == naive_replay_log(records)
