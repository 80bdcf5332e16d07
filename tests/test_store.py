"""Round files, timelines, and binary snapshots."""

import hashlib
import io
import math
import os
import re
import stat
import struct
import subprocess
import sys
import threading
from copy import deepcopy
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import rankelo
from rankelo import (
    DivisionResult,
    EngineState,
    InputError,
    PROFILES,
    ParseError,
    PlayerState,
    RoundInput,
    SimConfig,
    SnapshotError,
    export_snapshot,
    generate_history,
    get_or_create_player,
    load_snapshot,
    parse_rounds,
    parse_timeline,
    rate_round,
    replay,
    save_snapshot,
    write_rounds,
)
from rankelo.cli import run

ELO2 = PROFILES["elo2"]


def rounds_csv(text):
    return parse_rounds(io.StringIO(text))


class TestParseRounds:
    def test_empty_file(self):
        assert rounds_csv("") == []

    def test_bytes_not_utf8(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_bytes(b"round_id,division,player_id,score\nr1,1,\xff\xfe,10\n")
        with pytest.raises(ParseError, match="not valid UTF-8"):
            parse_rounds(path)

    def test_surrogate_escaped_id(self):
        with pytest.raises(ParseError, match="not valid UTF-8") as exc:
            rounds_csv("round_id,division,player_id,score\n"
                       "r1,1,a,10\nr1,1,b\udcff,5\n")
        assert exc.value.line == 3

    def test_header_only(self):
        assert rounds_csv("round_id,division,player_id,score\n") == []

    def test_one_round_two_divisions(self):
        rounds = rounds_csv(
            "round_id,division,player_id,score\n"
            "r1,1,alice,500\n"
            "r1,1,bob,450\n"
            "r1,2,carol,300\n")
        assert len(rounds) == 1
        assert rounds[0].round_id == "r1"
        assert [d.division for d in rounds[0].divisions] == [1, 2]
        assert rounds[0].divisions[0].entries == [("alice", 500.0), ("bob", 450.0)]
        assert rounds[0].divisions[1].entries == [("carol", 300.0)]

    def test_equal_decimals_tie(self):
        rounds = rounds_csv(
            "round_id,division,player_id,score\n"
            "r1,1,a,250.00\n"
            "r1,1,b,250.0\n"
            "r1,1,c,2.5e2\n")
        scores = [score for _, score in rounds[0].divisions[0].entries]
        assert scores[0] == scores[1] == scores[2] == 250.0

    def test_round_order_preserved(self):
        rounds = rounds_csv(
            "round_id,division,player_id,score\n"
            "later,1,a,1\n"
            "earlier,1,a,1\n")
        assert [r.round_id for r in rounds] == ["later", "earlier"]

    def test_wrong_header(self):
        with pytest.raises(ParseError) as exc:
            rounds_csv("round,division,player_id,score\na,1,b,2\n")
        assert exc.value.line == 1
        assert "unknown field 'round'" in str(exc.value)

    def test_reordered_header(self):
        with pytest.raises(ParseError, match="header must be"):
            rounds_csv("division,round_id,player_id,score\n")

    def test_malformed_score_reports_line(self):
        with pytest.raises(ParseError) as exc:
            rounds_csv(
                "round_id,division,player_id,score\n"
                "r1,1,a,10\n"
                "r1,1,b,ten\n")
        assert exc.value.line == 3
        assert "malformed score 'ten'" in str(exc.value)

    def test_non_finite_score(self):
        with pytest.raises(ParseError, match="finite"):
            rounds_csv("round_id,division,player_id,score\nr1,1,a,nan\n")

    def test_malformed_division(self):
        with pytest.raises(ParseError, match="malformed division"):
            rounds_csv("round_id,division,player_id,score\nr1,one,a,10\n")

    def test_missing_field(self):
        with pytest.raises(ParseError, match="expected 4 fields, got 3"):
            rounds_csv("round_id,division,player_id,score\nr1,1,a\n")

    # the third row starts on line 3 and, through a quoted line feed, ends on line 4
    def test_field_count_error_names_the_row_start(self):
        with pytest.raises(ParseError, match="expected 4 fields, got 5") as exc:
            rounds_csv('round_id,division,player_id,score\n'
                       'r1,1,a,10\nr1,1,"b\nc",5,7\nr1,1,d,3\n')
        assert exc.value.line == 3

    def test_oversized_cell_error_names_the_row_start(self):
        with pytest.raises(ParseError, match="field larger than field limit") as exc:
            rounds_csv('round_id,division,player_id,score\n'
                       f'r1,1,a,10\nr1,1,"b\n{"x" * 140_000}",5\n')
        assert exc.value.line == 3

    def test_rows_after_a_multiline_cell_keep_their_lines(self):
        with pytest.raises(ParseError, match="malformed score") as exc:
            rounds_csv('round_id,division,player_id,score\n'
                       'r1,1,"a\n\nb",10\n\nr1,1,c,ten\n')
        assert exc.value.line == 6

    def test_empty_ids(self):
        with pytest.raises(ParseError, match="non-empty"):
            rounds_csv("round_id,division,player_id,score\nr1,1,,10\n")

    def test_duplicate_player_in_round(self):
        with pytest.raises(ParseError, match="duplicate player 'a'"):
            rounds_csv(
                "round_id,division,player_id,score\n"
                "r1,1,a,10\n"
                "r1,2,a,20\n")

    def test_same_player_across_rounds_is_fine(self):
        rounds = rounds_csv(
            "round_id,division,player_id,score\n"
            "r1,1,a,10\n"
            "r2,1,a,20\n")
        assert len(rounds) == 2

    def test_non_contiguous_round(self):
        with pytest.raises(ParseError, match="not contiguous") as exc:
            rounds_csv(
                "round_id,division,player_id,score\n"
                "r1,1,a,10\n"
                "r2,1,b,20\n"
                "r1,1,c,30\n")
        assert exc.value.line == 4

    def test_blank_lines_skipped(self):
        rounds = rounds_csv(
            "round_id,division,player_id,score\n"
            "\n"
            "r1,1,a,10\n"
            "\n")
        assert len(rounds) == 1

    def test_path_source(self, tmp_path):
        path = tmp_path / "rounds.csv"
        path.write_text("round_id,division,player_id,score\nr1,1,a,10\n")
        rounds = parse_rounds(path)
        assert rounds[0].divisions[0].entries == [("a", 10.0)]


class TestWriteRounds:
    def test_roundtrip_simulated_history(self):
        history = generate_history(SimConfig(
            players=15, rounds=6, participation=0.8, tie_step=50.0,
            div1_fraction=0.4, seed=7))
        buf = io.StringIO()
        write_rounds(history.rounds, buf)
        parsed = parse_rounds(io.StringIO(buf.getvalue()))
        assert parsed == history.rounds

    def test_roundtrip_preserves_awkward_floats(self):
        rounds = [RoundInput("r1", [DivisionResult(1, [
            ("a", 0.1), ("b", 1e-17), ("c", 12345678901234.5)])])]
        buf = io.StringIO()
        write_rounds(rounds, buf)
        assert parse_rounds(io.StringIO(buf.getvalue())) == rounds

    def test_writes_are_deterministic(self, tmp_path):
        history = generate_history(SimConfig(players=8, rounds=4, seed=1))
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rounds(history.rounds, first)
        write_rounds(history.rounds, second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("round_id,player_id,named", [
        ("r1", " a", "' a'"),
        ("r1 ", "a", "'r1 '"),
        ("r1", "a\udcff", "'a\\udcff'"),
        ("r1", "", "''"),
    ], ids=["player_space", "round_space", "player_not_utf8", "player_empty"])
    def test_id_that_would_not_read_back_is_refused(self, tmp_path, round_id,
                                                     player_id, named):
        rounds = [RoundInput("r0", [DivisionResult(1, [("b", 1.0)])]),
                  RoundInput(round_id, [DivisionResult(1, [("b", 1.0), (player_id, 2.0)])])]
        path = tmp_path / "rounds.csv"
        with pytest.raises(InputError, match=re.escape(f"id {named} would not read back")):
            write_rounds(rounds, path)
        assert not path.exists()


class TestParseTimeline:
    def test_good_file(self):
        timeline = parse_timeline(io.StringIO(
            "round_id,player_id,rating_before\n"
            "r1,a,1200\n"
            "r1,b,1315.25\n"
            "r2,a,1210.5\n"))
        assert timeline == {("r1", "a"): 1200.0, ("r1", "b"): 1315.25,
                            ("r2", "a"): 1210.5}

    def test_empty(self):
        assert parse_timeline(io.StringIO("")) == {}

    def test_bytes_not_utf8(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"round_id,player_id,rating_before\nr1,a\xff,1200\n")
        with pytest.raises(ParseError, match="not valid UTF-8"):
            parse_timeline(path)

    def test_surrogate_escaped_round_id(self):
        with pytest.raises(ParseError, match="not valid UTF-8") as exc:
            parse_timeline(io.StringIO(
                "round_id,player_id,rating_before\nr\udcff,a,1200\n"))
        assert exc.value.line == 2

    @pytest.mark.parametrize("row", ["r1,,1200", ",a,1200", " , ,1200"],
                             ids=["player_id", "round_id", "both_blank"])
    def test_empty_ids(self, row):
        with pytest.raises(ParseError, match="non-empty") as exc:
            parse_timeline(io.StringIO(f"round_id,player_id,rating_before\n{row}\n"))
        assert exc.value.line == 2

    def test_duplicate_entry(self):
        with pytest.raises(ParseError, match="duplicate rating"):
            parse_timeline(io.StringIO(
                "round_id,player_id,rating_before\n"
                "r1,a,1200\n"
                "r1,a,1201\n"))

    def test_bad_header(self):
        with pytest.raises(ParseError, match="unknown field"):
            parse_timeline(io.StringIO("round_id,player,rating_before\n"))

    def test_malformed_rating(self):
        with pytest.raises(ParseError) as exc:
            parse_timeline(io.StringIO(
                "round_id,player_id,rating_before\nr1,a,high\n"))
        assert exc.value.line == 2


def resign(path, old: bytes, new: bytes) -> None:
    """Replace the one occurrence of ``old`` in a snapshot and fix its checksum."""
    payload = path.read_bytes()[:-8]
    assert payload.count(old) == 1
    payload = payload.replace(old, new)
    path.write_bytes(payload + hashlib.blake2b(payload, digest_size=8).digest())


def replay_history(seed=5, rounds=20):
    history = generate_history(SimConfig(
        players=12, rounds=rounds, participation=0.9, div1_fraction=0.5,
        seed=seed))
    return history.rounds


def states_equal(a: EngineState, b: EngineState) -> bool:
    """Same players in the same order, with bit-identical columns."""
    return ((a.r1, a.rounds_processed, a.ids) == (b.r1, b.rounds_processed, b.ids)
            and a.rating.tobytes() == b.rating.tobytes()
            and a.num_rounds.tobytes() == b.num_rounds.tobytes())


def one_player(rating=1300.0, num_rounds=2, player_id="pa"):
    return EngineState(ids=[player_id], rating=[rating], num_rounds=[num_rounds])


class TestSnapshots:
    def test_fresh_state_roundtrip(self, tmp_path):
        state = EngineState.fresh(ELO2)
        path = tmp_path / "fresh.snap"
        save_snapshot(state, path)
        assert states_equal(load_snapshot(path), state)

    def test_mid_replay_roundtrip(self, tmp_path):
        state = replay(replay_history(), ELO2).state
        path = tmp_path / "mid.snap"
        save_snapshot(state, path)
        loaded = load_snapshot(path)
        assert states_equal(loaded, state)
        assert loaded.rounds_processed == 20
        assert loaded.r1 == state.r1

    def test_split_replay_is_bit_identical(self, tmp_path):
        rounds = replay_history(seed=9, rounds=16)
        whole = replay(rounds, ELO2).state

        first = replay(rounds[:7], ELO2).state
        path = tmp_path / "k7.snap"
        save_snapshot(first, path)
        resumed = replay(rounds[7:], ELO2, state=load_snapshot(path)).state
        assert states_equal(resumed, whole)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "t.snap"
        save_snapshot(EngineState.fresh(ELO2), path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_corrupted_byte(self, tmp_path):
        state = replay(replay_history(), ELO2).state
        path = tmp_path / "c.snap"
        save_snapshot(state, path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="checksum"):
            load_snapshot(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "m.snap"
        path.write_bytes(b"JUNK" + bytes(40))
        with pytest.raises(SnapshotError, match="not a snapshot file"):
            load_snapshot(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v.snap"
        save_snapshot(EngineState.fresh(ELO2), path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        payload = bytes(raw[:-8])
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        path.write_bytes(payload + digest)
        with pytest.raises(SnapshotError) as exc:
            load_snapshot(path)
        assert str(exc.value) == ("unsupported snapshot version 99: only version 2 is "
                                  "read; re-rate the rounds to write a new snapshot")

    def test_trailing_data(self, tmp_path):
        path = tmp_path / "x.snap"
        save_snapshot(EngineState.fresh(ELO2), path)
        raw = path.read_bytes()
        payload = raw[:-8] + b"\x00" * 4
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        path.write_bytes(payload + digest)
        with pytest.raises(SnapshotError, match="trailing data"):
            load_snapshot(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.snap"
        path.write_bytes(b"")
        with pytest.raises(SnapshotError, match="truncated"):
            load_snapshot(path)

    def test_player_id_not_utf8(self, tmp_path):
        path = tmp_path / "u.snap"
        save_snapshot(one_player(), path)
        resign(path, b"pa", b"p\xff")
        with pytest.raises(SnapshotError, match="UTF-8"):
            load_snapshot(path)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rating(self, tmp_path, bad):
        path = tmp_path / "n.snap"
        save_snapshot(one_player(), path)
        resign(path, struct.pack("<d", 1300.0), struct.pack("<d", bad))
        with pytest.raises(SnapshotError, match="non-finite rating for player 'pa'"):
            load_snapshot(path)

    def test_round_count_above_2_53(self, tmp_path):
        path = tmp_path / "k.snap"
        save_snapshot(one_player(num_rounds=2 ** 53), path)
        assert load_snapshot(path).num_rounds.tolist() == [2 ** 53]
        resign(path, struct.pack("<dQ", 1300.0, 2 ** 53), struct.pack("<dQ", 1300.0, 2 ** 53 + 1))
        with pytest.raises(SnapshotError, match="round count 9007199254740993"):
            load_snapshot(path)

    def test_rounds_processed_above_2_53(self, tmp_path):
        path = tmp_path / "p.snap"
        save_snapshot(EngineState(rounds_processed=2 ** 53), path)
        assert load_snapshot(path).rounds_processed == 2 ** 53
        resign(path, b"RSNP\x02" + struct.pack("<Q", 2 ** 53),
               b"RSNP\x02" + struct.pack("<Q", 2 ** 53 + 1))
        with pytest.raises(SnapshotError, match="rounds_processed 9007199254740993"):
            load_snapshot(path)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_new_player_rating(self, tmp_path, bad):
        path = tmp_path / "r.snap"
        save_snapshot(EngineState(r1=1263.0), path)
        resign(path, struct.pack("<d", 1263.0), struct.pack("<d", bad))
        with pytest.raises(SnapshotError, match="non-finite new-player rating"):
            load_snapshot(path)

    @pytest.mark.parametrize("round_id,player_id", [("r", "x\udcff"), ("r\udcff", "x")],
                             ids=["player_id", "round_id"])
    def test_id_that_is_not_utf8_is_refused_on_save(self, tmp_path, round_id, player_id):
        state = EngineState.fresh(ELO2)
        rate_round(RoundInput(round_id, [DivisionResult(1, [(player_id, 2.0), ("b", 1.0)])]),
                   state, ELO2)
        path = tmp_path / "s.snap"
        bad = player_id if round_id == "r" else round_id
        with pytest.raises(InputError) as exc:
            save_snapshot(state, path)
        assert str(exc.value) == f"{bad!r} is not valid UTF-8"
        assert not path.exists()


utf8_text = st.text(st.characters(codec="utf-8"), max_size=6)


@st.composite
def engine_states(draw) -> dict:
    """``EngineState`` arguments at the edges a snapshot must hold: ids with
    NUL and non-ASCII text, ratings at +-1.7e308 and -0.0, round counts
    anywhere in [0, 2**63) and beside the 2**53 cap, and last round ids
    that may be empty.  ``EngineState`` refuses some of them."""
    ids = draw(st.lists(st.one_of(st.sampled_from(["", "\0", "a\0", "ä", "名前", "🀄"]),
                                  utf8_text), unique=True, max_size=8))
    ratings = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from([1.7e308, -1.7e308, -0.0]))
    counts = st.one_of(st.integers(0, 2 ** 53), st.integers(0, 2 ** 63 - 1),
                       st.sampled_from([2 ** 53, 2 ** 53 + 1]))
    return dict(
        ids=ids, rating=draw(st.lists(ratings, min_size=len(ids), max_size=len(ids))),
        num_rounds=draw(st.lists(counts, min_size=len(ids), max_size=len(ids))),
        r1=draw(st.floats(allow_nan=False, allow_infinity=False)),
        rounds_processed=draw(counts), params=draw(st.sampled_from([None, *PROFILES.values()])),
        last_round_id=draw(st.none() | utf8_text))


@st.composite
def small_rounds(draw, ids: list[str]) -> RoundInput:
    """A round, its id sometimes empty, of one division of up to four
    players, known ones from ``ids`` or new."""
    players = draw(st.lists(st.sampled_from(ids) | utf8_text if ids else utf8_text,
                            unique=True, max_size=4))
    scores = st.sampled_from([0.0, 1.0, 2.5])
    round_id = draw(utf8_text.filter(bool) | st.just(""))
    return RoundInput(round_id, [DivisionResult(1, [(p, draw(scores))
                                                          for p in players])])


def test_every_accepted_state_round_trips(tmp_path):
    """Every drawn state is refused by ``EngineState``, or saves and loads
    back ``==`` after one round that it rates or refuses untouched."""
    path = tmp_path / "s.snap"

    @settings(max_examples=200, deadline=None, database=None)
    @given(drawn=engine_states(), data=st.data())
    def check(drawn, data):
        try:
            state = EngineState(**drawn)
        except InputError:
            return
        before = deepcopy(state)
        params = data.draw(st.sampled_from(list(PROFILES.values())))
        try:
            rate_round(data.draw(small_rounds(state.ids)), state, params)
        except InputError:
            assert state == before
        save_snapshot(state, path)
        loaded = load_snapshot(path)
        assert loaded == state and states_equal(loaded, state)
        assert struct.pack("<d", loaded.r1) == struct.pack("<d", state.r1)
        assert loaded.index == state.index

    check()


class TestRegistration:
    """``get_or_create_player`` registers an id in every column at once: the
    state it leaves saves, loads, exports and rates like any other."""

    @staticmethod
    def start(kind: str, tmp_path) -> EngineState:
        if kind == "fresh":
            return EngineState.fresh(ELO2)
        save_snapshot(replay(replay_history(rounds=3), ELO2).state, tmp_path / "start.snap")
        return load_snapshot(tmp_path / "start.snap")

    @pytest.mark.parametrize("kind", ["fresh", "snapshot"])
    def test_registered_state_is_whole(self, tmp_path, kind):
        state = self.start(kind, tmp_path)
        known = len(state.ids)
        assert get_or_create_player(state, "x") == known
        assert len(state.ids) == state.rating.size == state.num_rounds.size == known + 1
        assert (state.rating[known], state.num_rounds[known]) == (state.r1, 0)
        assert state.players["x"] == PlayerState(state.r1, 0)
        save_snapshot(state, tmp_path / "x.snap")
        assert states_equal(load_snapshot(tmp_path / "x.snap"), state)
        buf = io.StringIO()
        export_snapshot(state, buf)
        assert f"x,{state.r1!r},0" in buf.getvalue().splitlines()

    @pytest.mark.parametrize("kind", ["fresh", "snapshot"])
    def test_rating_after_registration_is_unchanged(self, tmp_path, kind):
        plain, registered = self.start(kind, tmp_path), self.start(kind, tmp_path)
        get_or_create_player(registered, "x")
        entries = [("x", 3.0)] + [(p, 2.0) for p in plain.ids[:2]] + [("y", 1.0)]
        round_input = RoundInput("next", [DivisionResult(1, entries)])
        _, want = rate_round(round_input, plain, ELO2)
        _, got = rate_round(round_input, registered, ELO2)
        assert registered == plain
        for name in ("rating_before", "nr", "delta_r"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


class TestSnapshotVersions:
    def test_v2_layout(self, tmp_path):
        state = EngineState(ids=["b", "ä", ""], rating=[1300.5, -2.0, 1e300],
                            num_rounds=[3, 0, 2 ** 40], r1=1201.26,
                            rounds_processed=2, params=ELO2, last_round_id="r,7")
        path = tmp_path / "v2.snap"
        save_snapshot(state, path)
        data = path.read_bytes()
        payload = data[:-8]
        assert data[-8:] == hashlib.blake2b(payload, digest_size=8).digest()
        assert payload[:5] == b"RSNP\x02"
        head = struct.unpack_from("<QdQ7dI", payload, 5)
        assert head[:3] == (2, 1201.26, 3)
        assert head[3:10] == (600.0, 4.0, 6.75, 27.0, 63.0, 1200.0, 0.5)
        offset = 5 + struct.calcsize("<QdQ7dI")
        assert payload[offset:offset + head[10]] == b"r,7"
        offset += head[10]
        ends = struct.unpack_from("<3Q", payload, offset)
        assert ends == (1, 3, 3)
        offset += 24
        assert payload[offset:offset + 3] == "bä".encode("utf-8")
        offset += 3
        assert struct.unpack_from("<3d3Q", payload, offset) == \
            (1300.5, -2.0, 1e300, 3, 0, 2 ** 40)
        assert offset + 48 == len(payload)
        loaded = load_snapshot(path)
        assert states_equal(loaded, state)
        assert (loaded.params, loaded.last_round_id) == (ELO2, "r,7")

    def test_unknown_params_and_round_stay_unknown(self, tmp_path):
        path = tmp_path / "u.snap"
        save_snapshot(one_player(), path)
        loaded = load_snapshot(path)
        assert (loaded.params, loaded.last_round_id) == (None, None)
        assert loaded.players == {"pa": PlayerState(1300.0, 2)}

    def test_replay_records_params_and_last_round(self, tmp_path):
        rounds = replay_history()
        path = tmp_path / "r.snap"
        save_snapshot(replay(rounds, ELO2).state, path)
        loaded = load_snapshot(path)
        assert (loaded.params, loaded.last_round_id) == (ELO2, rounds[-1].round_id)

    def test_v2_duplicate_player(self, tmp_path):
        path = tmp_path / "d.snap"
        save_snapshot(EngineState(ids=["pa", "pb"], rating=[1.0, 2.0],
                                  num_rounds=[0, 0]), path)
        resign(path, b"papb", b"papa")
        with pytest.raises(SnapshotError, match="duplicate player 'pa'"):
            load_snapshot(path)

    def test_v2_offsets_must_ascend(self, tmp_path):
        path = tmp_path / "o.snap"
        save_snapshot(EngineState(ids=["pa", "pb"], rating=[1.0, 2.0],
                                  num_rounds=[0, 0]), path)
        resign(path, struct.pack("<2Q", 2, 4), struct.pack("<2Q", 3, 2))
        with pytest.raises(SnapshotError, match="offsets are not ascending"):
            load_snapshot(path)

    @pytest.mark.parametrize("cut", [1, 8, 16, 200])
    def test_v2_truncated(self, tmp_path, cut):
        path = tmp_path / "t.snap"
        save_snapshot(replay(replay_history(), ELO2).state, path)
        payload = path.read_bytes()[:-8 - cut]
        path.write_bytes(payload + hashlib.blake2b(payload, digest_size=8).digest())
        with pytest.raises(SnapshotError, match="truncated"):
            load_snapshot(path)

    def test_v2_count_past_the_end(self, tmp_path):
        path = tmp_path / "c.snap"
        save_snapshot(one_player(), path)
        resign(path, struct.pack("<dQ", 1200.0, 1), struct.pack("<dQ", 1200.0, 2 ** 61))
        with pytest.raises(SnapshotError, match="truncated"):
            load_snapshot(path)

    def test_v2_trailing_data(self, tmp_path):
        path = tmp_path / "x.snap"
        save_snapshot(one_player(), path)
        payload = path.read_bytes()[:-8] + b"\x00" * 16
        path.write_bytes(payload + hashlib.blake2b(payload, digest_size=8).digest())
        with pytest.raises(SnapshotError, match="trailing data"):
            load_snapshot(path)

    def test_v2_invalid_params(self, tmp_path):
        path = tmp_path / "p.snap"
        save_snapshot(EngineState.fresh(ELO2), path)
        resign(path, struct.pack("<d", 600.0), struct.pack("<d", -600.0))
        with pytest.raises(SnapshotError, match="invalid rating parameters: "
                                                "k_factor must be > 0"):
            load_snapshot(path)

    def test_v2_last_round_id_not_utf8(self, tmp_path):
        path = tmp_path / "l.snap"
        save_snapshot(EngineState(last_round_id="rz"), path)
        resign(path, b"rz", b"r\xff")
        with pytest.raises(SnapshotError, match="last round id is not valid UTF-8"):
            load_snapshot(path)


class TestResumeFromV1:
    """A version 1 snapshot recorded neither the parameters nor a round id,
    so a resume from one could check neither: it is refused, and the resume
    it stood for runs from a snapshot that records both."""

    def write_history(self, tmp_path):
        rounds = replay_history(seed=9, rounds=16)
        paths = {}
        for name, part in (("whole", rounds), ("head", rounds[:7]), ("tail", rounds[7:])):
            paths[name] = tmp_path / f"{name}.csv"
            write_rounds(part, paths[name])
        return rounds, paths

    def test_resume_equals_an_uninterrupted_replay(self, tmp_path, capsys):
        rounds, paths = self.write_history(tmp_path)
        logs = {name: tmp_path / f"{name}.log" for name in ("whole", "head", "tail")}
        assert run(["rate", "--profile", "elo2", "--input", str(paths["whole"]),
                    "--output", str(logs["whole"]),
                    "--snapshot-out", str(tmp_path / "whole.snap")]) == 0
        assert run(["rate", "--profile", "elo2", "--input", str(paths["head"]),
                    "--output", str(logs["head"]),
                    "--snapshot-out", str(tmp_path / "head.snap")]) == 0
        assert run(["rate", "--profile", "elo2", "--input", str(paths["tail"]),
                    "--snapshot-in", str(tmp_path / "head.snap"),
                    "--output", str(logs["tail"]),
                    "--snapshot-out", str(tmp_path / "resumed.snap")]) == 0
        capsys.readouterr()
        head_log = logs["head"].read_bytes()
        tail_log = logs["tail"].read_bytes()
        header = head_log[:head_log.index(b"\n") + 1]
        assert tail_log.startswith(header)
        assert head_log + tail_log[len(header):] == logs["whole"].read_bytes()
        resumed = load_snapshot(tmp_path / "resumed.snap")
        assert states_equal(resumed, replay(rounds, ELO2).state)
        assert (resumed.params, resumed.last_round_id) == (ELO2, rounds[-1].round_id)
        assert (tmp_path / "resumed.snap").read_bytes() == \
            (tmp_path / "whole.snap").read_bytes()

    def test_v1_records_neither_parameters_nor_rounds(self, tmp_path, capsys):
        """Resuming an ``elo2`` history under ``--profile elo`` from a version 1
        file, which would re-rate every round it applied, exits 1 and writes
        nothing."""
        _, paths = self.write_history(tmp_path)
        payload = b"RSNP\x01" + struct.pack("<QdQ", 7, 1200.0, 0)   # no players
        v1 = tmp_path / "v1.snap"
        v1.write_bytes(payload + hashlib.blake2b(payload, digest_size=8).digest())
        log, out = tmp_path / "out.log", tmp_path / "out.snap"
        assert run(["rate", "--profile", "elo", "--input", str(paths["whole"]),
                    "--snapshot-in", str(v1), "--output", str(log),
                    "--snapshot-out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: unsupported snapshot version 1: only version 2 is read; "
            "re-rate the rounds to write a new snapshot\n")
        assert not log.exists() and not out.exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs POSIX files and rlimits")
class TestSnapshotWrite:
    """``save_snapshot`` replaces a regular file only once the new bytes are
    written, so a failed ``--snapshot-out`` keeps the state it resumed from."""

    def test_failed_write_keeps_the_snapshot(self, tmp_path):
        rounds = replay_history(seed=9, rounds=16)
        write_rounds(rounds[7:], tmp_path / "tail.csv")
        snap = tmp_path / "s.snap"
        save_snapshot(replay(rounds[:7], ELO2).state, snap)
        before = snap.read_bytes()
        limit = len(before) // 2   # the child may write no file past this size
        code = "\n".join([
            "import resource, sys",
            f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, {limit}))",
            "from rankelo.cli import run",
            "sys.exit(run(sys.argv[1:]))",
        ])
        src = str(Path(rankelo.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-B", "-c", code, "rate", "--profile", "elo2",
             "--input", str(tmp_path / "tail.csv"),
             "--snapshot-in", str(snap), "--snapshot-out", str(snap)],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: [Errno 27] File too large")
        assert snap.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.snap", "tail.csv"]

    def test_new_file_and_symlink(self, tmp_path):
        """A new snapshot gets the mode of a plain write, and a save through a
        symlink replaces the file it points to and keeps the link."""
        plain = tmp_path / "plain"
        plain.write_bytes(b"")
        save_snapshot(one_player(), tmp_path / "new.snap")
        assert (tmp_path / "new.snap").stat().st_mode == plain.stat().st_mode
        link = tmp_path / "link.snap"
        link.symlink_to(tmp_path / "new.snap")
        save_snapshot(one_player(rating=1400.0), link)
        assert link.is_symlink()
        assert load_snapshot(tmp_path / "new.snap").rating.tolist() == [1400.0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.snap", "new.snap",
                                                             "plain"]

    def test_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        save_snapshot(one_player(), fifo)
        reader.join(timeout=60)
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        save_snapshot(one_player(), tmp_path / "file.snap")
        assert got == [(tmp_path / "file.snap").read_bytes()]


@st.composite
def damaged(draw, data: bytes) -> bytes:
    """``data`` with bytes flipped, cut or inserted before its checksum, which
    is recomputed half the time so that the field checks behind it run."""
    payload = bytearray(data[:-8])
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("flip", "truncate", "insert")))
        at = draw(st.integers(5, len(payload)))   # past the magic and version
        if kind == "flip" and at < len(payload):
            payload[at] ^= draw(st.integers(1, 255))
        elif kind == "truncate":
            del payload[at:]
        elif kind == "insert":
            payload[at:at] = draw(st.binary(min_size=1, max_size=9))
    resign = draw(st.booleans())
    return bytes(payload) + (hashlib.blake2b(payload, digest_size=8).digest()
                             if resign else data[-8:])


class TestSnapshotFuzz:
    """A damaged snapshot is bad input: ``rate --snapshot-in`` exits 0 or 1,
    never 2 (an internal error)."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        rounds = generate_history(SimConfig(players=6, rounds=4, participation=0.9,
                                            tie_step=50.0, seed=2)).rounds
        write_rounds(rounds[2:], root / "tail.csv")
        state = replay(rounds[:2], ELO2).state
        save_snapshot(state, root / "v2.snap")
        return {"tail": root / "tail.csv", "snap": root / "damaged.snap",
                "good": (root / "v2.snap").read_bytes()}

    def test_exit_code_is_0_or_1(self, files):
        argv = ["rate", "--profile", "elo2", "--input", str(files["tail"]),
                "--snapshot-in", str(files["snap"])]
        files["snap"].write_bytes(files["good"])
        assert run(argv) == 0

        @settings(max_examples=300, deadline=None, database=None)
        @given(data=damaged(files["good"]))
        def check(data):
            files["snap"].write_bytes(data)
            assert run(argv) in (0, 1)

        check()


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """``data`` with bytes flipped, spans cut, or CSV-significant bytes
    inserted, anywhere in the file."""
    text = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("flip", "cut", "insert")))
        at = draw(st.integers(0, len(text)))
        if kind == "flip" and at < len(text):
            text[at] ^= draw(st.integers(1, 255))
        elif kind == "cut":
            del text[at:draw(st.integers(at, len(text)))]
        elif kind == "insert":
            text[at:at] = draw(st.lists(st.sampled_from(b'\0\r\n,"\xff'),
                                        min_size=1, max_size=4))
    return bytes(text)


class TestTextInputFuzz:
    """A damaged rounds file or timeline is bad input: ``rate``, ``eval
    --timeline`` and ``compare --vs-timeline`` exit 0 or 1, never 2."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("text_fuzz")
        rounds = generate_history(SimConfig(players=5, rounds=3, participation=0.9,
                                            tie_step=50.0, seed=4)).rounds
        write_rounds(rounds, root / "rounds.csv")
        (root / "timeline.csv").write_text("round_id,player_id,rating_before\n" + "".join(
            f"{r.round_id},{p},{1200.0 + 10 * k}\n"
            for r in rounds for d in r.divisions for k, (p, _) in enumerate(d.entries)))
        return root

    @pytest.mark.parametrize("target", ["rounds.csv", "timeline.csv"])
    def test_exit_code_is_0_or_1(self, files, target):
        rounds, timeline, out = files / "rounds.csv", files / "timeline.csv", files / "out"
        argvs = [["rate", "--input", str(rounds)],
                 ["eval", "--input", str(rounds), "--timeline", str(timeline),
                  "--report", "rounds", "--output", str(out)],
                 ["compare", "--input", str(rounds), "--vs-timeline", str(timeline),
                  "--output", str(out)]]
        assert [run(argv) for argv in argvs] == [0, 0, 0]
        original = (files / target).read_bytes()

        @settings(max_examples=150, deadline=None, database=None)
        @given(data=mutated(original))
        def check(data):
            (files / target).write_bytes(data)
            for argv in argvs:
                assert run(argv) in (0, 1)

        try:
            check()
        finally:
            (files / target).write_bytes(original)


class TestExportSnapshot:
    def setup_method(self):
        rounds = [RoundInput("r1", [DivisionResult(1, [("bob", 2.0), ("al", 1.0)])])]
        self.state = replay(rounds, ELO2).state

    def test_csv_layout(self):
        buf = io.StringIO()
        export_snapshot(self.state, buf, fmt="csv")
        lines = buf.getvalue().splitlines()
        assert lines[0] == "rounds_processed,r1"
        assert lines[1].startswith("1,")
        assert lines[2] == "player_id,rating,num_rounds"
        assert lines[3].startswith("al,") and lines[3].endswith(",1")
        assert lines[4].startswith("bob,")

    def test_csv_ratings_roundtrip_exactly(self):
        buf = io.StringIO()
        export_snapshot(self.state, buf, fmt="csv")
        rows = [line.split(",") for line in buf.getvalue().splitlines()[3:]]
        for player_id, rating_text, _ in rows:
            assert float(rating_text) == self.state.players[player_id].rating

    def test_table_layout(self):
        buf = io.StringIO()
        export_snapshot(self.state, buf, fmt="table")
        text = buf.getvalue()
        assert "rounds_processed: 1" in text
        assert "player_id" in text and "num_rounds" in text
        assert text.index("al ") < text.index("bob")

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "state.json"
        with pytest.raises(InputError, match="unknown export format 'json'"):
            export_snapshot(self.state, path, fmt="json")
        assert not path.exists()
