"""Round files, timelines, and binary snapshots."""

import hashlib
import io
import math
import struct

import pytest

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
    load_snapshot,
    parse_rounds,
    parse_timeline,
    replay,
    save_snapshot,
    write_rounds,
)

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
    if (a.r1, a.rounds_processed) != (b.r1, b.rounds_processed):
        return False
    if set(a.players) != set(b.players):
        return False
    return all(
        (a.players[pid].rating, a.players[pid].num_rounds)
        == (b.players[pid].rating, b.players[pid].num_rounds)
        for pid in a.players)


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
        with pytest.raises(SnapshotError, match="version 99"):
            load_snapshot(path)

    def test_trailing_data(self, tmp_path):
        path = tmp_path / "x.snap"
        save_snapshot(EngineState.fresh(ELO2), path)
        raw = path.read_bytes()
        payload = raw[:-8] + b"\x00" * 4
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        path.write_bytes(payload + digest)
        with pytest.raises(SnapshotError, match="trailing data"):
            load_snapshot(path)

    def test_duplicate_player_record(self, tmp_path):
        record = struct.pack("<I", 1) + b"a" + struct.pack("<dQ", 1200.0, 3)
        payload = (b"RSNP" + bytes([1]) + struct.pack("<Q", 5)
                   + struct.pack("<d", 1200.0) + struct.pack("<Q", 2)
                   + record + record)
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        path = tmp_path / "dup.snap"
        path.write_bytes(payload + digest)
        with pytest.raises(SnapshotError, match="duplicate player 'a'"):
            load_snapshot(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.snap"
        path.write_bytes(b"")
        with pytest.raises(SnapshotError, match="truncated"):
            load_snapshot(path)

    def test_player_id_not_utf8(self, tmp_path):
        path = tmp_path / "u.snap"
        save_snapshot(EngineState(players={"pa": PlayerState(1300.0, 2)}), path)
        resign(path, b"pa", b"p\xff")
        with pytest.raises(SnapshotError, match="UTF-8"):
            load_snapshot(path)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rating(self, tmp_path, bad):
        path = tmp_path / "n.snap"
        save_snapshot(EngineState(players={"pa": PlayerState(1300.0, 2)}), path)
        resign(path, struct.pack("<d", 1300.0), struct.pack("<d", bad))
        with pytest.raises(SnapshotError, match="non-finite rating for player 'pa'"):
            load_snapshot(path)

    def test_round_count_above_2_53(self, tmp_path):
        path = tmp_path / "k.snap"
        save_snapshot(EngineState(players={"pa": PlayerState(1300.0, 2 ** 53)}), path)
        assert load_snapshot(path).players["pa"].num_rounds == 2 ** 53
        save_snapshot(EngineState(players={"pa": PlayerState(1300.0, 2 ** 53 + 1)}),
                      path)
        with pytest.raises(SnapshotError, match="round count 9007199254740993"):
            load_snapshot(path)

    def test_rounds_processed_above_2_53(self, tmp_path):
        path = tmp_path / "p.snap"
        save_snapshot(EngineState(rounds_processed=2 ** 53), path)
        assert load_snapshot(path).rounds_processed == 2 ** 53
        save_snapshot(EngineState(rounds_processed=2 ** 53 + 1), path)
        with pytest.raises(SnapshotError, match="rounds_processed 9007199254740993"):
            load_snapshot(path)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_new_player_rating(self, tmp_path, bad):
        path = tmp_path / "r.snap"
        save_snapshot(EngineState(r1=1263.0), path)
        resign(path, struct.pack("<d", 1263.0), struct.pack("<d", bad))
        with pytest.raises(SnapshotError, match="non-finite new-player rating"):
            load_snapshot(path)


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
