"""End-to-end command-line checks, run in process via cli.run()."""

import csv
import hashlib
import io
import os
import struct
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import rankelo
from rankelo import (
    EngineState,
    InputError,
    PROFILES,
    SimConfig,
    SweepSpec,
    load_snapshot,
    parse_rounds,
    save_snapshot,
    write_rounds,
)
from rankelo.replay import REPLAY_LOG_HEADER
from rankelo.cli import _build_parser, _float_list, run


@pytest.fixture(scope="module")
def history_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "history.csv"
    assert run(["simulate", "--players", "12", "--rounds", "10",
                "--participation", "0.9", "--div1-fraction", "0.5",
                "--tie-step", "50", "--seed", "5",
                "--output", str(path)]) == 0
    return path


def read_csv_rows(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def read_replay_log(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# Ids holding every character that needs quoting, in the interior since
# cells are stripped.
ODD_ROUND_IDS = ["r,1", 'r"2"', "r\n3", "r\r4", "r\r\n5"]
ODD_PLAYER_IDS = ["a,b", 'say "hi"', "two\nlines", "cr\rid", "crlf\r\nid",
                  "ütf-8 名前", "plain"]


def csv_line(row):
    """``row`` as ``csv.writer`` quotes it with a carriage return quoted too,
    ended by a line feed."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(row)
    return buf.getvalue()[:-2] + "\n"


def read_back(path):
    """The rows of a CSV file, after checking that its bytes are exactly the
    quoting rule's rendering of them."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert path.read_bytes() == "".join(map(csv_line, rows)).encode("utf-8")
    return rows


def write_quoted_history(path, round_ids, player_ids):
    """A rounds file with every cell quoted, so any character survives."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(("round_id", "division", "player_id", "score"))
        for k, round_id in enumerate(round_ids):
            for i, player_id in enumerate(player_ids):
                writer.writerow((round_id, 1, player_id, (3 * i + k) % 4))


class TestExitCodes:
    def test_help(self, capsys):
        assert run(["--help"]) == 0
        assert "rate" in capsys.readouterr().out

    def test_subcommand_help(self, capsys):
        assert run(["sweep", "--help"]) == 0
        assert "--grid" in capsys.readouterr().out

    def test_no_subcommand(self, capsys):
        assert run([]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert run(["rate", "--bogus"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_input_file(self, capsys):
        assert run(["rate", "--input", "/no/such/file.csv"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_rounds_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("round_id,division,player_id,score\nr1,1,a,ten\n")
        assert run(["rate", "--input", str(bad)]) == 1
        assert "malformed score" in capsys.readouterr().err

    def test_unknown_param_key(self, history_file, capsys):
        assert run(["rate", "--input", str(history_file),
                    "--param", "bogus=5"]) == 1
        assert "unknown parameter 'bogus'" in capsys.readouterr().err

    def test_non_numeric_param_value(self, history_file, capsys):
        assert run(["rate", "--input", str(history_file),
                    "--param", "k_factor=big"]) == 1
        assert "numeric value" in capsys.readouterr().err

    def test_param_without_equals(self, history_file, capsys):
        assert run(["rate", "--input", str(history_file), "--param", "k_factor"]) == 1
        assert capsys.readouterr().err == \
            "error: --param expects KEY=VALUE, got 'k_factor'\n"

    def test_empty_sweep_grid(self, history_file, capsys):
        assert run(["sweep", "--input", str(history_file),
                    "--target", "bonus", "--grid", ""]) == 1
        assert "--grid expects" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["rate", "--profile"], ["compare", "--vs-profile"]],
                             ids=["profile", "vs_profile"])
    def test_unnamed_profile_is_refused(self, history_file, capsys, argv):
        assert run([*argv, "custom", "--input", str(history_file)]) == 1
        assert "invalid choice: 'custom' (choose from 'elo', 'elo2')" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--target", "bonus", "--grid"],
        ["--target", "joint", "--bonus-grid", "0", "--inflation-grid"],
        ["--target", "joint", "--inflation-grid", "0", "--bonus-grid"],
    ], ids=["grid", "inflation_grid", "bonus_grid"])
    @pytest.mark.parametrize("text", ["0:10:inf", "0:10:-inf", "nan:1:1", "0:nan:1",
                                      "0:1:nan", "nan,1", "1,nan", "nan"])
    def test_nan_or_infinite_step_grid_is_refused(self, history_file, capsys,
                                                  flags, text):
        assert run(["sweep", "--input", str(history_file), *flags, text]) == 1
        flag = flags[-1]
        assert capsys.readouterr().err == (
            f"error: {flag} expects comma-separated numbers or start:stop:step\n")

    def test_overflowing_k_factor(self, history_file, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["rate", "--input", str(history_file),
                        "--param", "k_factor=1.7e308"])
        assert code == 1
        assert caught == []
        assert "k_factor * perf_cap must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,field", [
        (["rate", "--param", "initial_rating=1.7e308", "--param", "inflation=1e308"],
         "initial_rating"),
        (["eval", "--report", "stats", "--param", "k_factor=1e300"],
         "k_factor * perf_cap"),
        (["rate", "--param", "perf_cap=1e300", "--param", "bonus=1e308",
          "--param", "k_factor=1e-300"], "bonus"),
        (["rate", "--param", "variance_weight=1e308"], "variance_weight"),
        (["eval", "--report", "stats", "--param", "variance_weight=1e308"],
         "variance_weight"),
    ], ids=["new_player_rating", "delta_squared", "adjusted_perf",
            "variance_factor_times_weight", "variance_factor_times_weight_eval"])
    def test_parameters_that_would_overflow_are_refused(self, history_file, tmp_path,
                                                        capsys, argv, field):
        snap = tmp_path / "out.snap"
        extra = ["--snapshot-out", str(snap)] if argv[0] == "rate" else []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run([*argv, *extra, "--input", str(history_file)])
        assert code == 1 and caught == []
        assert capsys.readouterr().err == \
            f"error: {field} must be at most 1e+100 in magnitude\n"
        assert not snap.exists()

    def test_median_of_near_max_ratings_is_finite(self, history_file, tmp_path, capsys):
        snap = tmp_path / "near_max.snap"
        ratings = [1.7e308, 1.6e308] * 20   # the middle ratings of the final state,
        # and the sum of any two of them overflows
        save_snapshot(EngineState(ids=[f"x{k}" for k in range(40)], rating=ratings,
                                  num_rounds=[1] * 40), snap)
        assert run(["eval", "--report", "stats", "--input", str(history_file),
                    "--snapshot-in", str(snap)]) == 0
        stats = dict(line.split(",") for line in capsys.readouterr().out.splitlines())
        assert 1.6e308 <= float(stats["rating_median"]) <= 1.7e308
        assert float(stats["rating_max"]) == 1.7e308

    @pytest.mark.parametrize("old,new,message", [
        (b"p000001", b"p00000\xff", "not valid UTF-8"),
        (b"RSNP\x02" + struct.pack("<Q", 0), b"RSNP\x02" + struct.pack("<Q", 2 ** 64 - 1),
         "rounds_processed 18446744073709551615 is above 2**53"),
        (struct.pack("<d", 1300.0), struct.pack("<d", float("nan")),
         "non-finite rating for player 'p000001'"),
        (struct.pack("<dQ", 1300.0, 4), struct.pack("<dQ", 1300.0, 2 ** 64 - 1),
         "round count 18446744073709551615 for player 'p000001'"),
    ], ids=["player_id_not_utf8", "rounds_processed", "nan_rating", "round_count"])
    def test_bad_snapshot_values(self, history_file, tmp_path, capsys,
                                 old, new, message):
        path = tmp_path / "bad.snap"
        save_snapshot(EngineState(ids=["p000001"], rating=[1300.0], num_rounds=[4]),
                      path)
        payload = path.read_bytes()[:-8].replace(old, new)
        path.write_bytes(payload + hashlib.blake2b(payload, digest_size=8).digest())
        assert run(["rate", "--input", str(history_file),
                    "--snapshot-in", str(path)]) == 1
        assert message in capsys.readouterr().err

    def test_snapshot_at_the_round_cap_is_refused_untouched(self, history_file, tmp_path,
                                                           capsys):
        path, out = tmp_path / "cap.snap", tmp_path / "out.snap"
        save_snapshot(EngineState(rounds_processed=2 ** 53 - 9), path)
        assert run(["rate", "--input", str(history_file), "--snapshot-in", str(path),
                    "--snapshot-out", str(out)]) == 1
        assert capsys.readouterr().err == ("error: after 10 more round(s), rounds_processed "
                                           "9007199254740993 is above 2**53\n")
        assert not out.exists()

    def test_range_grid_size_is_bounded(self):
        assert len(_float_list("1:10000:1", "--grid")) == 10_000
        for text in ("0:10000:1", "0:inf:1", "-inf:0:1"):
            with pytest.raises(InputError, match="more than 10000 points"):
                _float_list(text, "--grid")

    def test_rounds_file_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"round_id,division,player_id,score\n"
                        b"r1,1,\xff\xfe,10\nr1,1,b,5\n")
        assert run(["rate", "--input", str(bad)]) == 1
        assert "not valid UTF-8" in capsys.readouterr().err

    def test_timeline_file_not_utf8(self, tmp_path, capsys):
        rounds = tmp_path / "r.csv"
        rounds.write_text("round_id,division,player_id,score\nr1,1,a,10\nr1,1,b,5\n")
        timeline = tmp_path / "t.csv"
        timeline.write_bytes(b"round_id,player_id,rating_before\n"
                             b"r1,a\xff,1200\nr1,b,1300\n")
        assert run(["eval", "--input", str(rounds), "--timeline", str(timeline),
                    "--report", "rounds"]) == 1
        assert "not valid UTF-8" in capsys.readouterr().err

    def test_undecodable_stdin_id(self, tmp_path, capsys, monkeypatch):
        # stdin decoded with surrogateescape (a C locale) keeps bad bytes as
        # lone surrogates; they must not reach the snapshot or the log
        monkeypatch.setattr("sys.stdin", io.StringIO(
            "round_id,division,player_id,score\nr1,1,a\udcff,10\nr1,1,b,5\n"))
        snap = tmp_path / "s.snap"
        log = tmp_path / "log.csv"
        assert run(["rate", "--snapshot-out", str(snap), "--output", str(log)]) == 1
        assert "line 2: 'a\\udcff' is not valid UTF-8" in capsys.readouterr().err
        assert not snap.exists() and not log.exists()

    # 140,000 characters, past csv's default field size limit of 131,072
    HUGE_ID = '"' + "x" * 140_000 + '"'

    @pytest.mark.parametrize("text,line", [
        (f"round_id,division,player_id,score\nr1,1,a,10\nr1,1,{HUGE_ID},5\n", 3),
        (f"round_id,division,{HUGE_ID},score\nr1,1,a,10\n", 1),
    ], ids=["row", "header"])
    @pytest.mark.parametrize("via", ["file", "stdin"])
    def test_oversized_rounds_cell(self, tmp_path, capsys, monkeypatch, text, line, via):
        path = tmp_path / "r.csv"
        path.write_text(text)
        if via == "stdin":
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert run(["rate", *(["--input", str(path)] if via == "file" else [])]) == 1
        assert f"error: line {line}: field larger than field limit" in \
            capsys.readouterr().err

    def test_multiline_row_error_names_its_first_line(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text('round_id,division,player_id,score\n'
                        'r1,1,a,10\nr1,1,"b\nc",5,7\nr1,1,d,3\n')
        assert run(["rate", "--input", str(path)]) == 1
        assert "error: line 3: expected 4 fields, got 5" in capsys.readouterr().err

    def test_oversized_timeline_cell(self, tmp_path, capsys):
        rounds = tmp_path / "r.csv"
        rounds.write_text("round_id,division,player_id,score\nr1,1,a,10\nr1,1,b,5\n")
        timeline = tmp_path / "t.csv"
        timeline.write_text("round_id,player_id,rating_before\n"
                            f"r1,a,1200\nr1,{self.HUGE_ID},1300\n")
        assert run(["eval", "--input", str(rounds), "--timeline", str(timeline),
                    "--report", "rounds"]) == 1
        assert "error: line 3: field larger than field limit" in capsys.readouterr().err

    def test_internal_error_exits_2(self, history_file, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")
        monkeypatch.setattr("rankelo.cli.replay", boom)
        assert run(["rate", "--input", str(history_file)]) == 2
        assert "internal error: boom" in capsys.readouterr().err


class TestRate:
    def test_summary_line(self, history_file, capsys):
        assert run(["rate", "--input", str(history_file)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("rated 10 rounds, 12 players, mean error ")

    def test_empty_history(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("round_id,division,player_id,score\n")
        snap = tmp_path / "state.snap"
        assert run(["rate", "--input", str(empty),
                    "--snapshot-out", str(snap)]) == 0
        assert "rated 0 rounds, 0 players, mean error n/a" in \
            capsys.readouterr().out
        fresh = EngineState.fresh(PROFILES["elo"])
        state = load_snapshot(snap)
        assert (state.r1, state.rounds_processed, state.players) == \
            (fresh.r1, fresh.rounds_processed, {})

    def test_replay_log_round_trips(self, history_file, tmp_path, capsys):
        log = tmp_path / "log.csv"
        assert run(["rate", "--input", str(history_file), "--profile", "elo2",
                    "--output", str(log)]) == 0
        capsys.readouterr()
        rows = read_replay_log(log)
        entries = len(history_file.read_text().splitlines()) - 1
        assert len(rows) == entries
        assert tuple(rows[0]) == REPLAY_LOG_HEADER
        assert all(None not in row.values() for row in rows)
        assert rows[0]["round_id"] == "r0000"
        assert float(rows[0]["rating_before"]) == 1200.0

    def test_replay_log_on_stdout_stays_one_csv(self, history_file, tmp_path,
                                                capsys):
        log = tmp_path / "log.csv"
        assert run(["rate", "--input", str(history_file), "--output", str(log)]) == 0
        summary = capsys.readouterr().out
        assert run(["rate", "--input", str(history_file), "--output", "-"]) == 0
        captured = capsys.readouterr()
        rows = list(csv.reader(io.StringIO(captured.out, newline="")))
        assert {len(row) for row in rows} == {len(REPLAY_LOG_HEADER)} == {16}
        assert captured.out.encode() == log.read_bytes()
        assert captured.err == summary
        assert summary.startswith("rated 10 rounds, 12 players, mean error ")

    @pytest.mark.parametrize("argv", [["rate"], ["compare", "--vs-profile", "elo2"]],
                             ids=["rate", "compare"])
    def test_dash_input_reads_stdin(self, history_file, capsys, monkeypatch, argv):
        assert run([*argv, "--input", str(history_file)]) == 0
        want = capsys.readouterr()
        monkeypatch.setattr("sys.stdin", io.StringIO(history_file.read_text()))
        assert run([*argv, "--input", "-"]) == 0
        assert capsys.readouterr() == want

    def test_replay_log_quotes_ids_like_csv_writer(self, tmp_path, capsys):
        history = tmp_path / "odd.csv"
        write_quoted_history(history, ODD_ROUND_IDS, ODD_PLAYER_IDS)
        log = tmp_path / "log.csv"
        assert run(["rate", "--input", str(history), "--output", str(log)]) == 0
        capsys.readouterr()
        rows = read_back(log)
        assert [tuple(row[:3]) for row in rows[1:]] == [
            (r, "1", p) for r in ODD_ROUND_IDS for p in ODD_PLAYER_IDS]
        assert all(len(row) == len(REPLAY_LOG_HEADER) for row in rows)

    def test_replay_log_quotes_carriage_returns(self, tmp_path, capsys):
        # csv.writer before Python 3.13 leaves a bare \r, which csv.reader
        # then takes for the end of the row
        round_ids = ["r\r1"]
        player_ids = ["cr\rid", "crlf\r\nid", "plain"]
        history = tmp_path / "cr.csv"
        write_quoted_history(history, round_ids, player_ids)
        log = tmp_path / "log.csv"
        assert run(["rate", "--input", str(history), "--output", str(log)]) == 0
        capsys.readouterr()
        with open(log, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert [tuple(row[:3]) for row in rows[1:]] == [
            ("r\r1", "1", p) for p in player_ids]
        assert all(len(row) == len(REPLAY_LOG_HEADER) for row in rows)
        assert log.read_bytes().startswith(
            b",".join(name.encode() for name in REPLAY_LOG_HEADER)
            + b'\n"r\r1",1,"cr\rid",3,')

    def test_split_rate_matches_full_rate(self, history_file, tmp_path, capsys):
        full_snap = tmp_path / "full.snap"
        assert run(["rate", "--input", str(history_file), "--profile", "elo2",
                    "--snapshot-out", str(full_snap)]) == 0

        head, tail = split_history(history_file, tmp_path)
        mid_snap = tmp_path / "mid.snap"
        split_snap = tmp_path / "split.snap"
        assert run(["rate", "--input", str(head), "--profile", "elo2",
                    "--snapshot-out", str(mid_snap)]) == 0
        assert run(["rate", "--input", str(tail), "--profile", "elo2",
                    "--snapshot-in", str(mid_snap),
                    "--snapshot-out", str(split_snap)]) == 0
        capsys.readouterr()
        assert split_snap.read_bytes() == full_snap.read_bytes()


def split_history(history_file, tmp_path, first="r0006"):
    """The history cut before round ``first``: (head path, tail path)."""
    head, tail = tmp_path / "head.csv", tmp_path / "tail.csv"
    lines = history_file.read_text().splitlines()
    cut = next(i for i, line in enumerate(lines) if line.startswith(first))
    head.write_text("\n".join(lines[:cut]) + "\n")
    tail.write_text(lines[0] + "\n" + "\n".join(lines[cut:]) + "\n")
    return head, tail


class TestResume:
    """A snapshot resumes only under its own parameters and after its rounds."""

    @pytest.fixture
    def head_snapshot(self, history_file, tmp_path, capsys):
        head, tail = split_history(history_file, tmp_path)
        snap = tmp_path / "head.snap"
        assert run(["rate", "--profile", "elo2", "--input", str(head),
                    "--snapshot-out", str(snap)]) == 0
        capsys.readouterr()
        return head, tail, snap

    @pytest.mark.parametrize("command", ["rate", "eval"])
    @pytest.mark.parametrize("flags,message", [
        (["--profile", "elo"], "snapshot was rated with bonus=27.0, this run "
                               "uses bonus=0.0"),
        (["--profile", "elo2", "--param", "k_factor=500"],
         "snapshot was rated with k_factor=600.0, this run uses k_factor=500.0"),
        (["--profile", "elo", "--param", "bonus=27", "--param", "inflation=63",
          "--param", "weight_exponent=0.25"], "weight_exponent=0.5"),
    ], ids=["profile", "param", "last_field"])
    def test_other_parameters_are_refused(self, head_snapshot, tmp_path, capsys,
                                          command, flags, message):
        _, tail, snap = head_snapshot
        out = tmp_path / "out"
        assert run([command, *flags, "--input", str(tail), "--snapshot-in", str(snap),
                    "--output", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["rate", "eval"])
    @pytest.mark.parametrize("rounds", ["head", "history"])
    def test_applied_round_is_refused(self, head_snapshot, history_file, tmp_path,
                                      capsys, command, rounds):
        head, _, snap = head_snapshot
        again = head if rounds == "head" else history_file
        out = tmp_path / "out"
        assert run([command, "--profile", "elo2", "--input", str(again),
                    "--snapshot-in", str(snap), "--output", str(out)]) == 1
        assert "round 'r0005' is already applied in the snapshot" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_same_parameters_after_the_last_round_resume(self, head_snapshot,
                                                         tmp_path, capsys):
        _, tail, snap = head_snapshot
        assert run(["eval", "--profile", "elo", "--param", "bonus=27",
                    "--param", "inflation=63", "--input", str(tail),
                    "--snapshot-in", str(snap), "--report", "stats",
                    "--output", str(tmp_path / "stats.csv")]) == 0


class TestEval:
    def test_bucket_report_csv(self, history_file, tmp_path, capsys):
        out = tmp_path / "buckets.csv"
        assert run(["eval", "--input", str(history_file),
                    "--output", str(out)]) == 0
        capsys.readouterr()
        header, rows = read_csv_rows(out)
        assert header == "bucket,count,mean_delta_r,mean_perf,mean_error"
        assert rows[0][0] == "All"
        labels = [row[0] for row in rows]
        assert "First round" in labels and "Existing" in labels
        assert "Division 1" in labels and "D1 H1" in labels

    def test_all_tied_history_has_zero_error(self, tmp_path, capsys):
        path = tmp_path / "tied.csv"
        body = ["round_id,division,player_id,score"]
        for t in range(3):
            body += [f"r{t},1,{pid},100" for pid in ("a", "b", "c")]
        path.write_text("\n".join(body) + "\n")
        out = tmp_path / "tied_eval.csv"
        assert run(["eval", "--input", str(path), "--output", str(out)]) == 0
        capsys.readouterr()
        _, rows = read_csv_rows(out)
        assert rows[0][0] == "All"
        assert float(rows[0][4]) == 0.0

    def test_rounds_report(self, history_file, tmp_path, capsys):
        out = tmp_path / "rounds.csv"
        assert run(["eval", "--input", str(history_file), "--report", "rounds",
                    "--output", str(out)]) == 0
        capsys.readouterr()
        header, rows = read_csv_rows(out)
        assert header == "round_id,division,n,mean_error,kendall,spearman"
        assert len(rows) == 20    # 10 rounds x 2 divisions

    def test_rounds_report_of_a_header_only_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("round_id,division,player_id,score\n")
        assert run(["eval", "--input", str(empty), "--report", "rounds"]) == 0
        assert capsys.readouterr().out == "round_id,division,n,mean_error,kendall,spearman\n"

    @pytest.mark.parametrize("timeline", [False, True], ids=["replay", "timeline"])
    def test_rounds_report_table(self, tmp_path, capsys, timeline):
        rounds = tmp_path / "r.csv"
        rounds.write_text("round_id,division,player_id,score\n"
                          "r1,1,a,10\nr1,1,b,20\nr1,2,c,5\nr2,1,a,3\nr2,1,b,3\n")
        flags = []
        if timeline:
            path = tmp_path / "t.csv"
            path.write_text("round_id,player_id,rating_before\n"
                            "r1,a,1400\nr1,b,1300\nr1,c,1200\nr2,a,1400\nr2,b,1300\n")
            flags = ["--timeline", str(path)]
        assert run(["eval", "--input", str(rounds), "--report", "rounds",
                    "--format", "table", *flags]) == 0
        # an undefined correlation (a lone player, or tied scores) prints '-'
        first = ("r1               1  2      0.6351  -1.0000   -1.0000" if timeline
                 else "r1               1  2      0.5000        -         -")
        assert capsys.readouterr().out.splitlines() == [
            "round_id  division  n  mean_error  kendall  spearman",
            "--------  --------  -  ----------  -------  --------",
            first,
            "r1               2  1      0.0000        -         -",
            "r2               1  2      0.0000        -         -"]

    def test_stats_report_table(self, history_file, tmp_path, capsys):
        out = tmp_path / "stats.txt"
        assert run(["eval", "--input", str(history_file), "--report", "stats",
                    "--format", "table", "--output", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0].split() == ["stat", "value"]
        assert set(lines[1]) <= {"-", " "}
        assert lines[2].startswith("count")

    def test_timeline_eval(self, tmp_path, capsys):
        rounds = tmp_path / "r.csv"
        rounds.write_text("round_id,division,player_id,score\n"
                          "r1,1,a,10\nr1,1,b,20\n")
        timeline = tmp_path / "t.csv"
        timeline.write_text("round_id,player_id,rating_before\n"
                            "r1,a,1400\nr1,b,1300\n")
        out = tmp_path / "out.csv"
        assert run(["eval", "--input", str(rounds), "--timeline",
                    str(timeline), "--report", "rounds",
                    "--output", str(out)]) == 0
        capsys.readouterr()
        header, rows = read_csv_rows(out)
        assert header == "round_id,division,n,mean_error,kendall,spearman"
        assert rows[0][:3] == ["r1", "1", "2"]
        assert rows[0][4] == "-1.0"    # favorite lost

    def test_timeline_ratings_beyond_float_range(self, tmp_path, capsys):
        # the two ratings differ by more than the largest float
        rounds = tmp_path / "r.csv"
        rounds.write_text("round_id,division,player_id,score\n"
                          "r1,1,a,20\nr1,1,b,10\n")
        timeline = tmp_path / "t.csv"
        timeline.write_text("round_id,player_id,rating_before\n"
                            "r1,a,1.7e308\nr1,b,-1.7e308\n")
        out = tmp_path / "out.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["eval", "--input", str(rounds), "--timeline",
                        str(timeline), "--report", "rounds", "--output", str(out)])
        assert code == 0
        assert caught == []
        assert capsys.readouterr().err == ""
        _, rows = read_csv_rows(out)
        assert rows[0][4] == "1.0"     # favorite won

    @pytest.mark.parametrize("flags", [
        ["--snapshot-in", "no-such-file.snap"],
        ["--param", "k_factor=10"],
        ["--profile", "elo2"],
    ], ids=["snapshot_in", "param", "profile"])
    def test_timeline_refuses_rating_flags(self, tmp_path, capsys, flags):
        rounds = tmp_path / "r.csv"
        rounds.write_text("round_id,division,player_id,score\n"
                          "r1,1,a,10\nr1,1,b,20\n")
        timeline = tmp_path / "t.csv"
        timeline.write_text("round_id,player_id,rating_before\n"
                            "r1,a,1400\nr1,b,1300\n")
        assert run(["eval", "--input", str(rounds), "--timeline", str(timeline),
                    "--report", "rounds", *flags]) == 1
        err = capsys.readouterr().err
        assert f"{flags[0]} has no effect with --timeline" in err

    def test_timeline_empty_id(self, tmp_path, capsys):
        rounds = tmp_path / "r.csv"
        rounds.write_text("round_id,division,player_id,score\nr1,1,a,10\nr1,1,b,5\n")
        timeline = tmp_path / "t.csv"
        timeline.write_text("round_id,player_id,rating_before\n"
                            "r1,a,1200\nr1,b,1300\nr1, ,1250\n")
        assert run(["eval", "--input", str(rounds), "--timeline", str(timeline),
                    "--report", "rounds"]) == 1
        assert "line 4: round_id and player_id must be non-empty" in \
            capsys.readouterr().err

    def test_timeline_rejects_bucket_report(self, tmp_path, capsys):
        rounds = tmp_path / "r.csv"
        rounds.write_text("round_id,division,player_id,score\nr1,1,a,10\n")
        timeline = tmp_path / "t.csv"
        timeline.write_text("round_id,player_id,rating_before\nr1,a,1200\n")
        assert run(["eval", "--input", str(rounds), "--timeline",
                    str(timeline), "--report", "buckets"]) == 1
        assert "--report rounds" in capsys.readouterr().err


class TestCompare:
    def test_self_comparison_is_even(self, history_file, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        assert run(["compare", "--input", str(history_file),
                    "--profile", "elo", "--vs-profile", "elo",
                    "--output", str(out)]) == 0
        capsys.readouterr()
        header, rows = read_csv_rows(out)
        assert header == "bucket,rounds,kendall_win,spearman_win,error_win"
        assert rows[0][0] == "All"
        for row in rows:
            assert row[4] == "0.5"
            assert row[2] in ("0.5", "")    # undefined taus are left out
            assert row[3] in ("0.5", "")

    def test_profile_vs_param_override(self, history_file, tmp_path, capsys):
        out = tmp_path / "cmp2.csv"
        assert run(["compare", "--input", str(history_file),
                    "--profile", "elo2", "--vs-profile", "elo",
                    "--vs-param", "bonus=27", "--vs-param", "inflation=63",
                    "--output", str(out)]) == 0
        capsys.readouterr()
        _, rows = read_csv_rows(out)
        for row in rows:        # identical effective params again
            assert row[4] == "0.5"

    def test_timeline_comparison_table(self, history_file, tmp_path, capsys):
        timeline = tmp_path / "self.csv"
        log = tmp_path / "log.csv"
        assert run(["rate", "--input", str(history_file),
                    "--output", str(log)]) == 0
        rows = ["round_id,player_id,rating_before"]
        for row in read_replay_log(log):
            rows.append(f"{row['round_id']},{row['player_id']},{row['rating_before']}")
        timeline.write_text("\n".join(rows) + "\n")
        out = tmp_path / "cmp3.txt"
        assert run(["compare", "--input", str(history_file),
                    "--vs-timeline", str(timeline),
                    "--format", "table", "--output", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0].split() == ["bucket", "rounds", "kendall_win",
                                    "spearman_win", "error_win"]
        assert lines[2].startswith("All") and lines[2].endswith("50.0%")


    @pytest.mark.parametrize("flags", [
        ["--vs-param", "bonus=27"],
        ["--vs-profile", "elo2"],
    ], ids=["vs_param", "vs_profile"])
    def test_timeline_refuses_rating_flags(self, history_file, tmp_path,
                                           capsys, flags):
        timeline = tmp_path / "t.csv"
        timeline.write_text("round_id,player_id,rating_before\n")
        assert run(["compare", "--input", str(history_file),
                    "--vs-timeline", str(timeline), *flags]) == 1
        err = capsys.readouterr().err
        assert f"{flags[0]} has no effect with --vs-timeline" in err


# Division numbers above 2**63, in the order of the small ones they replace.
HUGE_DIVISIONS = {"1": str(2**64 + 1), "2": "123456789012345678901234567890"}


@pytest.mark.parametrize("argv", [
    ["eval", "--report", "buckets"],
    ["eval", "--report", "buckets", "--format", "table"],
    ["compare", "--profile", "elo2", "--vs-profile", "elo"],
    ["compare", "--profile", "elo2", "--vs-profile", "elo", "--format", "table"],
], ids=["buckets", "buckets_table", "compare", "compare_table"])
def test_huge_division_numbers(history_file, tmp_path, capsys, argv):
    """Unbounded division numbers report like the small ones they replace."""
    header, *lines = history_file.read_text().splitlines()
    huge = tmp_path / "huge.csv"
    huge.write_text("\n".join([header] + [
        ",".join((r, HUGE_DIVISIONS[d], *rest))
        for r, d, *rest in (line.split(",") for line in lines)]) + "\n")
    outputs = []
    for path in (history_file, huge):
        out = tmp_path / f"{path.stem}.out"
        assert run(argv + ["--input", str(path), "--output", str(out)]) == 0
        outputs.append(out.read_text())
    assert capsys.readouterr().err == ""
    small, big = outputs
    for d, number in HUGE_DIVISIONS.items():
        small = small.replace(f"Division {d}", f"Division {number}")
        small = small.replace(f"D{d} H", f"D{number} H")
    if "table" in argv:     # only the label column and its rule widen
        big, small = ([line.split() for i, line in enumerate(text.splitlines())
                       if i != 1] for text in (big, small))
        assert big == small
    else:
        assert big == small


class TestSweep:
    def test_header_is_exact(self, history_file, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--input", str(history_file),
                    "--target", "k_factor", "--grid", "300,600",
                    "--output", str(out)]) == 0
        capsys.readouterr()
        assert out.read_text().splitlines()[0] == "param_value,best_K,mean_error"

    def test_range_grid_syntax(self, history_file, tmp_path, capsys):
        out = tmp_path / "sweep2.csv"
        assert run(["sweep", "--input", str(history_file),
                    "--target", "k_factor", "--grid", "200:600:200",
                    "--output", str(out)]) == 0
        capsys.readouterr()
        _, rows = read_csv_rows(out)
        assert [row[0] for row in rows] == ["200.0", "400.0", "600.0"]

    def test_reruns_are_byte_identical(self, history_file, tmp_path, capsys):
        args = ["sweep", "--input", str(history_file), "--target", "bonus",
                "--grid", "0,27", "--k-min", "100", "--k-max", "900",
                "--k-step", "50"]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--output", str(first)]) == 0
        assert run(args + ["--output", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_joint_target(self, history_file, tmp_path, capsys):
        out = tmp_path / "joint.csv"
        assert run(["sweep", "--input", str(history_file),
                    "--target", "joint", "--inflation-grid", "0,63",
                    "--bonus-grid", "0,27", "--output", str(out)]) == 0
        capsys.readouterr()
        header, rows = read_csv_rows(out)
        assert header == "inflation,bonus,mean_error"
        assert len(rows) == 1

    @staticmethod
    def tiny_history(tmp_path, seed):
        path = tmp_path / f"seed{seed}.csv"
        assert run(["simulate", "--players", "6", "--rounds", "3", "--seed", str(seed),
                    "--tie-step", "100", "--output", str(path)]) == 0
        return path

    def test_grid_scan_size_is_bounded(self, tmp_path, capsys):
        # seed 28's five-point K probe is not unimodal, so K falls back to a
        # grid scan: at this step, about 1.5e12 replays
        path = self.tiny_history(tmp_path, 28)
        assert run(["sweep", "--input", str(path), "--target", "bonus", "--grid", "0",
                    "--k-step", "1e-9"]) == 1
        assert ("error: the error-vs-K curve is not unimodal, and a grid scan of "
                "[25.0, 1500.0] at --k-step 1e-09 has more than 10000 points"
                in capsys.readouterr().err)

    def test_grid_scan_within_the_bound_is_unchanged(self, tmp_path, capsys):
        path = self.tiny_history(tmp_path, 28)
        assert run(["sweep", "--input", str(path), "--target", "bonus", "--grid", "0",
                    "--k-step", "5"]) == 0
        assert capsys.readouterr().out == ("param_value,best_K,mean_error\n"
                                           "0.0,160.0,0.6570866194162448\n")

    def test_fine_k_step_on_a_unimodal_curve(self, tmp_path, capsys):
        # seed 0's probe is unimodal: golden-section search, no grid scan
        path = self.tiny_history(tmp_path, 0)
        assert run(["sweep", "--input", str(path), "--target", "bonus", "--grid", "0",
                    "--k-step", "1e-6"]) == 0
        assert capsys.readouterr().out == ("param_value,best_K,mean_error\n"
                                           "0.0,1500.0,0.5525598410253745\n")

    def test_joint_requires_both_grids(self, history_file, capsys):
        assert run(["sweep", "--input", str(history_file),
                    "--target", "joint", "--inflation-grid", "0,63"]) == 1
        assert "--bonus-grid" in capsys.readouterr().err

    def test_plain_target_requires_grid(self, history_file, capsys):
        assert run(["sweep", "--input", str(history_file),
                    "--target", "bonus"]) == 1
        assert "--grid is required" in capsys.readouterr().err


class TestSimulateAndExport:
    def test_simulate_writes_parseable_rounds(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        skills = tmp_path / "skills.csv"
        assert run(["simulate", "--players", "6", "--rounds", "4",
                    "--seed", "11", "--output", str(out),
                    "--skills-out", str(skills)]) == 0
        capsys.readouterr()
        header, rows = read_csv_rows(out)
        assert header == "round_id,division,player_id,score"
        assert len(rows) == 24
        skills_header, skill_rows = read_csv_rows(skills)
        assert skills_header == "player_id,skill"
        assert [row[0] for row in skill_rows] == \
            [f"p{i:06d}" for i in range(6)]

    def test_simulate_to_stdout(self, capsys):
        assert run(["simulate", "--players", "3", "--rounds", "1",
                    "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("round_id,division,player_id,score\n")

    @pytest.mark.parametrize("output", [[], ["--output", "-"]])
    def test_simulate_refuses_two_csvs_on_stdout(self, capsys, output):
        assert run(["simulate", "--players", "3", "--rounds", "1",
                    "--skills-out", "-"] + output) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--skills-out - and the rounds CSV would share stdout" in captured.err

    def test_simulate_skills_to_stdout_with_rounds_to_a_file(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--players", "3", "--rounds", "1", "--seed", "2",
                    "--output", str(out), "--skills-out", "-"]) == 0
        assert capsys.readouterr().out.startswith("player_id,skill\np000000,")
        assert out.read_text().startswith("round_id,division,player_id,score\n")

    def test_export_csv_and_table(self, history_file, tmp_path, capsys):
        snap = tmp_path / "state.snap"
        assert run(["rate", "--input", str(history_file),
                    "--snapshot-out", str(snap)]) == 0
        csv_out = tmp_path / "state.csv"
        table_out = tmp_path / "state.txt"
        assert run(["export", "--snapshot-in", str(snap),
                    "--output", str(csv_out)]) == 0
        assert run(["export", "--snapshot-in", str(snap), "--format", "table",
                    "--output", str(table_out)]) == 0
        capsys.readouterr()
        header, rows = read_csv_rows(csv_out)
        assert header == "rounds_processed,r1"
        assert rows[0][0] == "10"
        assert rows[1] == ["player_id", "rating", "num_rounds"]
        assert len(rows) == 2 + 12
        table = table_out.read_text()
        assert "rounds_processed: 10" in table
        assert "p000000" in table

    def test_export_missing_snapshot(self, capsys):
        assert run(["export", "--snapshot-in", "/no/such.snap"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_simulate_rejects_bad_config(self, capsys):
        assert run(["simulate", "--players", "-3", "--rounds", "1"]) == 1
        assert "players" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,message", [
        (["--seed", "-1"], "seed must be >= 0"),
        (["--tie-step", "1e-320"], "not finite"),
    ])
    def test_simulate_rejects_unusable_draws(self, capsys, flags, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["simulate", "--players", "5", "--rounds", "2"] + flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


    @pytest.mark.parametrize("flags,field", [
        (["--players", "1" + "0" * 30], "players"),   # Maximum allowed dimension
        (["--players", "3", "--arrival-rate", "1e30"], "arrival_rate"),   # lam
    ], ids=["players", "arrival_rate"])
    def test_simulate_refuses_sizes_numpy_refuses(self, capsys, flags, field):
        assert run(["simulate", "--rounds", "1"] + flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {field} is too large to simulate: ")

    @pytest.mark.parametrize("players,arrivals,field", [
        (10**11, 0, "players"), (3, 10**11, "arrival_rate"),
    ], ids=["players", "arrival_rate"])
    def test_simulate_refuses_sizes_it_cannot_allocate(self, monkeypatch, capsys,
                                                       players, arrivals, field):
        class Refusing:
            """Draws nothing larger than a million values, as if memory ran out."""

            def __init__(self, seed):
                pass

            def normal(self, loc, scale, size):
                if size > 10**6:
                    raise MemoryError(f"Unable to allocate {size * 8 / 2**30:.0f}. GiB")
                return np.full(size, float(loc))

            def poisson(self, lam):
                return arrivals

        monkeypatch.setattr(np.random, "default_rng", Refusing)
        assert run(["simulate", "--players", str(players), "--rounds", "1",
                    "--arrival-rate", "1"]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {field} is too large to simulate: Unable to allocate ")


def test_parser_defaults_are_the_dataclass_defaults():
    parser = _build_parser()
    simulate = vars(parser.parse_args(["simulate", "--players", "4", "--rounds", "2"]))
    parsed = SimConfig(**{f.name: simulate[f.name] for f in fields(SimConfig)})
    assert repr(parsed) == repr(SimConfig(players=4, rounds=2))   # values and types
    for flags in (["--players", "4"], ["--rounds", "2"]):
        with pytest.raises(InputError, match="required"):
            parser.parse_args(["simulate", *flags])
    sweep = parser.parse_args(["sweep"])
    spec = SweepSpec(target="k_factor", grid=(1.0,))
    assert ((sweep.k_min, sweep.k_max), sweep.k_step) == (spec.k_range, spec.k_step)
    with pytest.raises(InputError, match="invalid choice: 'custom'"):
        parser.parse_args(["rate", "--profile", "custom"])
    for name in PROFILES:
        assert parser.parse_args(["rate", "--profile", name]).profile == name


@pytest.mark.parametrize("writer", ["write_rounds", "export", "eval_rounds", "compare"])
def test_csv_output_reads_back(tmp_path, capsys, writer):
    """Every CSV writer quotes a cell holding ``,``, ``"``, a line feed or a
    carriage return, so that ``csv.reader`` reads each cell back."""
    history = tmp_path / "odd.csv"
    write_quoted_history(history, ODD_ROUND_IDS, ODD_PLAYER_IDS)
    out = tmp_path / "out.csv"
    if writer == "write_rounds":
        rounds = parse_rounds(history)
        write_rounds(rounds, out)
        assert parse_rounds(out) == rounds
        expected = [["round_id", "division", "player_id"]] + [
            [r, "1", p] for r in ODD_ROUND_IDS for p in ODD_PLAYER_IDS]
        rows = read_back(out)
        assert [row[:3] for row in rows] == expected
    elif writer == "export":
        snap = tmp_path / "state.snap"
        assert run(["rate", "--input", str(history), "--snapshot-out", str(snap)]) == 0
        assert run(["export", "--snapshot-in", str(snap), "--output", str(out)]) == 0
        expected = [["player_id", "num_rounds"]] + [
            [p, str(len(ODD_ROUND_IDS))] for p in sorted(ODD_PLAYER_IDS)]
        rows = read_back(out)[2:]
        assert [[row[0], row[2]] for row in rows] == expected
    elif writer == "eval_rounds":
        assert run(["eval", "--input", str(history), "--report", "rounds",
                    "--output", str(out)]) == 0
        expected = [["round_id", "division", "n"]] + [
            [r, "1", str(len(ODD_PLAYER_IDS))] for r in ODD_ROUND_IDS]
        rows = read_back(out)
        assert [row[:3] for row in rows] == expected
    else:
        assert run(["compare", "--input", str(history), "--profile", "elo2",
                    "--vs-profile", "elo", "--output", str(out)]) == 0
        rows = read_back(out)
        assert [row[0] for row in rows] == ["bucket", "All", "Division 1",
                                            "2-16 players"]
    capsys.readouterr()
    assert len({len(row) for row in rows}) == 1


def test_evaluation_does_not_import_scipy(history_file, tmp_path):
    """eval and compare run on numpy alone; a fresh interpreter proves that
    no deferred import brings scipy back."""
    out = tmp_path / "out.csv"
    code = "\n".join([
        "import sys",
        "from rankelo.cli import run",
        f"assert run(['eval', '--input', {str(history_file)!r}, "
        f"'--report', 'rounds', '--output', {str(out)!r}]) == 0",
        f"assert run(['compare', '--input', {str(history_file)!r}, "
        f"'--output', {str(out)!r}]) == 0",
        "print('scipy' in sys.modules)",
    ])
    src = str(Path(rankelo.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
