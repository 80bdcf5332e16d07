"""Round-file parsing, rating timelines, engine snapshots, and the one CSV
dialect: every CSV the package reads or writes goes through this module.

Round files are UTF-8 CSV with header ``round_id,division,player_id,score``.
Records of one round must be contiguous; scores are stored as 64-bit floats
after a canonical decimal parse, so equally written scores (``250.00`` vs
``250.0``) compare equal and tie.

Snapshots are binary and columnar (id offsets, an id blob, a rating
column and a round-count column) with a version byte and a trailing
64-bit checksum; reloading one and continuing a replay is bit-identical to
never having stopped.  Only version 2 is read.
"""

from __future__ import annotations

import csv
import hashlib
import math
import numbers
import os
import re
import struct
from contextlib import contextmanager
from dataclasses import astuple
from itertools import chain, repeat
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .errors import InputError, ParseError, SnapshotError
from .rating import DivisionResult, EngineState, RatingParams, RoundInput
from .registry import Registry

ROUNDS_HEADER = ("round_id", "division", "player_id", "score")
TIMELINE_HEADER = ("round_id", "player_id", "rating_before")
# Characters that make a CSV cell need quotes.
_NEEDS_QUOTES = re.compile('[,"\r\n]')

_SNAPSHOT_MAGIC = b"RSNP"
_SNAPSHOT_VERSION = 2
# After the magic and the version byte: rounds_processed, r1, the player
# count, the seven RatingParams fields in declaration order (all NaN when
# unknown) and the byte length of the last round id (0: none).
_HEADER = struct.Struct("<QdQ7dI")


@contextmanager
def open_text(target, mode: str = "r") -> Iterator[IO[str]]:
    """Yield ``target`` if it is already an open stream, else open it as UTF-8.

    Only a file opened here is closed on exit; a caller's stream stays open.
    Bytes that do not decode as UTF-8 are a ``ParseError``.
    """
    try:
        if hasattr(target, "read" if mode == "r" else "write"):
            yield target
        else:
            with open(target, mode, encoding="utf-8", newline="") as stream:
                yield stream
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8 (byte {exc.object[exc.start]:#04x}: "
                         f"{exc.reason})") from None


def _is_utf8(text: str) -> bool:
    """False for text holding the lone surrogates that ``surrogateescape``
    decoding (stdin under a C locale) makes of bytes that are not UTF-8."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _parse_float(text: str, what: str, line: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"malformed {what} {text!r}", line=line) from None
    if not math.isfinite(value):
        raise ParseError(f"{what} must be finite, got {text!r}", line=line)
    return value


def _csv_rows(source, header: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line, stripped cells)`` for each non-blank row of a CSV file
    (a path or an open text stream) whose first row is ``header``; ``line``
    is where the row starts (a quoted cell may span lines).

    A wrong header or field count, an empty ``round_id`` or ``player_id``,
    a row ``csv`` cannot read (a cell past ``csv.field_size_limit()``, say),
    or text that is not UTF-8 is a ``ParseError``.
    """
    with open_text(source) as stream:
        reader = csv.reader(stream)
        line = 1
        try:
            got = tuple(cell.strip() for cell in next(reader, header))   # empty: no rows
            line = reader.line_num + 1
            if got != header:
                unknown = [cell for cell in got if cell not in header]
                if unknown:
                    raise ParseError(f"unknown field {unknown[0]!r} in header", line=1)
                raise ParseError(
                    f"header must be {','.join(header)!r}, got {','.join(got)!r}", line=1)
            width = len(header)
            player_column = header.index("player_id")
            for row in reader:
                start, line = line, reader.line_num + 1
                if not row:
                    continue
                if len(row) != width:
                    raise ParseError(f"expected {width} fields, got {len(row)}", line=start)
                cells = [cell.strip() for cell in row]
                round_id, player_id = cells[0], cells[player_column]
                if not round_id or not player_id:
                    raise ParseError("round_id and player_id must be non-empty", line=start)
                if not (round_id.isascii() and player_id.isascii()):
                    for cell in (round_id, player_id):
                        if not _is_utf8(cell):
                            raise ParseError(f"{cell!r} is not valid UTF-8", line=start)
                yield start, cells
        except csv.Error as exc:
            raise ParseError(str(exc), line=line) from None


def parse_rounds(source) -> list[RoundInput]:
    """Parse a round file into rounds, in file order.

    ``source`` may be a path or an open text stream.  Divisions are grouped
    per round in order of first appearance.  Raises ``ParseError`` (with a
    line number) on duplicate players, malformed fields, or a round whose
    records are not contiguous.
    """
    rounds: dict[str, RoundInput] = {}
    current: RoundInput | None = None
    current_divisions: dict[int, DivisionResult] = {}
    current_players: set[str] = set()

    for line, (round_id, division_text, player_id, score_text) in _csv_rows(
            source, ROUNDS_HEADER):
        try:
            division = int(division_text)
        except ValueError:
            raise ParseError(f"malformed division {division_text!r}", line=line) from None
        score = _parse_float(score_text, "score", line)

        if current is None or round_id != current.round_id:
            if round_id in rounds:
                raise ParseError(
                    f"records for round {round_id!r} are not contiguous", line=line)
            current = rounds[round_id] = RoundInput(round_id=round_id, divisions=[])
            current_divisions = {}
            current_players = set()
        if player_id in current_players:
            raise ParseError(
                f"duplicate player {player_id!r} in round {round_id!r}", line=line)
        current_players.add(player_id)

        bucket = current_divisions.get(division)
        if bucket is None:
            bucket = DivisionResult(division=division, entries=[])
            current_divisions[division] = bucket
            current.divisions.append(bucket)
        bucket.entries.append((player_id, score))
    return list(rounds.values())


def csv_cell(value) -> str:
    """``value`` as one CSV cell: a float as its ``repr``, None as an empty cell.

    Quoting is ``csv.QUOTE_MINIMAL``'s, plus a carriage return, as Python
    3.13's ``csv`` does: older versions leave it bare, which ends the row.
    """
    if value is None:
        return ""
    text = repr(value) if isinstance(value, float) else str(value)
    if _NEEDS_QUOTES.search(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


def write_csv(stream: IO[str], header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and then ``rows`` to ``stream`` as CSV lines ending in ``\\n``."""
    for row in chain([header], rows):
        stream.write(",".join(map(csv_cell, row)) + "\n")


def write_divisions(stream: IO[str], header: Sequence[str],
                    divisions: Iterable[tuple]) -> None:
    """Write ``header``, then each ``(round_id, division, ids, *columns)`` as one
    string: per id, a line ``round_id,division,id`` and its cell of each column.
    Ids are quoted one by one only when some id of the division needs it."""
    stream.write(",".join(header) + "\n")
    for round_id, division, ids, *columns in divisions:
        if ids:
            cells = map(csv_cell, ids) if _NEEDS_QUOTES.search("".join(ids)) else ids
            rows = zip(repeat(csv_cell(round_id)), repeat(str(division)), cells, *columns)
            stream.write("\n".join(map(",".join, rows)) + "\n")


def write_rounds(rounds: Iterable[RoundInput], dest) -> None:
    """Serialize rounds back to the CSV format accepted by ``parse_rounds``, after
    refusing any id it would not read back (not a string, empty, outer
    whitespace, not UTF-8) and any score that is not a finite real number."""
    rounds = tuple(rounds)
    for round_input in rounds:
        round_id = round_input.round_id
        _check_written_id(round_id)
        for division in round_input.divisions:
            for player_id, score in division.entries:
                _check_written_id(player_id)
                if not _is_finite_real(score):
                    raise InputError(f"score {score!r} of player {player_id!r} in round "
                                     f"{round_id!r} is not a finite real number")
    with open_text(dest, "w") as stream:
        write_divisions(stream, ROUNDS_HEADER, (
            (round_input.round_id, division.division, [p for p, _ in division.entries],
             [repr(float(score)) for _, score in division.entries])
            for round_input in rounds for division in round_input.divisions))


def _check_written_id(value) -> None:
    """Refuse an id that a rounds file would not give back."""
    if not isinstance(value, str):
        raise InputError(f"id {value!r} is not a string")
    if not value or value != value.strip() or not (value.isascii() or _is_utf8(value)):
        raise InputError(f"id {value!r} would not read back from a rounds file: "
                         f"it is empty, has outer whitespace or is not UTF-8")


def _is_finite_real(value) -> bool:
    """Whether ``value`` is a real number that a float holds finitely."""
    try:
        return isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:   # an int past the float range
        return False


def parse_timeline(source) -> dict[tuple[str, str], float]:
    """Parse an external per-round rating timeline.

    Format: ``round_id,player_id,rating_before``, the rating a foreign
    system assigned to the player just before the round.  Returns a map
    keyed by ``(round_id, player_id)``.
    """
    timeline: dict[tuple[str, str], float] = {}
    for line, (round_id, player_id, rating_text) in _csv_rows(source, TIMELINE_HEADER):
        key = (round_id, player_id)
        if key in timeline:
            raise ParseError(
                f"duplicate rating for player {player_id!r} in round {round_id!r}",
                line=line)
        timeline[key] = _parse_float(rating_text, "rating", line)
    return timeline


def _replace_file(path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a new sibling file that then replaces
    the destination, so a failed write leaves the old file (and removes the
    sibling).  A destination that exists and is not a regular file (a FIFO,
    ``/dev/stdout``) is written in place."""
    if os.path.exists(path) and not os.path.isfile(path):
        Path(path).write_bytes(data)
        return
    target = Path(os.path.realpath(path))   # through a symlink, not over it
    temporary = target.with_name(f".{target.name}.{os.urandom(6).hex()}.tmp")
    stream = open(temporary, "xb")   # not mkstemp's 0600: the mode a plain write gives
    try:
        with stream:
            stream.write(data)
        os.replace(temporary, target)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def save_snapshot(state: EngineState, path) -> None:
    """Write the engine state as a checksummed, columnar (version 2) snapshot.

    A write that fails leaves the file at ``path`` as it was."""
    try:
        ends, blob = state.registry.encoded()
        last = (state.last_round_id or "").encode("utf-8")
    except UnicodeEncodeError as exc:
        raise InputError(f"{exc.object!r} is not valid UTF-8") from None
    params = (math.nan,) * 7 if state.params is None else astuple(state.params)
    payload = b"".join((
        _SNAPSHOT_MAGIC, bytes([_SNAPSHOT_VERSION]),
        _HEADER.pack(state.rounds_processed, state.r1, ends.size, *params, len(last)),
        last, ends.astype("<u8").tobytes(), blob,
        state.rating.astype("<f8").tobytes(), state.num_rounds.astype("<u8").tobytes()))
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    _replace_file(path, payload + digest)


def _truncated_unless(ok: bool) -> None:
    if not ok:
        raise SnapshotError("snapshot truncated")


def load_snapshot(path) -> EngineState:
    """Load a snapshot written by ``save_snapshot``.

    The body after the header holds u64 id end-offsets, the UTF-8 id blob,
    ``<f8`` ratings and ``<u8`` counts.  Verifies the version, the checksum,
    the layout and that every id is UTF-8; any failure, or a state
    ``EngineState`` refuses (a round count above ``MAX_ROUNDS``, say), is a
    ``SnapshotError``.  The ids stay undecoded, as the file's blob (see
    ``registry.Registry``).
    """
    data = Path(path).read_bytes()
    _truncated_unless(len(data) >= 5)
    if data[:4] != _SNAPSHOT_MAGIC:
        raise SnapshotError("not a snapshot file")
    if data[4] != _SNAPSHOT_VERSION:
        raise SnapshotError(f"unsupported snapshot version {data[4]}: only version "
                            f"{_SNAPSHOT_VERSION} is read; re-rate the rounds to write "
                            f"a new snapshot")
    payload, digest = data[:-8], data[-8:]
    offset = 5 + _HEADER.size   # past the magic, the version byte and the header
    _truncated_unless(len(payload) >= offset)
    if hashlib.blake2b(payload, digest_size=8).digest() != digest:
        raise SnapshotError("checksum mismatch (corrupt or truncated snapshot)")

    rounds_processed, r1, count, *values, id_len = _HEADER.unpack_from(payload, 5)
    params = None
    if not all(map(math.isnan, values)):   # all NaN: parameters unknown
        try:
            params = RatingParams(*values)
        except InputError as exc:
            raise SnapshotError(f"invalid rating parameters: {exc}") from None
    _truncated_unless(offset + id_len + 8 * count <= len(payload))
    try:
        last_round_id = payload[offset:offset + id_len].decode("utf-8") or None
    except UnicodeDecodeError:
        raise SnapshotError("last round id is not valid UTF-8") from None
    offset += id_len
    ends = np.frombuffer(payload, "<u8", count, offset)
    offset += 8 * count
    if count and (ends[1:] < ends[:-1]).any():
        raise SnapshotError("player id offsets are not ascending")
    blob_end = offset + (int(ends[-1]) if count else 0)
    _truncated_unless(blob_end + 16 * count <= len(payload))
    if blob_end + 16 * count != len(payload):
        raise SnapshotError("trailing data after player records")
    try:
        return EngineState(ids=Registry.from_blob(payload[offset:blob_end], ends),
                           rating=np.frombuffer(payload, "<f8", count, blob_end),
                           num_rounds=np.frombuffer(payload, "<u8", count,
                                                    blob_end + 8 * count),
                           r1=r1, rounds_processed=rounds_processed, params=params,
                           last_round_id=last_round_id)
    except InputError as exc:   # a state no engine could hold
        raise SnapshotError(str(exc)) from None


def export_snapshot(state: EngineState, dest, fmt: str = "csv") -> None:
    """Write a human-readable view of a snapshot (players sorted by id)."""
    if fmt not in ("csv", "table"):
        raise InputError(f"unknown export format {fmt!r}")
    ids = state.ids
    order = sorted(range(len(ids)), key=ids.__getitem__)
    rows = list(zip([ids[i] for i in order], state.rating[order].tolist(),
                    state.num_rounds[order].tolist()))
    with open_text(dest, "w") as stream:
        if fmt == "csv":
            write_csv(stream, ("rounds_processed", "r1"),
                      [(state.rounds_processed, state.r1)])
            write_csv(stream, ("player_id", "rating", "num_rounds"), rows)
            return
        width = max([len("player_id")] + [len(row[0]) for row in rows])
        stream.write(f"rounds_processed: {state.rounds_processed}\n")
        stream.write(f"r1: {state.r1!r}\n")
        stream.write(f"{'player_id'.ljust(width)}  {'rating':>12}  num_rounds\n")
        for player_id, rating, num_rounds in rows:
            stream.write(f"{player_id.ljust(width)}  {rating:>12.2f}  {num_rounds}\n")
