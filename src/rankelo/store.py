"""Round-file parsing, rating timelines, engine snapshots, and the one CSV
dialect: every CSV the package reads or writes goes through this module.

Round files are UTF-8 CSV with header ``round_id,division,player_id,score``.
Records of one round must be contiguous; scores are stored as 64-bit floats
after a canonical decimal parse, so equally written scores (``250.00`` vs
``250.0``) compare equal and tie.

Snapshots are length-prefixed binary with a version byte and a trailing
64-bit checksum; reloading one and continuing a replay is bit-identical to
never having stopped.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
import struct
from contextlib import contextmanager
from itertools import chain, repeat
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence

from .errors import InputError, ParseError, SnapshotError
from .rating import DivisionResult, EngineState, PlayerState, RoundInput

ROUNDS_HEADER = ("round_id", "division", "player_id", "score")
TIMELINE_HEADER = ("round_id", "player_id", "rating_before")
# Characters that make a CSV cell need quotes.
_NEEDS_QUOTES = re.compile('[,"\r\n]')

_SNAPSHOT_MAGIC = b"RSNP"
_SNAPSHOT_VERSION = 1
# Largest round count a snapshot may hold, per player and in all: exact as a
# float and far inside the engine's int64 round numbers.
_MAX_ROUNDS = 2 ** 53


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


def _require_utf8(line: int, *cells: str) -> None:
    """Reject the lone surrogates that ``surrogateescape`` decoding (stdin
    under a C locale) makes of bytes that are not UTF-8."""
    for cell in cells:
        try:
            cell.encode("utf-8")
        except UnicodeEncodeError:
            raise ParseError(f"{cell!r} is not valid UTF-8", line=line) from None


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
    (a path or an open text stream) whose first row is ``header``.

    A wrong header or field count, an empty ``round_id`` or ``player_id``,
    or text that is not UTF-8 is a ``ParseError``.
    """
    with open_text(source) as stream:
        reader = csv.reader(stream)
        got = tuple(cell.strip() for cell in next(reader, header))  # empty: no rows
        if got != header:
            unknown = [cell for cell in got if cell not in header]
            if unknown:
                raise ParseError(f"unknown field {unknown[0]!r} in header", line=1)
            raise ParseError(
                f"header must be {','.join(header)!r}, got {','.join(got)!r}", line=1)
        width = len(header)
        player_column = header.index("player_id")
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != width:
                raise ParseError(f"expected {width} fields, got {len(row)}", line=line)
            cells = [cell.strip() for cell in row]
            round_id, player_id = cells[0], cells[player_column]
            if not round_id or not player_id:
                raise ParseError("round_id and player_id must be non-empty", line=line)
            if not (round_id.isascii() and player_id.isascii()):
                _require_utf8(line, round_id, player_id)
            yield line, cells


def parse_rounds(source) -> list[RoundInput]:
    """Parse a round file into rounds, in file order.

    ``source`` may be a path or an open text stream.  Divisions are grouped
    per round in order of first appearance.  Raises ``ParseError`` (with a
    line number) on duplicate players, malformed fields, or a round whose
    records are not contiguous.
    """
    rounds: list[RoundInput] = []
    finished: set[str] = set()
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
            if round_id in finished:
                raise ParseError(
                    f"records for round {round_id!r} are not contiguous", line=line)
            if current is not None:
                rounds.append(current)
                finished.add(current.round_id)
            current = RoundInput(round_id=round_id, divisions=[])
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

    if current is not None:
        rounds.append(current)
    return rounds


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
    """Serialize rounds back to the CSV format accepted by ``parse_rounds``."""
    with open_text(dest, "w") as stream:
        write_divisions(stream, ROUNDS_HEADER, (
            (round_input.round_id, division.division, [p for p, _ in division.entries],
             [repr(score) for _, score in division.entries])
            for round_input in rounds for division in round_input.divisions))


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


def timeline_ratings(timeline: Mapping[tuple[str, str], float], round_id: str,
                     player_ids: Iterable[str]) -> list[float]:
    """The ratings ``timeline`` gives ``player_ids`` before round ``round_id``."""
    ratings = []
    for player_id in player_ids:
        if (round_id, player_id) not in timeline:
            raise InputError(f"timeline has no rating for player {player_id!r} "
                             f"in round {round_id!r}")
        ratings.append(timeline[round_id, player_id])
    return ratings


def save_snapshot(state: EngineState, path) -> None:
    """Write the engine state as a checksummed binary snapshot."""
    buf = bytearray()
    buf += _SNAPSHOT_MAGIC
    buf.append(_SNAPSHOT_VERSION)
    buf += struct.pack("<Q", state.rounds_processed)
    buf += struct.pack("<d", state.r1)
    buf += struct.pack("<Q", len(state.players))
    for player_id, player in state.players.items():
        raw = player_id.encode("utf-8")
        buf += struct.pack("<I", len(raw))
        buf += raw
        buf += struct.pack("<dQ", player.rating, player.num_rounds)
    digest = hashlib.blake2b(bytes(buf), digest_size=8).digest()
    Path(path).write_bytes(bytes(buf) + digest)


def load_snapshot(path) -> EngineState:
    """Load a snapshot written by ``save_snapshot``.

    Verifies the checksum, that every player id is UTF-8, that every
    rating (``r1`` included) is finite, and that no round count (the
    engine's ``rounds_processed`` included) is above 2**53; any failure is
    a ``SnapshotError``.
    """
    data = Path(path).read_bytes()
    if len(data) < len(_SNAPSHOT_MAGIC) + 1 + 8 + 8 + 8 + 8:
        raise SnapshotError("snapshot truncated")
    payload, digest = data[:-8], data[-8:]
    if payload[:4] != _SNAPSHOT_MAGIC:
        raise SnapshotError("not a snapshot file")
    version = payload[4]
    if version != _SNAPSHOT_VERSION:
        raise SnapshotError(f"unsupported snapshot version {version}")
    if hashlib.blake2b(payload, digest_size=8).digest() != digest:
        raise SnapshotError("checksum mismatch (corrupt or truncated snapshot)")

    offset = 5
    rounds_processed, = struct.unpack_from("<Q", payload, offset)
    offset += 8
    if rounds_processed > _MAX_ROUNDS:
        raise SnapshotError(f"rounds_processed {rounds_processed} is above 2**53")
    r1, = struct.unpack_from("<d", payload, offset)
    offset += 8
    if not math.isfinite(r1):
        raise SnapshotError(f"non-finite new-player rating {r1!r}")
    count, = struct.unpack_from("<Q", payload, offset)
    offset += 8
    players: dict[str, PlayerState] = {}
    for _ in range(count):
        if offset + 4 > len(payload):
            raise SnapshotError("snapshot truncated")
        id_len, = struct.unpack_from("<I", payload, offset)
        offset += 4
        if offset + id_len + 16 > len(payload):
            raise SnapshotError("snapshot truncated")
        try:
            player_id = payload[offset:offset + id_len].decode("utf-8")
        except UnicodeDecodeError:
            raise SnapshotError("player id is not valid UTF-8") from None
        offset += id_len
        rating, num_rounds = struct.unpack_from("<dQ", payload, offset)
        offset += 16
        if player_id in players:
            raise SnapshotError(f"duplicate player {player_id!r} in snapshot")
        if not math.isfinite(rating):
            raise SnapshotError(f"non-finite rating for player {player_id!r}")
        if num_rounds > _MAX_ROUNDS:
            raise SnapshotError(f"round count {num_rounds} for player "
                                f"{player_id!r} is above 2**53")
        players[player_id] = PlayerState(rating=rating, num_rounds=int(num_rounds))
    if offset != len(payload):
        raise SnapshotError("trailing data after player records")
    return EngineState(players=players, r1=r1, rounds_processed=int(rounds_processed))


def export_snapshot(state: EngineState, dest, fmt: str = "csv") -> None:
    """Write a human-readable view of a snapshot (players sorted by id)."""
    if fmt not in ("csv", "table"):
        raise InputError(f"unknown export format {fmt!r}")
    items = sorted(state.players.items())
    with open_text(dest, "w") as stream:
        if fmt == "csv":
            write_csv(stream, ("rounds_processed", "r1"),
                      [(state.rounds_processed, state.r1)])
            write_csv(stream, ("player_id", "rating", "num_rounds"),
                      ((player_id, player.rating, player.num_rounds)
                       for player_id, player in items))
            return
        width = max([len("player_id")] + [len(pid) for pid, _ in items])
        stream.write(f"rounds_processed: {state.rounds_processed}\n")
        stream.write(f"r1: {state.r1!r}\n")
        stream.write(f"{'player_id'.ljust(width)}  {'rating':>12}  num_rounds\n")
        for player_id, player in items:
            stream.write(
                f"{player_id.ljust(width)}  {player.rating:>12.2f}  {player.num_rounds}\n")
