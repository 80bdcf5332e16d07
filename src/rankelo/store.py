"""Round-file parsing, rating timelines, and engine snapshots.

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
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterable, Iterator

from .errors import ParseError, SnapshotError
from .rating import DivisionResult, EngineState, PlayerState, RoundInput

ROUNDS_HEADER = ("round_id", "division", "player_id", "score")
TIMELINE_HEADER = ("round_id", "player_id", "rating_before")

_SNAPSHOT_MAGIC = b"RSNP"
_SNAPSHOT_VERSION = 1


@contextmanager
def open_text(target, mode: str = "r") -> Iterator[IO[str]]:
    """Yield ``target`` if it is already an open stream, else open it as UTF-8.

    Only a file opened here is closed on exit; a caller's stream stays open.
    """
    if hasattr(target, "read" if mode == "r" else "write"):
        yield target
    else:
        with open(target, mode, encoding="utf-8", newline="") as stream:
            yield stream


def _check_header(row: list[str], expected: tuple[str, ...]) -> None:
    got = tuple(cell.strip() for cell in row)
    if got != expected:
        unknown = [cell for cell in got if cell not in expected]
        if unknown:
            raise ParseError(f"unknown field {unknown[0]!r} in header", line=1)
        raise ParseError(
            f"header must be {','.join(expected)!r}, got {','.join(got)!r}", line=1)


def _parse_float(text: str, what: str, line: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"malformed {what} {text!r}", line=line) from None
    if not math.isfinite(value):
        raise ParseError(f"{what} must be finite, got {text!r}", line=line)
    return value


def parse_rounds(source) -> list[RoundInput]:
    """Parse a round file into rounds, in file order.

    ``source`` may be a path or an open text stream.  Divisions are grouped
    per round in order of first appearance.  Raises ``ParseError`` (with a
    line number) on duplicate players, malformed fields, or a round whose
    records are not contiguous.
    """
    with open_text(source) as stream:
        reader = csv.reader(stream)
        header = next(reader, None)
        if header is None:
            return []
        _check_header(header, ROUNDS_HEADER)

        rounds: list[RoundInput] = []
        finished: set[str] = set()
        current: RoundInput | None = None
        current_divisions: dict[int, DivisionResult] = {}
        current_players: set[str] = set()

        for row in reader:
            line = reader.line_num
            if not row:
                continue
            if len(row) != 4:
                raise ParseError(f"expected 4 fields, got {len(row)}", line=line)
            round_id, division_text, player_id, score_text = (cell.strip() for cell in row)
            if not round_id or not player_id:
                raise ParseError("round_id and player_id must be non-empty", line=line)
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


def write_rounds(rounds: Iterable[RoundInput], dest) -> None:
    """Serialize rounds back to the CSV format accepted by ``parse_rounds``."""
    with open_text(dest, "w") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(ROUNDS_HEADER)
        for round_input in rounds:
            for division in round_input.divisions:
                for player_id, score in division.entries:
                    writer.writerow(
                        [round_input.round_id, division.division, player_id, repr(score)])


def parse_timeline(source) -> dict[tuple[str, str], float]:
    """Parse an external per-round rating timeline.

    Format: ``round_id,player_id,rating_before``, the rating a foreign
    system assigned to the player just before the round.  Returns a map
    keyed by ``(round_id, player_id)``.
    """
    with open_text(source) as stream:
        reader = csv.reader(stream)
        header = next(reader, None)
        if header is None:
            return {}
        _check_header(header, TIMELINE_HEADER)
        timeline: dict[tuple[str, str], float] = {}
        for row in reader:
            line = reader.line_num
            if not row:
                continue
            if len(row) != 3:
                raise ParseError(f"expected 3 fields, got {len(row)}", line=line)
            round_id, player_id, rating_text = (cell.strip() for cell in row)
            key = (round_id, player_id)
            if key in timeline:
                raise ParseError(
                    f"duplicate rating for player {player_id!r} in round {round_id!r}",
                    line=line)
            timeline[key] = _parse_float(rating_text, "rating", line)
        return timeline


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
    """Load a snapshot written by ``save_snapshot``, verifying its checksum."""
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
    r1, = struct.unpack_from("<d", payload, offset)
    offset += 8
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
        player_id = payload[offset:offset + id_len].decode("utf-8")
        offset += id_len
        rating, num_rounds = struct.unpack_from("<dQ", payload, offset)
        offset += 16
        if player_id in players:
            raise SnapshotError(f"duplicate player {player_id!r} in snapshot")
        players[player_id] = PlayerState(rating=rating, num_rounds=int(num_rounds))
    if offset != len(payload):
        raise SnapshotError("trailing data after player records")
    return EngineState(players=players, r1=r1, rounds_processed=int(rounds_processed))


def export_snapshot(state: EngineState, dest, fmt: str = "csv") -> None:
    """Write a human-readable view of a snapshot (players sorted by id)."""
    with open_text(dest, "w") as stream:
        items = sorted(state.players.items())
        if fmt == "table":
            width = max([len("player_id")] + [len(pid) for pid, _ in items])
            stream.write(f"rounds_processed: {state.rounds_processed}\n")
            stream.write(f"r1: {state.r1!r}\n")
            stream.write(f"{'player_id'.ljust(width)}  {'rating':>12}  num_rounds\n")
            for player_id, player in items:
                stream.write(
                    f"{player_id.ljust(width)}  {player.rating:>12.2f}  {player.num_rounds}\n")
        elif fmt == "csv":
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(["rounds_processed", "r1"])
            writer.writerow([state.rounds_processed, repr(state.r1)])
            writer.writerow(["player_id", "rating", "num_rounds"])
            for player_id, player in items:
                writer.writerow([player_id, repr(player.rating), player.num_rounds])
        else:
            raise ValueError(f"unknown export format {fmt!r}")
