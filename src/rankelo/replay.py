"""Drive the rating engine over a history and collect evaluation inputs."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import ParseError
from .rating import (
    EngineState,
    PerformanceBreakdown,
    RatingParams,
    RoundInput,
    rate_round,
)
from .store import open_text

REPLAY_LOG_HEADER = (
    "round_id", "division", "player_id", "n", "nr", "rating_before",
    "actual_rank", "expected_rank", "perf", "sensitivity", "adjusted_perf",
    "weight", "variance_factor", "delta_r", "mu", "var",
)


@dataclass(frozen=True)
class Observation:
    """One player's rated appearance in one division of one round."""

    round_index: int
    round_id: str
    division: int
    player_id: str
    n: int                 # division size
    nr: int                # the player's round number, starting at 1
    rating_before: float
    breakdown: PerformanceBreakdown

    @property
    def error(self) -> float:
        return abs(self.breakdown.perf)


@dataclass(frozen=True)
class DivisionReplay:
    """Inputs needed to re-evaluate one rated division after the fact."""

    round_index: int
    round_id: str
    division: int
    ratings_before: tuple[float, ...]
    scores: tuple[float, ...]
    error_sum: float


@dataclass
class ReplayResult:
    """Final engine state plus streaming accumulators from a replay."""

    state: EngineState
    params: RatingParams
    observations: list[Observation] = field(default_factory=list)
    divisions: list[DivisionReplay] = field(default_factory=list)
    round_errors: list[tuple[str, float, int]] = field(default_factory=list)
    error_sum: float = 0.0
    count: int = 0
    delta_sum: float = 0.0
    delta_sq_sum: float = 0.0
    delta_max: float | None = None

    @property
    def mean_error(self) -> float | None:
        return self.error_sum / self.count if self.count else None

    @property
    def delta_mean(self) -> float | None:
        return self.delta_sum / self.count if self.count else None

    @property
    def delta_std(self) -> float | None:
        if not self.count:
            return None
        mean = self.delta_sum / self.count
        return max(self.delta_sq_sum / self.count - mean * mean, 0.0) ** 0.5


def replay(rounds: Iterable[RoundInput], params: RatingParams,
           state: EngineState | None = None, keep_observations: bool = True,
           keep_divisions: bool = False) -> ReplayResult:
    """Rate every round in order, starting from ``state`` or a fresh engine.

    Always accumulates the mean prediction error and rating-change stats;
    per-player observations and per-division re-evaluation records are
    collected only when requested (sweeps skip both for speed).
    """
    if state is None:
        state = EngineState.fresh(params)
    result = ReplayResult(state=state, params=params)
    start = state.rounds_processed

    for offset, round_input in enumerate(rounds):
        round_index = start + offset
        # Pre-round (rating, rounds) before rate_round mutates anything; a
        # player not yet registered will be registered by it at r1.
        before: dict[str, tuple[float, int]] = {}
        for division in round_input.divisions:
            for player_id, _ in division.entries:
                player = state.players.get(player_id)
                before[player_id] = ((state.r1, 0) if player is None
                                     else (player.rating, player.num_rounds))

        breakdowns = rate_round(round_input, state, params)

        round_error = 0.0
        round_count = 0
        for division, results in zip(round_input.divisions, breakdowns):
            division_error = 0.0
            for (player_id, _), breakdown in zip(division.entries, results):
                err = abs(breakdown.perf)
                division_error += err
                delta = breakdown.delta_r
                result.delta_sum += delta
                result.delta_sq_sum += delta * delta
                if result.delta_max is None or delta > result.delta_max:
                    result.delta_max = delta
                if keep_observations:
                    rating_before, rounds_before = before[player_id]
                    result.observations.append(Observation(
                        round_index=round_index,
                        round_id=round_input.round_id,
                        division=division.division,
                        player_id=player_id,
                        n=len(division.entries),
                        nr=rounds_before + 1,
                        rating_before=rating_before,
                        breakdown=breakdown,
                    ))
            round_error += division_error
            round_count += len(division.entries)
            if keep_divisions and division.entries:
                result.divisions.append(DivisionReplay(
                    round_index=round_index,
                    round_id=round_input.round_id,
                    division=division.division,
                    ratings_before=tuple(before[pid][0] for pid, _ in division.entries),
                    scores=tuple(score for _, score in division.entries),
                    error_sum=division_error,
                ))
        result.error_sum += round_error
        result.count += round_count
        result.round_errors.append((round_input.round_id, round_error, round_count))
    return result


def write_replay_log(observations: Sequence[Observation], dest) -> None:
    """Persist observations as CSV; floats use shortest round-trip repr."""
    with open_text(dest, "w") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(REPLAY_LOG_HEADER)
        for obs in observations:
            b = obs.breakdown
            writer.writerow([
                obs.round_id, obs.division, obs.player_id, obs.n, obs.nr,
                repr(obs.rating_before), repr(b.actual_rank), repr(b.expected_rank),
                repr(b.perf), repr(b.sensitivity), repr(b.adjusted_perf),
                repr(b.weight), repr(b.variance_factor), repr(b.delta_r),
                repr(b.mu), repr(b.var),
            ])


def parse_replay_log(source) -> list[Observation]:
    """Read back a replay log written by ``write_replay_log``."""
    with open_text(source) as stream:
        reader = csv.reader(stream)
        header = next(reader, None)
        if header is None:
            return []
        if tuple(cell.strip() for cell in header) != REPLAY_LOG_HEADER:
            raise ParseError("not a replay log (unexpected header)", line=1)
        observations: list[Observation] = []
        round_ids: list[str] = []
        for row in reader:
            line = reader.line_num
            if not row:
                continue
            if len(row) != len(REPLAY_LOG_HEADER):
                raise ParseError(
                    f"expected {len(REPLAY_LOG_HEADER)} fields, got {len(row)}", line=line)
            try:
                floats = [float(cell) for cell in row[5:]]
                n, nr = int(row[3]), int(row[4])
                division = int(row[1])
            except ValueError as exc:
                raise ParseError(str(exc), line=line) from None
            if not round_ids or round_ids[-1] != row[0]:
                round_ids.append(row[0])
            observations.append(Observation(
                round_index=len(round_ids) - 1,
                round_id=row[0],
                division=division,
                player_id=row[2],
                n=n,
                nr=nr,
                rating_before=floats[0],
                breakdown=PerformanceBreakdown(
                    actual_rank=floats[1], expected_rank=floats[2], perf=floats[3],
                    sensitivity=floats[4], adjusted_perf=floats[5], weight=floats[6],
                    variance_factor=floats[7], delta_r=floats[8], mu=floats[9],
                    var=floats[10]),
            ))
        return observations
