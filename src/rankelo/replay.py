"""Drive the rating engine over a history and collect evaluation inputs."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

from .rating import (
    EngineState,
    PerformanceBreakdown,
    RatingParams,
    RoundInput,
    rate_round,
)
from .store import open_text, write_divisions

_LOG_COLUMNS = tuple(f.name for f in fields(PerformanceBreakdown))
REPLAY_LOG_HEADER = ("round_id", "division", "player_id", "n") + _LOG_COLUMNS


@dataclass(frozen=True)
class DivisionReplay:
    """One rated division: its entries and the engine's breakdown of them."""

    round_index: int
    round_id: str
    division: int
    player_ids: tuple[str, ...]
    scores: tuple[float, ...]
    breakdown: PerformanceBreakdown   # columns aligned with player_ids
    error_sum: float                  # |perf| summed in entry order


@dataclass
class ReplayResult:
    """Final engine state plus streaming accumulators from a replay."""

    state: EngineState
    params: RatingParams
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
           state: EngineState | None = None,
           keep_observations: bool = True) -> ReplayResult:
    """Rate every round in order, starting from ``state`` or a fresh engine.

    Always accumulates the mean prediction error and rating-change stats;
    the per-division records (``result.divisions``) are kept only with
    ``keep_observations`` (sweeps skip them for speed).
    """
    if state is None:
        state = EngineState.fresh(params)
    result = ReplayResult(state=state, params=params)
    start = state.rounds_processed

    for offset, round_input in enumerate(rounds):
        breakdowns = rate_round(round_input, state, params)
        round_error = 0.0
        round_count = 0
        for division, breakdown in zip(round_input.divisions, breakdowns):
            if not division.entries:
                continue
            division_error = 0.0
            for error in np.abs(breakdown.perf).tolist():
                division_error += error
            deltas = breakdown.delta_r.tolist()
            for delta in deltas:
                result.delta_sum += delta
                result.delta_sq_sum += delta * delta
            highest = max(deltas)
            if result.delta_max is None or highest > result.delta_max:
                result.delta_max = highest
            round_error += division_error
            round_count += len(deltas)
            if keep_observations:
                result.divisions.append(DivisionReplay(
                    round_index=start + offset,
                    round_id=round_input.round_id,
                    division=division.division,
                    player_ids=tuple(player_id for player_id, _ in division.entries),
                    scores=tuple(score for _, score in division.entries),
                    breakdown=breakdown,
                    error_sum=division_error,
                ))
        result.error_sum += round_error
        result.count += round_count
        result.round_errors.append((round_input.round_id, round_error, round_count))
    return result


def write_replay_log(divisions: Sequence[DivisionReplay], dest) -> None:
    """Persist every entry of every record as CSV; floats use shortest round-trip repr."""
    with open_text(dest, "w") as stream:
        write_divisions(stream, REPLAY_LOG_HEADER, (
            (record.round_id, record.division, record.player_ids,
             repeat(str(len(record.player_ids))),
             *(map(repr, getattr(record.breakdown, name).tolist())
               for name in _LOG_COLUMNS))
            for record in divisions))
