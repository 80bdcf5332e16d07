"""Drive the rating engine over a history and collect evaluation inputs."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError
from .rating import (
    CompiledHistory,
    CompiledRound,
    EngineState,
    PerformanceBreakdown,
    RatingParams,
    RoundInput,
    compile_history,
    rate_compiled_round,
)
from .store import open_text, write_divisions

_LOG_COLUMNS = tuple(f.name for f in fields(PerformanceBreakdown))
REPLAY_LOG_HEADER = ("round_id", "division", "player_id", "n") + _LOG_COLUMNS


def fold(total: float, values: np.ndarray) -> float:
    """``total`` plus each of ``values`` in order, one IEEE add at a time
    (``np.add.accumulate`` never pairs terms): every report's sum."""
    return float(np.add.accumulate(np.concatenate(([total], values)))[-1])


def division_errors(compiled: CompiledRound, perf: np.ndarray):
    """``(k, number, ids, scores, a, b, error)`` per non-empty division ``k`` of
    ``compiled``: entries ``a:b``, and ``error`` the ``fold`` of their ``|perf|``."""
    errors = np.abs(perf)
    for k, ((number, ids, scores), a, b) in enumerate(
            zip(compiled.divisions, compiled.bounds, compiled.bounds[1:])):
        if a != b:
            yield k, number, ids, scores, a, b, fold(0.0, errors[a:b])


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


def replay(rounds: Iterable[RoundInput] | CompiledHistory, params: RatingParams,
           state: EngineState | None = None,
           keep_observations: bool = True) -> ReplayResult:
    """Rate every round in order, starting from ``state`` or a fresh engine.

    ``rounds`` is compiled here unless it already is a ``CompiledHistory``,
    which must have been compiled against ``state``'s registry.  Always
    accumulates the mean prediction error and rating-change stats; the
    per-division records (``result.divisions``) are kept only with
    ``keep_observations`` (sweeps skip them for speed).
    """
    if not isinstance(rounds, CompiledHistory):
        rounds = compile_history(rounds, state)
    if state is None:
        state = EngineState.fresh(params)
    if state.ids != rounds.registry:
        raise InputError("the history was compiled against another player registry")
    result = ReplayResult(state=state)
    start = state.rounds_processed

    for offset, compiled in enumerate(rounds.rounds):
        breakdown = rate_compiled_round(compiled, state, params)
        deltas = breakdown.delta_r
        result.delta_sum = fold(result.delta_sum, deltas)
        result.delta_sq_sum = fold(result.delta_sq_sum, deltas * deltas)
        if deltas.size:
            highest = float(deltas.max())
            if result.delta_max is None or highest > result.delta_max:
                result.delta_max = highest
        breakdowns = compiled.split(breakdown) if keep_observations else None
        round_error = 0.0
        for k, number, ids, scores, _, _, division_error in division_errors(
                compiled, breakdown.perf):
            round_error += division_error
            if keep_observations:
                result.divisions.append(DivisionReplay(
                    round_index=start + offset,
                    round_id=compiled.round_id,
                    division=number,
                    player_ids=ids,
                    scores=scores,
                    breakdown=breakdowns[k],
                    error_sum=division_error,
                ))
        result.error_sum += round_error
        result.count += deltas.size
        result.round_errors.append((compiled.round_id, round_error, deltas.size))
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
