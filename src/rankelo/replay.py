"""Drive the rating engine over a history and collect evaluation inputs."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import repeat
from typing import Iterable

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
    """``(number, ids, scores, a, b, error)`` per non-empty division of
    ``compiled``: entries ``a:b``, and ``error`` the ``fold`` of their ``|perf|``."""
    errors = np.abs(perf)
    for (number, ids, scores), a, b in zip(compiled.divisions, compiled.bounds,
                                           compiled.bounds[1:]):
        if a != b:
            yield number, ids, scores, a, b, fold(0.0, errors[a:b])


@dataclass
class ReplayResult:
    """Final engine state, each replayed round beside its breakdown (entry
    order; division ``k`` is entries ``bounds[k]:bounds[k + 1]``), and the
    error and rating-change totals of every round."""

    state: EngineState
    rounds: list[tuple[CompiledRound, PerformanceBreakdown]] = field(default_factory=list)
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
    accumulates the mean prediction error and rating-change stats;
    ``keep_observations`` decides only whether each round's
    ``(compiled, breakdown)`` pair is appended to ``result.rounds``.
    """
    if not isinstance(rounds, CompiledHistory):
        rounds = compile_history(rounds, state)
    if state is None:
        state = EngineState.fresh(params)
    if state.ids != rounds.registry:
        raise InputError("the history was compiled against another player registry")
    result = ReplayResult(state=state)

    for compiled in rounds.rounds:
        breakdown = rate_compiled_round(compiled, state, params)
        deltas = breakdown.delta_r
        result.delta_sum = fold(result.delta_sum, deltas)
        result.delta_sq_sum = fold(result.delta_sq_sum, deltas * deltas)
        if deltas.size:
            highest = float(deltas.max())
            if result.delta_max is None or highest > result.delta_max:
                result.delta_max = highest
        round_error = 0.0
        for *_, division_error in division_errors(compiled, breakdown.perf):
            round_error += division_error
        result.error_sum += round_error
        result.count += deltas.size
        result.round_errors.append((compiled.round_id, round_error, deltas.size))
        if keep_observations:
            result.rounds.append((compiled, breakdown))
    return result


def write_replay_log(rounds: Iterable[tuple[CompiledRound, PerformanceBreakdown]],
                     dest) -> None:
    """Persist every entry of every ``(compiled, breakdown)`` round as CSV, one
    division after another; floats use shortest round-trip repr."""
    with open_text(dest, "w") as stream:
        write_divisions(stream, REPLAY_LOG_HEADER, (
            (compiled.round_id, number, ids, repeat(str(b - a)),
             *(map(repr, getattr(breakdown, name)[a:b].tolist())
               for name in _LOG_COLUMNS))
            for compiled, breakdown in rounds
            for (number, ids, _), a, b in zip(compiled.divisions, compiled.bounds,
                                              compiled.bounds[1:])))
