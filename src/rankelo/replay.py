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
    """``(number, a, b, error)`` per non-empty division of ``compiled``:
    entries ``a:b``, and ``error`` the ``fold`` of their ``|perf|``."""
    errors = np.abs(perf)
    for number, a, b in zip(compiled.numbers, compiled.bounds, compiled.bounds[1:]):
        if a != b:
            yield number, a, b, fold(0.0, errors[a:b])


@dataclass
class ReplayResult:
    """Final engine state, each replayed round beside its breakdown (entry
    order; division ``k`` is entries ``bounds[k]:bounds[k + 1]``), and each
    round's ``(round_id, error, n)``: the sum of its divisions' ``|perf|``
    folds, and its entry count."""

    state: EngineState
    rounds: list[tuple[CompiledRound, PerformanceBreakdown]] = field(default_factory=list)
    round_errors: list[tuple[str, float, int]] = field(default_factory=list)

    @property
    def count(self) -> int:
        return sum(n for _, _, n in self.round_errors)

    @property
    def mean_error(self) -> float | None:
        errors = [error for _, error, _ in self.round_errors]
        return fold(0.0, errors) / self.count if self.count else None


def replay(rounds: Iterable[RoundInput] | CompiledHistory, params: RatingParams,
           state: EngineState | None = None,
           keep_observations: bool = True) -> ReplayResult:
    """Rate every round in order, starting from ``state`` or a fresh engine.

    ``rounds`` is compiled here unless it already is a ``CompiledHistory``,
    which must have been compiled against ``state``'s registry.  Always
    records each round's ``round_errors``; ``keep_observations`` decides
    only whether each round's ``(compiled, breakdown)`` pair is appended to
    ``result.rounds``.
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
        round_error = 0.0
        for *_, division_error in division_errors(compiled, breakdown.perf):
            round_error += division_error
        result.round_errors.append((compiled.round_id, round_error, compiled.bounds[-1]))
        if keep_observations:
            result.rounds.append((compiled, breakdown))
    return result


def write_replay_log(rounds: Iterable[tuple[CompiledRound, PerformanceBreakdown]],
                     dest) -> None:
    """Persist every entry of every ``(compiled, breakdown)`` round as CSV, one
    division after another; floats use shortest round-trip repr."""
    with open_text(dest, "w") as stream:
        write_divisions(stream, REPLAY_LOG_HEADER, (
            (compiled.round_id, number, compiled.ids[a:b], repeat(str(b - a)),
             *(map(repr, getattr(breakdown, name)[a:b].tolist())
               for name in _LOG_COLUMNS))
            for compiled, breakdown in rounds
            for number, a, b in zip(compiled.numbers, compiled.bounds, compiled.bounds[1:])))
