"""Parameter search: sweep one parameter, re-optimizing K at each point.

Tuning any damping parameter shifts where the best K sits, so a fair
error-vs-parameter curve re-optimizes K for every grid value.  The
error-vs-K curve is empirically close to unimodal; K is therefore found
by golden-section search, with a five-point probe up front that falls
back to a plain grid scan whenever the three-point bracket shape is
violated.  The history is compiled once per search; every evaluation is
a full, independent replay of it from a fresh engine, so results do not
depend on evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .errors import InputError, InternalError
from .rating import PROFILES, RatingParams, RoundInput
from .replay import compile_history, replay

# Sweepable RatingParams fields (anything but the starting rating).
SWEEP_TARGETS = ("k_factor", "weight_exponent", "variance_weight",
                 "perf_cap", "bonus", "inflation")

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Most points a grid may hold: a start:stop:step range, or a K grid scan.
MAX_GRID_POINTS = 10_000

Objective = Callable[[RatingParams], float]
Point = float | tuple[float, float]   # a K, or an (inflation, bonus) pair


def _checked_grid(name: str, grid: Sequence[float]) -> tuple[float, ...]:
    """``grid`` as a tuple; an empty or unsorted one is an ``InputError``."""
    grid = tuple(grid)
    if not grid:
        raise InputError(f"{name} grid is empty")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise InputError(f"{name} grid must be sorted ascending")
    return grid


@dataclass(frozen=True)
class SweepSpec:
    target: str
    grid: tuple[float, ...]
    base: RatingParams = PROFILES["elo"]
    k_range: tuple[float, float] = (25.0, 1500.0)
    k_step: float = 5.0

    def __post_init__(self):
        if self.target not in SWEEP_TARGETS:
            raise InputError(f"unknown sweep target {self.target!r}; "
                             f"choose one of {', '.join(SWEEP_TARGETS)}")
        _checked_grid("sweep", self.grid)
        k_min, k_max = self.k_range
        if not (0.0 < k_min <= k_max and math.isfinite(k_max)):
            raise InputError("k_range must satisfy 0 < min <= max")
        if not (self.k_step > 0.0 and math.isfinite(self.k_step)):
            raise InputError("k_step must be positive")


@dataclass(frozen=True)
class SweepPoint:
    value: float
    best_k: float
    mean_error: float


@dataclass(frozen=True)
class SweepResult:
    target: str
    points: tuple[SweepPoint, ...]
    best: SweepPoint


def _replay_objective(rounds: Sequence[RoundInput]) -> Objective:
    """Mean prediction error of a fresh replay of ``rounds``, compiled once."""
    compiled = compile_history(rounds)
    if not compiled.rounds:
        raise InputError("history is empty")

    def objective(params: RatingParams) -> float:
        error = replay(compiled, params, keep_observations=False).mean_error
        if error is None:
            raise InputError("history contains no rated entries")
        return error
    return objective


class _Cached:
    """Memoize an error function of a point."""

    __slots__ = ("f", "seen")

    def __init__(self, f: Callable[[Point], float]):
        self.f = f
        self.seen: dict[Point, float] = {}

    def __call__(self, x: Point) -> float:
        if x not in self.seen:
            self.seen[x] = self.f(x)
        return self.seen[x]

    def best(self) -> tuple[Point, float]:
        """The point with the least error seen, and that error; ties go to
        the smaller point, for determinism."""
        error, x = min((y, x) for x, y in self.seen.items())
        return x, error


def grid_points(start: float, stop: float, step: float,
                what: str) -> tuple[float, ...]:
    """The inclusive grid ``start + i*step`` up to ``stop`` (``i*step``, not
    accumulation, so the grid does not drift); one with more than
    ``MAX_GRID_POINTS`` points is an ``InputError`` whose message begins
    with ``what``."""
    steps = (stop - start) / step + 1e-9
    if not steps < MAX_GRID_POINTS:   # also rejects inf and nan
        raise InputError(f"{what} has more than {MAX_GRID_POINTS} points")
    return tuple(start + i * step for i in range(int(steps) + 1))


def _optimize_k(f: Callable[[float], float], k_min: float, k_max: float,
                k_step: float) -> tuple[float, float]:
    """Minimize an error-vs-K curve; returns (best K, its error).

    Golden-section on the probe-bracketed interval when the five-point
    probe looks unimodal, otherwise an exhaustive scan at ``k_step``.
    The reported optimum is always an actually evaluated point.
    """
    cached = _Cached(f)
    if k_max - k_min <= k_step:
        cached(k_min)
        cached(k_max)
        return cached.best()

    probes = [k_min + (k_max - k_min) * i / 4.0 for i in range(5)]
    values = [cached(x) for x in probes]
    low = min(range(5), key=lambda i: (values[i], probes[i]))
    unimodal = all(values[i] >= values[i + 1] for i in range(low)) and \
        all(values[i] <= values[i + 1] for i in range(low, 4))
    if not unimodal:
        for k in grid_points(k_min, k_max, k_step, f"the error-vs-K curve is not "
                             f"unimodal, and a grid scan of [{k_min!r}, {k_max!r}] "
                             f"at --k-step {k_step!r}"):
            cached(min(k, k_max))
        cached(k_max)
        return cached.best()

    a = probes[max(low - 1, 0)]
    b = probes[min(low + 1, 4)]
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    while b - a > k_step:
        if cached(c) <= cached(d):
            b, d = d, c
            c = b - _GOLDEN * (b - a)
        else:
            a, c = c, d
            d = a + _GOLDEN * (b - a)
    return cached.best()


def _sweep_point(spec: SweepSpec, value: float, objective: Objective) -> SweepPoint:
    base = replace(spec.base, **{spec.target: value})
    # sweeping K itself leaves no K to optimize: its range is the one point
    k_min, k_max = (value, value) if spec.target == "k_factor" else spec.k_range
    best_k, error = _optimize_k(
        lambda k: objective(replace(base, k_factor=k)), k_min, k_max,
        spec.k_step)
    return SweepPoint(value=value, best_k=best_k, mean_error=error)


def run_sweep(spec: SweepSpec, rounds: Sequence[RoundInput],
              objective: Objective | None = None) -> SweepResult:
    """Evaluate the sweep grid; each point re-optimizes K independently."""
    if objective is None:
        objective = _replay_objective(rounds)
    points = [_sweep_point(spec, value, objective) for value in spec.grid]
    best = min(points, key=lambda p: (p.mean_error, p.value))
    return SweepResult(target=spec.target, points=tuple(points), best=best)


@dataclass(frozen=True)
class JointResult:
    inflation: float
    bonus: float
    mean_error: float
    evaluations: int


def joint_search(inflation_grid: Sequence[float], bonus_grid: Sequence[float],
                 rounds: Sequence[RoundInput],
                 base: RatingParams = PROFILES["elo"],
                 objective: Objective | None = None) -> JointResult:
    """Tune the new-player inflation and performance bonus together.

    Coordinate descent over the two grids: scan one axis holding the
    other fixed, move to the axis minimum, and alternate until neither
    single-coordinate move improves.  Ties break toward the smaller
    value, so the walk terminates.  K stays at the base profile's value.
    """
    inflation_grid = _checked_grid("inflation", inflation_grid)
    bonus_grid = _checked_grid("bonus", bonus_grid)
    if objective is None:
        objective = _replay_objective(rounds)
    cached = _Cached(lambda nb: objective(replace(base, inflation=nb[0], bonus=nb[1])))
    n, b = inflation_grid[0], bonus_grid[0]
    current = cached((n, b))
    for _ in range(2 * len(inflation_grid) * len(bonus_grid) + 2):
        moved = False
        best_n = min(inflation_grid, key=lambda v: (cached((v, b)), v))
        if (cached((best_n, b)), best_n) < (current, n):
            n, current, moved = best_n, cached((best_n, b)), True
        best_b = min(bonus_grid, key=lambda v: (cached((n, v)), v))
        if (cached((n, best_b)), best_b) < (current, b):
            b, current, moved = best_b, cached((n, best_b)), True
        if not moved:
            return JointResult(inflation=n, bonus=b, mean_error=current,
                               evaluations=len(cached.seen))
    raise InternalError("coordinate descent failed to terminate")
