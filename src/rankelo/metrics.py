"""Prediction accuracy, rank correlations, and report aggregation.

The primary accuracy metric is the mean absolute log-rank error
``|log2(expected_rank) - log2(actual_rank)|`` over every participant of
every rated round.  Rank correlations are the tie-corrected Kendall tau-b
and the mid-rank (average-rank) Spearman rho; scores tie often enough in
contest data that the untied variants degenerate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InputError
# division_ranks is not called here; bench/test_bench.py traces this binding.
from .rating import RoundInput, canonical_ranks, division_ranks  # noqa: F401
from .replay import DivisionReplay, ReplayResult

# Experience rows: (label, lowest round number, highest round number).
EXPERIENCE_BUCKETS: tuple[tuple[str, int, int | None], ...] = (
    ("First round", 1, 1),
    ("2-7 rounds", 2, 7),
    ("8-24 rounds", 8, 24),
    ("25-74 rounds", 25, 74),
    ("75-199 rounds", 75, 199),
    ("200+ rounds", 200, None),
)

# Division-size rows for system comparisons.
SIZE_BUCKETS: tuple[tuple[str, int, int | None], ...] = (
    ("2-16 players", 0, 16),
    ("17-99 players", 17, 99),
    ("100-199 players", 100, 199),
    ("200-399 players", 200, 399),
    ("400-599 players", 400, 599),
    ("600-799 players", 600, 799),
    ("800+ players", 800, None),
)


def _degenerate(values: np.ndarray) -> bool:
    return values.size < 2 or bool((values == values[0]).all())


def kendall_tau(predicted: Sequence[float], actual: Sequence[float]) -> float | None:
    """Tie-corrected Kendall tau-b between two outcome orderings.

    Both arguments are aligned per-player values where higher means
    better (pre-round ratings against scores, typically).  Returns None
    when undefined: fewer than two players, or one side entirely tied.
    """
    x = np.asarray(predicted, dtype=np.float64)
    y = np.asarray(actual, dtype=np.float64)
    if x.shape != y.shape:
        raise InputError("rankings must be the same length")
    if _degenerate(x) or _degenerate(y):
        return None
    from scipy import stats   # deferred: importing scipy dominates CLI start-up
    tau = stats.kendalltau(x, y, variant="b").statistic
    return None if math.isnan(tau) else float(tau)


def spearman_rho(predicted: Sequence[float], actual: Sequence[float]) -> float | None:
    """Spearman rho with average ranks for ties; None when undefined."""
    x = np.asarray(predicted, dtype=np.float64)
    y = np.asarray(actual, dtype=np.float64)
    if x.shape != y.shape:
        raise InputError("rankings must be the same length")
    if _degenerate(x) or _degenerate(y):
        return None
    from scipy import stats
    rho = stats.spearmanr(x, y).statistic
    return None if math.isnan(rho) else float(rho)


@dataclass(frozen=True)
class RoundMetrics:
    """Accuracy statistics for one division of one round."""

    round_id: str
    division: int
    n: int
    mean_error: float
    kendall: float | None
    spearman: float | None


def _round_metrics(round_id: str, division: int, error_sum: float,
                   scores: Sequence[float], ratings: Sequence[float]) -> RoundMetrics:
    return RoundMetrics(
        round_id=round_id,
        division=division,
        n=len(scores),
        mean_error=error_sum / len(scores),
        kendall=kendall_tau(ratings, scores),
        spearman=spearman_rho(ratings, scores),
    )


def division_metrics(round_id: str, division: int, scores: Sequence[float],
                     ratings: Sequence[float],
                     player_ids: Sequence[str] | None = None) -> RoundMetrics:
    """Evaluate one division given pre-round ratings (from any system).

    The errors are the engine's own ``|perf|`` values, ranked in its
    canonical ``(-score, id)`` order and summed in entry order exactly as
    ``replay`` sums them, so a timeline of a replay's pre-round ratings
    reproduces ``evaluate_replay`` bit for bit.  Without ``player_ids``,
    entry position breaks score ties.
    """
    n = len(scores)
    if n == 0:
        raise InputError("division is empty")
    ids = range(n) if player_ids is None else player_ids
    if len(ratings) != n or len(ids) != n:
        raise InputError("ratings are not aligned with scores")
    *_, perf = canonical_ranks(ids, scores, ratings)
    error_sum = 0.0
    for error in np.abs(perf).tolist():
        error_sum += error
    return _round_metrics(round_id, division, error_sum, scores, ratings)


def evaluate_replay(result: ReplayResult) -> list[RoundMetrics]:
    """Per-division metrics from a replay's kept division records.

    The mean error reuses the replay's own per-division sum of the
    engine's ``|perf|`` values; no rank pass runs a second time.
    """
    if result.count and not result.divisions:
        raise InputError("replay was run with keep_observations=False")
    return [_round_metrics(record.round_id, record.division, record.error_sum,
                           record.scores, record.breakdown.rating_before)
            for record in result.divisions]


def evaluate_timeline(rounds: Iterable[RoundInput],
                      timeline: Mapping[tuple[str, str], float]) -> list[RoundMetrics]:
    """Per-division metrics for an externally supplied rating timeline."""
    out = []
    for round_input in rounds:
        for division in round_input.divisions:
            if not division.entries:
                continue
            ids, scores = zip(*division.entries)
            ratings = []
            for player_id in ids:
                key = (round_input.round_id, player_id)
                if key not in timeline:
                    raise InputError(
                        f"timeline has no rating for player {player_id!r} "
                        f"in round {round_input.round_id!r}")
                ratings.append(timeline[key])
            out.append(division_metrics(round_input.round_id, division.division,
                                        scores, ratings, player_ids=ids))
    return out


@dataclass(frozen=True)
class BucketRow:
    label: str
    count: int
    mean_delta_r: float
    mean_perf: float
    mean_error: float


@dataclass(frozen=True)
class BucketedReport:
    """Mean rating change, performance, and error per player bucket."""

    rows: tuple[BucketRow, ...]

    def row(self, label: str) -> BucketRow:
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(label)

    def labels(self) -> list[str]:
        return [row.label for row in self.rows]


class _Accumulator:
    __slots__ = ("count", "delta", "perf", "error")

    def __init__(self):
        self.count = 0
        self.delta = 0.0
        self.perf = 0.0
        self.error = 0.0

    def add(self, delta_r: np.ndarray, perf: np.ndarray) -> None:
        """Fold in some entries of one division, summing in entry order."""
        self.count += delta_r.size
        for delta in delta_r.tolist():
            self.delta += delta
        for value in perf.tolist():
            self.perf += value
            self.error += abs(value)

    def row(self, label: str) -> BucketRow:
        return BucketRow(label=label, count=self.count,
                         mean_delta_r=self.delta / self.count,
                         mean_perf=self.perf / self.count,
                         mean_error=self.error / self.count)


def aggregate_error(divisions: Iterable[DivisionReplay],
                    experience_buckets=EXPERIENCE_BUCKETS) -> BucketedReport:
    """Bucketed means over a stream of division records.

    Row layout: an ``All`` row; experience buckets that partition it by
    the player's round number; an ``Existing`` row (second round onward);
    per-division rows and their top/bottom half-rank splits, both covering
    existing players only.  Top half is actual rank <= n/2; a rank exactly
    at the (n+1)/2 midpoint lands in the bottom half.  Every bucket sums
    its entries in replay order.
    """
    every = _Accumulator()
    experience = {label: _Accumulator() for label, _, _ in experience_buckets}
    existing = _Accumulator()
    by_division: dict[int, _Accumulator] = {}
    halves: dict[tuple[int, int], _Accumulator] = {}

    for record in divisions:
        b = record.breakdown
        nr = b.nr
        every.add(b.delta_r, b.perf)
        unbucketed = np.ones(nr.size, dtype=bool)
        for label, lo, hi in experience_buckets:
            mask = unbucketed & (nr >= lo)
            if hi is not None:
                mask &= nr <= hi
            experience[label].add(b.delta_r[mask], b.perf[mask])
            unbucketed &= ~mask
        seasoned = nr >= 2
        if not seasoned.any():
            continue
        existing.add(b.delta_r[seasoned], b.perf[seasoned])
        by_division.setdefault(record.division, _Accumulator()).add(
            b.delta_r[seasoned], b.perf[seasoned])
        top = b.actual_rank <= nr.size / 2
        for half, mask in ((1, seasoned & top), (2, seasoned & ~top)):
            if mask.any():
                halves.setdefault((record.division, half), _Accumulator()).add(
                    b.delta_r[mask], b.perf[mask])

    if not every.count:
        return BucketedReport(rows=())
    rows = [every.row("All")]
    rows += [experience[label].row(label) for label, _, _ in experience_buckets
             if experience[label].count]
    if existing.count:
        rows.append(existing.row("Existing"))
    for division in sorted(by_division):
        rows.append(by_division[division].row(f"Division {division}"))
        for half in (1, 2):
            acc = halves.get((division, half))
            if acc is not None:
                rows.append(acc.row(f"D{division} H{half}"))
    return BucketedReport(rows=tuple(rows))


@dataclass(frozen=True)
class ComparisonRow:
    label: str
    rounds: int
    kendall: float | None   # fraction of rounds system A predicted better
    spearman: float | None
    error: float | None


@dataclass(frozen=True)
class ComparisonReport:
    rows: tuple[ComparisonRow, ...]

    def row(self, label: str) -> ComparisonRow:
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(label)


class _WinCounter:
    __slots__ = ("rounds", "wins", "counts")

    def __init__(self):
        self.rounds = 0
        self.wins = [0.0, 0.0, 0.0]    # kendall, spearman, error
        self.counts = [0, 0, 0]

    def add(self, a: RoundMetrics, b: RoundMetrics) -> None:
        self.rounds += 1
        pairs = ((a.kendall, b.kendall, True), (a.spearman, b.spearman, True),
                 (a.mean_error, b.mean_error, False))
        for slot, (va, vb, higher_better) in enumerate(pairs):
            if va is None or vb is None:
                continue
            if va == vb:
                score = 0.5
            elif (va > vb) == higher_better:
                score = 1.0
            else:
                score = 0.0
            self.wins[slot] += score
            self.counts[slot] += 1

    def row(self, label: str) -> ComparisonRow:
        fractions = [self.wins[i] / self.counts[i] if self.counts[i] else None
                     for i in range(3)]
        return ComparisonRow(label=label, rounds=self.rounds,
                             kendall=fractions[0], spearman=fractions[1],
                             error=fractions[2])


def compare_systems(metrics_a: Sequence[RoundMetrics],
                    metrics_b: Sequence[RoundMetrics]) -> ComparisonReport:
    """Fraction of rounds where system A predicted better than system B.

    Win = 1, tie = 0.5, loss = 0 per round and metric (higher tau/rho is
    better, lower error is better), averaged per bucket.  Each division of
    each round counts as one round.  Rounds where a correlation is
    undefined for either system are left out of that metric's average.
    Both systems must have been evaluated on the same rounds.
    """
    by_key_b = {(m.round_id, m.division): m for m in metrics_b}
    if len(by_key_b) != len(metrics_b):
        raise InputError("duplicate (round, division) in system B metrics")
    keys_a = {(m.round_id, m.division) for m in metrics_a}
    if len(keys_a) != len(metrics_a):
        raise InputError("duplicate (round, division) in system A metrics")
    if keys_a != set(by_key_b):
        raise InputError("the two systems were evaluated on different round sets")

    every = _WinCounter()
    divisions: dict[int, _WinCounter] = {}
    sizes = {label: _WinCounter() for label, _, _ in SIZE_BUCKETS}
    for a in metrics_a:
        b = by_key_b[(a.round_id, a.division)]
        if a.n != b.n:
            raise InputError(
                f"round {a.round_id!r} division {a.division} has different "
                f"player counts in the two systems")
        every.add(a, b)
        divisions.setdefault(a.division, _WinCounter()).add(a, b)
        for label, lo, hi in SIZE_BUCKETS:
            if a.n >= lo and (hi is None or a.n <= hi):
                sizes[label].add(a, b)
                break

    rows = [every.row("All")]
    rows += [divisions[d].row(f"Division {d}") for d in sorted(divisions)]
    rows += [sizes[label].row(label) for label, _, _ in SIZE_BUCKETS
             if sizes[label].rounds]
    return ComparisonReport(rows=tuple(rows))


@dataclass(frozen=True)
class RatingStats:
    """Whole-history summary: error, rating-change moments, final ratings."""

    count: int
    mean_error: float | None
    delta_mean: float | None
    delta_std: float | None
    delta_max: float | None
    initial_rating: float | None   # inflation-adjusted new-player rating at end
    rating_median: float | None
    rating_max: float | None


def rating_stats(result: ReplayResult) -> RatingStats:
    """Summarize a full replay; empty history yields an all-None summary."""
    if not result.count and not result.state.players:
        return RatingStats(count=0, mean_error=None, delta_mean=None,
                           delta_std=None, delta_max=None, initial_rating=None,
                           rating_median=None, rating_max=None)
    ratings = [player.rating for player in result.state.players.values()]
    return RatingStats(
        count=result.count,
        mean_error=result.mean_error,
        delta_mean=result.delta_mean,
        delta_std=result.delta_std,
        delta_max=result.delta_max,
        initial_rating=result.state.r1,
        rating_median=float(np.median(ratings)) if ratings else None,
        rating_max=max(ratings) if ratings else None,
    )
