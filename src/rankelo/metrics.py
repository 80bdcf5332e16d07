"""Prediction accuracy, rank correlations, and report aggregation.

The primary accuracy metric is the mean absolute log-rank error
``|log2(expected_rank) - log2(actual_rank)|`` over every participant of
every rated round.  Rank correlations are the tie-corrected Kendall tau-b
and the mid-rank (average-rank) Spearman rho; scores tie often enough in
contest data that the untied variants degenerate.

Both correlations are plain numpy.  Tau-b counts tied and discordant
pairs exactly, as integers, in O(n log n): a sort for the ties and a
bottom-up merge count for the discordant pairs (Knight 1966), then takes
``(tot - xtie - ytie + ntie - 2 dis) / sqrt(tot - xtie) / sqrt(tot - ytie)``.
Rho is ``np.corrcoef`` of the two mid-rank columns.  These are the steps
and final expressions of ``scipy.stats.kendalltau`` and ``spearmanr``,
so the results carry the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InputError
from .rating import CompiledHistory, DivisionResult, RoundInput, canonical_ranks
# division_ranks is not called here; bench/test_bench.py traces this binding.
from .rating import division_ranks  # noqa: F401
from .replay import DivisionReplay, ReplayResult, compile_history, division_errors, fold

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


def _aligned(predicted: Sequence[float],
             actual: Sequence[float]) -> tuple[np.ndarray, np.ndarray] | None:
    """Both orderings as float64 arrays, or None when no correlation is
    defined: fewer than two players, a NaN, or one side entirely tied."""
    x = np.asarray(predicted, dtype=np.float64)
    y = np.asarray(actual, dtype=np.float64)
    if x.shape != y.shape:
        raise InputError("rankings must be the same length")
    for values in (x, y):
        # min and max are both NaN when any value is
        if values.size < 2 or not values.min() < values.max():
            return None
    return x, y


def _run_lengths(steps: np.ndarray) -> np.ndarray:
    """Lengths of the runs of equal sorted values; ``steps[i]`` marks a new
    value between sorted positions ``i`` and ``i + 1``."""
    return np.diff(np.flatnonzero(np.concatenate(([True], steps, [True]))))


def _tied_pairs(steps: np.ndarray) -> int:
    counts = _run_lengths(steps)
    return int(counts @ (counts - 1)) // 2


def _discordant_pairs(ranks: np.ndarray) -> int:
    """Pairs ``i < j`` with ``ranks[i] > ranks[j]``, counted exactly.

    Bottom-up merge sort (Knight 1966): padded to a power of two with a
    value above every rank, each level holds sorted runs of ``width``
    entries, and one ``searchsorted`` of every right run into its left
    partner counts the left entries greater than each right entry.  Keys
    are offset by pair so that all left runs form one sorted array.
    """
    span = int(ranks.max()) + 2
    size = 1 << (ranks.size - 1).bit_length()
    runs = np.full(size, span - 1, dtype=np.int64)
    runs[:ranks.size] = ranks
    offsets = np.arange(0, size // 2 * span, span)[:, None, None]
    discordant = 0
    width = 1
    while width < size:
        pairs = size // (2 * width)
        keyed = runs.reshape(pairs, 2, width) + offsets[:pairs]
        # A right entry of pair p lands after p * width + (left entries <= it)
        # left keys; (p + 1) * width minus that is its count of greater ones.
        landed = np.searchsorted(keyed[:, 0].ravel(), keyed[:, 1], side="right")
        discordant += width * width * pairs * (pairs + 1) // 2 - int(landed.sum())
        runs = np.sort(runs.reshape(pairs, 2 * width), axis=1)
        width *= 2
    return discordant


def kendall_tau(predicted: Sequence[float], actual: Sequence[float]) -> float | None:
    """Tie-corrected Kendall tau-b between two outcome orderings.

    Both arguments are aligned per-player values where higher means
    better (pre-round ratings against scores, typically).  Returns None
    when undefined: fewer than two players, a NaN, or one side entirely
    tied.
    """
    aligned = _aligned(predicted, actual)
    if aligned is None:
        return None
    x, y = aligned
    # Dense-rank y, then stable-sort by x: tied (x, y) pairs end up adjacent.
    order = np.argsort(y, kind="stable")
    x, y = x[order], y[order]
    y_steps = y[1:] != y[:-1]
    y_ranks = np.concatenate(([0], np.cumsum(y_steps)))
    order = np.argsort(x, kind="stable")
    x, y_ranks = x[order], y_ranks[order]
    x_steps = x[1:] != x[:-1]
    joint_steps = x_steps | (y_ranks[1:] != y_ranks[:-1])

    tot = x.size * (x.size - 1) // 2
    x_ties = _tied_pairs(x_steps)
    y_ties = _tied_pairs(y_steps)
    both_ties = _tied_pairs(joint_steps)
    con_minus_dis = (tot - x_ties - y_ties + both_ties
                     - 2 * _discordant_pairs(y_ranks))
    tau = con_minus_dis / math.sqrt(tot - x_ties) / math.sqrt(tot - y_ties)
    return min(1.0, max(-1.0, tau))


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing the mean of their positions."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    counts = _run_lengths(ordered[1:] != ordered[:-1])
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(np.cumsum(counts) - (counts - 1) / 2, counts)
    return ranks


def spearman_rho(predicted: Sequence[float], actual: Sequence[float]) -> float | None:
    """Spearman rho with average ranks for ties; None when undefined."""
    aligned = _aligned(predicted, actual)
    if aligned is None:
        return None
    x, y = aligned
    ranks = np.column_stack((_midranks(x), _midranks(y)))
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


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
    """One division's metrics from pre-round ratings (from any system): the
    one-division case of ``evaluate_timeline``.  Without ``player_ids``, entry
    position breaks score ties."""
    n = len(scores)
    if n == 0:
        raise InputError("division is empty")
    ids = range(n) if player_ids is None else player_ids
    if len(ratings) != n or len(ids) != n:
        raise InputError("ratings are not aligned with scores")
    return evaluate_timeline(
        [RoundInput(round_id, [DivisionResult(division, list(zip(ids, scores)))])],
        {(round_id, player_id): rating for player_id, rating in zip(ids, ratings)})[0]


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


def evaluate_timeline(rounds: Iterable[RoundInput] | CompiledHistory,
                      timeline: Mapping[tuple[str, str], float]) -> list[RoundMetrics]:
    """Per-division metrics for an externally supplied rating timeline: ``rounds``
    (compiled here unless it is a ``CompiledHistory``) ranked and ``|perf|`` summed
    exactly as ``replay`` does, so a timeline of a replay's pre-round ratings
    reproduces ``evaluate_replay`` bit for bit, and it refuses what ``replay`` refuses."""
    if not isinstance(rounds, CompiledHistory):
        rounds = compile_history(rounds)
    out = []
    for compiled in rounds.rounds:
        try:
            ratings = np.array([timeline[compiled.round_id, player_id] for _, ids, _
                                in compiled.divisions for player_id in ids], np.float64)
        except KeyError as exc:
            raise InputError(f"timeline has no rating for player {exc.args[0][1]!r} "
                             f"in round {compiled.round_id!r}") from None
        *_, perf = canonical_ranks(compiled, ratings)
        out += (_round_metrics(compiled.round_id, number, error, scores, ratings[a:b])
                for _, number, _, scores, a, b, error in division_errors(compiled, perf))
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


def _bucket_masks(values: np.ndarray, buckets):
    """``(label, mask)`` per bucket ``(label, lo, hi)``: ``lo <= value <= hi``,
    with no upper bound when ``hi`` is None.  A value that fits several
    buckets counts in the first."""
    free = np.ones(values.size, dtype=bool)
    for label, lo, hi in buckets:
        mask = free & (values >= lo)
        if hi is not None:
            mask &= values <= hi
        free &= ~mask
        yield label, mask


def _division_positions(numbers: Sequence[int]) -> tuple[list[int], np.ndarray]:
    """The distinct division numbers in ascending order, and each entry's
    position among them.  Division numbers are unbounded ints, so the
    groups are keyed by position, never by an int64 of the number."""
    distinct = sorted(set(numbers))
    index = {number: k for k, number in enumerate(distinct)}
    return distinct, np.array([index[number] for number in numbers], dtype=np.int64)


def aggregate_error(divisions: Iterable[DivisionReplay],
                    experience_buckets=EXPERIENCE_BUCKETS) -> BucketedReport:
    """Bucketed means over a stream of division records.

    Row layout: an ``All`` row; experience buckets that partition it by
    the player's round number; an ``Existing`` row (second round onward);
    per-division rows and their top/bottom half-rank splits, both covering
    existing players only.  Top half is actual rank <= n/2; a rank exactly
    at the (n+1)/2 midpoint lands in the bottom half.  Each row is a mask
    over the records' entries laid end to end, and every sum is a ``fold``
    of the masked entries in replay order.
    """
    records = list(divisions)
    sizes = np.array([record.breakdown.nr.size for record in records], dtype=np.int64)
    if not sizes.sum():
        return BucketedReport(rows=())
    delta_r, perf, nr, actual_rank = (
        np.concatenate([getattr(record.breakdown, name) for record in records])
        for name in ("delta_r", "perf", "nr", "actual_rank"))
    top = actual_rank <= np.repeat(sizes, sizes) / 2
    seasoned = nr >= 2
    numbers, position = _division_positions([record.division for record in records])
    position = np.repeat(position, sizes)

    masks = [("All", np.ones(nr.size, dtype=bool)),
             *_bucket_masks(nr, experience_buckets), ("Existing", seasoned)]
    for k, number in enumerate(numbers):
        division = seasoned & (position == k)
        masks += [(f"Division {number}", division), (f"D{number} H1", division & top),
                  (f"D{number} H2", division & ~top)]

    def row(label: str, mask: np.ndarray) -> BucketRow:
        count = int(np.count_nonzero(mask))
        part = perf[mask]
        return BucketRow(label=label, count=count,
                         mean_delta_r=fold(0.0, delta_r[mask]) / count,
                         mean_perf=fold(0.0, part) / count,
                         mean_error=fold(0.0, np.abs(part)) / count)

    return BucketedReport(rows=tuple(row(label, mask) for label, mask in masks
                                     if mask.any()))


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


def _metric_table(metrics: Sequence[RoundMetrics]) -> np.ndarray:
    """Rows of (kendall, spearman, -mean_error), higher is better in every
    column; NaN where a correlation is undefined (None)."""
    return np.array([(m.kendall, m.spearman, -m.mean_error) for m in metrics],
                    dtype=np.float64).reshape(-1, 3)


def compare_systems(metrics_a: Sequence[RoundMetrics],
                    metrics_b: Sequence[RoundMetrics]) -> ComparisonReport:
    """Fraction of rounds where system A predicted better than system B.

    Win = 1, tie = 0.5, loss = 0 per round and metric (higher tau/rho is
    better, lower error is better), averaged per bucket.  Each division of
    each round counts as one round.  Rounds where a correlation is
    undefined, or an error is NaN, for either system are left out of that
    metric's average.  Both systems must have been evaluated on the same
    rounds.
    """
    by_key_b = {(m.round_id, m.division): m for m in metrics_b}
    if len(by_key_b) != len(metrics_b):
        raise InputError("duplicate (round, division) in system B metrics")
    keys_a = {(m.round_id, m.division) for m in metrics_a}
    if len(keys_a) != len(metrics_a):
        raise InputError("duplicate (round, division) in system A metrics")
    if keys_a != set(by_key_b):
        raise InputError("the two systems were evaluated on different round sets")
    paired = [by_key_b[(a.round_id, a.division)] for a in metrics_a]
    for a, b in zip(metrics_a, paired):
        if a.n != b.n:
            raise InputError(
                f"round {a.round_id!r} division {a.division} has different "
                f"player counts in the two systems")

    a, b = _metric_table(metrics_a), _metric_table(paired)
    defined = ~(np.isnan(a) | np.isnan(b))
    # NaN compares false, so an undefined pair scores 0 and is not counted.
    # Scores are 0, 0.5 and 1, so every sum below is exact in any order.
    score = np.where(a == b, 0.5, a > b)
    numbers, position = _division_positions([m.division for m in metrics_a])
    sizes = np.array([m.n for m in metrics_a], dtype=np.int64)

    masks = [("All", np.ones(len(metrics_a), dtype=bool))]
    masks += [(f"Division {number}", position == k) for k, number in enumerate(numbers)]
    masks += [(label, mask) for label, mask in _bucket_masks(sizes, SIZE_BUCKETS)
              if mask.any()]

    def row(label: str, mask: np.ndarray) -> ComparisonRow:
        wins = score[mask].sum(axis=0).tolist()
        counts = defined[mask].sum(axis=0).tolist()
        kendall, spearman, error = (w / c if c else None for w, c in zip(wins, counts))
        return ComparisonRow(label=label, rounds=int(np.count_nonzero(mask)),
                             kendall=kendall, spearman=spearman, error=error)

    return ComparisonReport(rows=tuple(row(label, mask) for label, mask in masks))


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
    ratings = result.state.rating
    if not result.count and not ratings.size:
        return RatingStats(count=0, mean_error=None, delta_mean=None,
                           delta_std=None, delta_max=None, initial_rating=None,
                           rating_median=None, rating_max=None)
    return RatingStats(
        count=result.count,
        mean_error=result.mean_error,
        delta_mean=result.delta_mean,
        delta_std=result.delta_std,
        delta_max=result.delta_max,
        initial_rating=result.state.r1,
        rating_median=float(np.median(ratings)) if ratings.size else None,
        rating_max=float(ratings.max()) if ratings.size else None,
    )
