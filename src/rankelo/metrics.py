"""Prediction accuracy, rank correlations, and report aggregation.

The primary accuracy metric is the mean absolute log-rank error
``|log2(expected_rank) - log2(actual_rank)|`` over every participant of
every rated round.  Rank correlations are the tie-corrected Kendall tau-b
and the mid-rank (average-rank) Spearman rho; scores tie often enough in
contest data that the untied variants degenerate.

Both correlations are plain numpy, and one pass over a whole history
(``_correlations``) gives every division's tau-b and rho from one set of
sorts that the two statistics share; ``kendall_tau`` and ``spearman_rho``
are its one-division calls.  Integer (division, value) keys, below the
number of divisions times the number of entries, give the (division,
score) and (division, rating, score) orders.  Tau-b counts tied pairs
from their run lengths and discordant pairs with a bottom-up merge count
(Knight 1966) over all divisions at once, exactly, as integers, in
O(n log n), then takes
``(tot - xtie - ytie + ntie - 2 dis) / sqrt(tot - xtie) / sqrt(tot - ytie)``.
Rho repeats the last steps of ``np.corrcoef`` on the two mid-rank columns.
Centred mid-ranks are multiples of 0.5, so each sum of their products is
a multiple of 0.25 of at most ``(n**3 - n) / 12`` and exact below 2**51:
for every division of up to 300,079 entries, the sums, and so the bits,
are those of ``np.corrcoef``.  Past that bound they round, as
``np.corrcoef``'s own dot product does.  These are the steps and final
expressions of ``scipy.stats.kendalltau`` and ``spearmanr``, so the
results carry the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InputError
from .rating import (CompiledHistory, CompiledRound, DivisionResult,
                     PerformanceBreakdown, RoundInput, canonical_ranks)
# division_ranks is not called here; bench/test_bench.py traces this binding.
from .rating import division_ranks  # noqa: F401
from .replay import ReplayResult, compile_history, division_errors, fold

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


def _runs(steps: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Starts and lengths of the runs of ``n`` equal sorted keys, where
    ``steps[i]`` marks a new key between sorted positions ``i`` and ``i + 1``
    and every division boundary is a step."""
    starts = np.flatnonzero(np.concatenate(([True], steps)))
    return starts, np.diff(np.append(starts, n))


def _tied_pairs(runs: tuple[np.ndarray, np.ndarray], bounds: np.ndarray) -> np.ndarray:
    """Pairs of entries in one run, per division."""
    starts, lengths = runs
    pairs = np.cumsum(np.concatenate(([0], lengths * (lengths - 1) // 2)))
    return np.diff(pairs[np.searchsorted(starts, bounds)])


def _midranks(runs: tuple[np.ndarray, np.ndarray], bounds: np.ndarray) -> np.ndarray:
    """Each sorted position's mid-rank less its division's mean rank: a run
    at positions ``s .. s+l-1`` of division ``a:b`` has mid-rank
    ``s - a + (l + 1)/2`` and the mean rank is ``(b - a + 1)/2``, so the
    centred mid-rank is ``(2s + l - a - b) / 2``, a multiple of 0.5."""
    starts, lengths = runs
    twice = (np.repeat(2 * starts + lengths, lengths)
             - np.repeat(bounds[:-1] + bounds[1:], np.diff(bounds)))
    return twice / 2


def _discordant_pairs(ranks: np.ndarray, bounds: np.ndarray, top: int) -> np.ndarray:
    """Pairs ``i < j`` of one division with ``ranks[i] > ranks[j]``, counted
    exactly per division; every rank is below ``top``.

    A bottom-up merge sort (Knight 1966) of every division at once.  Each
    division fills a block of the next power of two entries, padded with
    ``top``; blocks are laid out largest first, so each starts at a multiple
    of its size and a merge level's rows of ``2 * width`` entries each lie in
    one block.  A row sorts the keys ``2 * rank + side`` (side 0 for its left
    run, 1 for its right), so on equal ranks its left entries come first and
    the right run's ``k``-th entry, merged to position ``q``, has
    ``width - (q - k)`` greater left entries: the row counts
    ``width**2 + width * (width - 1) / 2`` less its right entries' positions.
    """
    sizes = np.diff(bounds)
    blocks = 1 << np.frexp(np.maximum(sizes - 1, 0))[1].astype(np.int64)
    layout = np.argsort(-blocks, kind="stable")
    laid = blocks[layout]
    first = np.empty_like(blocks)
    first[layout] = np.cumsum(laid) - laid
    runs = np.full(int(laid.sum()), top, dtype=np.int64)
    runs[np.arange(ranks.size) + np.repeat(first - bounds[:-1], sizes)] = ranks
    side = np.array([[0], [1]])
    discordant = np.zeros(sizes.size, dtype=np.int64)
    width = 1
    while 2 * width <= laid[0]:
        merging = np.count_nonzero(laid >= 2 * width)   # a prefix of the layout
        rows_per_block = laid[:merging] // (2 * width)
        end = int(laid[:merging].sum())
        rows = np.sort((runs[:end].reshape(-1, 2, width) << 1 | side)
                       .reshape(-1, 2 * width), axis=1)
        counts = width * (3 * width - 1) // 2 - (rows & 1) @ np.arange(2 * width)
        discordant[layout[:merging]] += np.add.reduceat(
            counts, np.cumsum(rows_per_block) - rows_per_block)
        runs[:end] = (rows >> 1).ravel()
        width *= 2
    return discordant


def _correlations(ratings: np.ndarray, scores: np.ndarray, bounds: Sequence[int]
                  ) -> tuple[list[float | None], list[float | None]]:
    """Kendall tau-b and Spearman rho between ``ratings`` and ``scores`` for
    every division ``k``, whose entries are ``bounds[k]:bounds[k + 1]``; None
    where undefined (fewer than two entries, a NaN, or one side all tied).

    Both statistics share one set of sorts: (division, value) keys, below
    the number of divisions times the number of entries, give the
    (division, score) order, and a stable re-sort of it by rating the
    (division, rating, score) order.
    """
    x = np.asarray(ratings, dtype=np.float64)
    y = np.asarray(scores, dtype=np.float64)
    bounds = np.asarray(bounds, dtype=np.int64)
    n, sizes = x.size, np.diff(bounds)
    division = np.repeat(np.arange(sizes.size), sizes)
    # Dense ranks from 0: equal values share one, each NaN has its own.
    y_ranks = np.unique(y, return_inverse=True, equal_nan=False)[1]
    x_keys = division * n + np.unique(x, return_inverse=True, equal_nan=False)[1]
    y_keys = division * n + y_ranks
    by_y = np.argsort(y_keys)
    by_xy = by_y[np.argsort(x_keys[by_y], kind="stable")]

    y_sorted = y_keys[by_y]
    y_runs = _runs(y_sorted[1:] != y_sorted[:-1], n)
    x_sorted, y_ranks = x_keys[by_xy], y_ranks[by_xy]
    x_steps = x_sorted[1:] != x_sorted[:-1]
    x_runs = _runs(x_steps, n)
    joint_runs = _runs(x_steps | (y_ranks[1:] != y_ranks[:-1]), n)

    tot = sizes * (sizes - 1) // 2
    x_ties, y_ties = _tied_pairs(x_runs, bounds), _tied_pairs(y_runs, bounds)
    con_minus_dis = (tot - x_ties - y_ties + _tied_pairs(joint_runs, bounds)
                     - 2 * _discordant_pairs(y_ranks, bounds, n))

    # Exact sums of multiples of 0.25 below 2**51 (see the module docstring).
    x_centred = _midranks(x_runs, bounds)
    y_centred = np.empty(n)
    y_centred[by_y] = _midranks(y_runs, bounds)
    y_centred = y_centred[by_xy]
    sxy, syy, sxx, nans = (
        # The appended 0 keeps an empty last division's start in range; an
        # empty division is undefined, so its sums are never read.
        np.add.reduceat(np.append(column, 0), bounds[:-1])
        for column in (x_centred * y_centred, y_centred * y_centred,
                       x_centred * x_centred, np.isnan(x) | np.isnan(y)))

    defined = ((x_ties < tot) & (y_ties < tot) & (nans == 0)).tolist()
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = con_minus_dis / np.sqrt(tot - x_ties) / np.sqrt(tot - y_ties)
        f = 1 / (sizes - 1)   # np.corrcoef's steps, in its order
        rho = sxy * f / np.sqrt(syy * f) / np.sqrt(sxx * f)
    return tuple([value if ok else None for value, ok in
                  zip(np.clip(column, -1.0, 1.0).tolist(), defined)]
                 for column in (tau, rho))


def _one_division(predicted: Sequence[float], actual: Sequence[float]):
    """``_correlations`` of two aligned orderings as one division."""
    message = "rankings must be two 1-D sequences of numbers of the same length"
    try:
        x = np.asarray(predicted, dtype=np.float64)
        y = np.asarray(actual, dtype=np.float64)
    except (TypeError, ValueError):   # not numbers, or ragged
        raise InputError(message) from None
    if x.ndim != 1 or x.shape != y.shape:
        raise InputError(message)
    return _correlations(x, y, (0, x.size))


def kendall_tau(predicted: Sequence[float], actual: Sequence[float]) -> float | None:
    """Tie-corrected Kendall tau-b between two outcome orderings.

    Both arguments are aligned per-player values where higher means
    better (pre-round ratings against scores, typically).  Returns None
    when undefined: fewer than two players, a NaN, or one side entirely
    tied.
    """
    return _one_division(predicted, actual)[0][0]


def spearman_rho(predicted: Sequence[float], actual: Sequence[float]) -> float | None:
    """Spearman rho with average ranks for ties; None when undefined."""
    return _one_division(predicted, actual)[1][0]


@dataclass(frozen=True)
class RoundMetrics:
    """Accuracy statistics for one division of one round."""

    round_id: str
    division: int
    n: int
    mean_error: float
    kendall: float | None
    spearman: float | None


def _round_metrics(rounds: Iterable[tuple[CompiledRound, np.ndarray, np.ndarray]]
                   ) -> list[RoundMetrics]:
    """The metrics of every non-empty division of each ``(compiled, ratings,
    perf)`` round, whose pre-round ``ratings`` and ``perf`` are in entry
    order: ``|perf|`` folded per division, as ``replay`` does, and one
    correlation pass for them all."""
    rows, ratings, scores = [], [], []
    for compiled, before, perf in rounds:
        ratings.append(before)
        scores.append(compiled.scores)
        rows += ((compiled.round_id, number, b - a, error)
                 for number, a, b, error in division_errors(compiled, perf))
    if not rows:
        return []
    bounds = np.cumsum([0] + [n for _, _, n, _ in rows])
    kendall, spearman = _correlations(np.concatenate(ratings), np.concatenate(scores),
                                      bounds)
    return [RoundMetrics(round_id=round_id, division=division, n=n,
                         mean_error=error_sum / n, kendall=tau, spearman=rho)
            for (round_id, division, n, error_sum), tau, rho
            in zip(rows, kendall, spearman)]


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
    compiled, = compile_history(
        [RoundInput(round_id, [DivisionResult(division, list(zip(ids, scores)))])]).rounds
    ratings = np.asarray(ratings, dtype=np.float64)
    (*_, error), = division_errors(compiled, canonical_ranks(compiled, ratings)[-1])
    return RoundMetrics(round_id=round_id, division=division, n=n, mean_error=error / n,
                        kendall=kendall_tau(ratings, scores),
                        spearman=spearman_rho(ratings, scores))


def _kept_rounds(result: ReplayResult):
    """``result.rounds``, refused when the replay kept none of its entries."""
    if result.count and not result.rounds:
        raise InputError("replay was run with keep_observations=False")
    return result.rounds


def evaluate_replay(result: ReplayResult) -> list[RoundMetrics]:
    """Per-division metrics from a replay's kept rounds.

    The mean error folds the engine's own ``|perf|`` values, as the replay
    did; no rank pass runs a second time.
    """
    return _round_metrics((compiled, breakdown.rating_before, breakdown.perf)
                          for compiled, breakdown in _kept_rounds(result))


def evaluate_timeline(rounds: Iterable[RoundInput] | CompiledHistory,
                      timeline: Mapping[tuple[str, str], float]) -> list[RoundMetrics]:
    """Per-division metrics for an externally supplied rating timeline: ``rounds``
    (compiled here unless it is a ``CompiledHistory``) ranked and ``|perf|`` summed
    exactly as ``replay`` does, so a timeline of a replay's pre-round ratings
    reproduces ``evaluate_replay`` bit for bit, and it refuses what ``replay`` refuses."""
    if not isinstance(rounds, CompiledHistory):
        rounds = compile_history(rounds)
    ranked = []
    for compiled in rounds.rounds:
        try:
            ratings = np.array([timeline[compiled.round_id, player_id]
                                for player_id in compiled.ids], np.float64)
        except KeyError as exc:
            raise InputError(f"timeline has no rating for player {exc.args[0][1]!r} "
                             f"in round {compiled.round_id!r}") from None
        ranked.append((compiled, ratings, canonical_ranks(compiled, ratings)[-1]))
    return _round_metrics(ranked)


@dataclass(frozen=True)
class BucketRow:
    label: str
    count: int
    mean_delta_r: float
    mean_perf: float
    mean_error: float


@dataclass(frozen=True)
class Report:
    """Labelled rows: ``aggregate_error``'s ``BucketRow``s or
    ``compare_systems``'s ``ComparisonRow``s."""

    rows: tuple[BucketRow, ...] | tuple[ComparisonRow, ...]

    def row(self, label: str) -> BucketRow | ComparisonRow:
        return {row.label: row for row in self.rows}[label]


def _bucket_masks(values: np.ndarray, buckets):
    """``(label, mask)`` per bucket ``(label, lo, hi)``: ``lo <= value <= hi``,
    with no upper bound when ``hi`` is None."""
    for label, lo, hi in buckets:
        mask = values >= lo
        if hi is not None:
            mask &= values <= hi
        yield label, mask


def aggregate_error(
        rounds: Iterable[tuple[CompiledRound, PerformanceBreakdown]]) -> Report:
    """Bucketed means over a stream of ``(compiled, breakdown)`` rounds, as
    ``ReplayResult.rounds`` keeps them.

    Row layout: an ``All`` row; experience buckets that partition it by
    the player's round number; an ``Existing`` row (second round onward);
    per-division rows and their top/bottom half-rank splits, both covering
    existing players only.  Top half is actual rank <= n/2; a rank exactly
    at the (n+1)/2 midpoint lands in the bottom half.  Each row is a mask
    over the rounds' entries laid end to end, and every sum is a ``fold``
    of the masked entries in replay order.
    """
    records = list(rounds)
    sizes = np.array([b - a for compiled, _ in records
                      for a, b in zip(compiled.bounds, compiled.bounds[1:])],
                     dtype=np.int64)
    if not sizes.sum():
        return Report(rows=())
    delta_r, perf, nr, actual_rank = (
        np.concatenate([getattr(breakdown, name) for _, breakdown in records])
        for name in ("delta_r", "perf", "nr", "actual_rank"))
    top = actual_rank <= np.repeat(sizes, sizes) / 2
    seasoned = nr >= 2
    # Division numbers are unbounded ints: an object array keeps them exact.
    numbers, position = np.unique(np.array(
        [number for compiled, _ in records for number in compiled.numbers],
        dtype=object), return_inverse=True)
    position = np.repeat(position, sizes)

    masks = [("All", np.ones(nr.size, dtype=bool)),
             *_bucket_masks(nr, EXPERIENCE_BUCKETS), ("Existing", seasoned)]
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

    return Report(rows=tuple(row(label, mask) for label, mask in masks if mask.any()))


@dataclass(frozen=True)
class ComparisonRow:
    label: str
    rounds: int
    kendall: float | None   # fraction of rounds system A predicted better
    spearman: float | None
    error: float | None


def _metric_table(metrics: Sequence[RoundMetrics]) -> np.ndarray:
    """Rows of (kendall, spearman, -mean_error), higher is better in every
    column; NaN where a correlation is undefined (None)."""
    return np.array([(m.kendall, m.spearman, -m.mean_error) for m in metrics],
                    dtype=np.float64).reshape(-1, 3)


def compare_systems(metrics_a: Sequence[RoundMetrics],
                    metrics_b: Sequence[RoundMetrics]) -> Report:
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
    numbers, position = np.unique(np.array([m.division for m in metrics_a], dtype=object),
                                  return_inverse=True)
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

    return Report(rows=tuple(row(label, mask) for label, mask in masks))


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
    """Summarize a full replay from its kept rounds; an empty history yields
    an all-None summary.  The rating-change sums ``fold`` every entry's
    ``delta_r``, and its square, in replay order."""
    deltas = np.concatenate([np.empty(0)] + [breakdown.delta_r for _, breakdown
                                             in _kept_rounds(result)])
    count, ratings = result.count, result.state.rating
    mean = fold(0.0, deltas) / count if count else None
    return RatingStats(
        count=count,
        mean_error=result.mean_error,
        delta_mean=mean,
        delta_std=(max(fold(0.0, deltas * deltas) / count - mean * mean, 0.0) ** 0.5
                   if count else None),
        delta_max=float(deltas.max()) if count else None,
        initial_rating=result.state.r1 if count or ratings.size else None,
        # halved first: the mean of two near-max middle ratings cannot overflow
        rating_median=float(np.median(ratings * 0.5) * 2) if ratings.size else None,
        rating_max=float(ratings.max()) if ratings.size else None,
    )
