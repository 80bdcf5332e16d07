"""Rating kernel for multi-player ranked contests.

Performance is measured in bits of an elimination tournament: a player
ranked ``r`` among ``n`` has won ``log2(n) - log2(r)`` head-to-head rounds
against appropriately matched opposition.  A round compares that number
against the rank the player's rating predicted, and converts the surplus
(or deficit) into a rating change damped by experience, by the local
sensitivity of expected rank to rating, and by a sigmoid cap on extreme
results.

All arithmetic is 64-bit binary floating point.  ``rate_division`` is a
pure function of an immutable snapshot of ratings; entry order never
affects its output (entries are processed in a canonical order internally
and results are mapped back).  State mutation happens only in
``rate_round``, after every division of the round has been computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError

# Rating units per bit of performance: a 1-bit surplus corresponds to
# outperforming a 400 * log10(2) ~= 120.41 point rating gap.
BITS_TO_RATING = 400.0 * math.log(2.0) / math.log(10.0)

# Converts a rating difference into the exponent of the logistic win curve.
ELO_SCALE = math.log(10.0) / 400.0

_LOG2E = 1.0 / math.log(2.0)

# Keeps win probabilities strictly inside (0, 1) for absurd rating gaps
# (beyond ~6200 points the curve is flat to double precision anyway).
MAX_LOGIT = 36.0

# Row-block size for the pairwise kernels; bounds memory at a few MB per
# block while leaving per-row summation order unchanged.
_BLOCK_ROWS = 512


@dataclass(frozen=True)
class RatingParams:
    """Constants of one rating profile.

    The defaults are the ``elo`` profile; ``elo2`` adds a participation
    bonus and initial-rating inflation on top of it (see ``PROFILES``).
    """

    k_factor: float = 600.0        # rating units gained per capped performance bit
    variance_weight: float = 4.0   # strength of the sensitivity damping term
    perf_cap: float = 6.75         # sigmoid cap on performance magnitude, in bits
    bonus: float = 0.0             # participation bonus, in rating units
    inflation: float = 0.0         # initial-rating increase per 100 rounds, rating units
    initial_rating: float = 1200.0
    weight_exponent: float = 0.5   # experience damping: weight = round_number ** exponent

    def __post_init__(self):
        checks = (
            (self.k_factor > 0, "k_factor must be > 0"),
            (self.perf_cap > 0, "perf_cap must be > 0"),
            (self.variance_weight >= 0, "variance_weight must be >= 0"),
            (self.bonus >= 0, "bonus must be >= 0"),
            (self.inflation >= 0, "inflation must be >= 0"),
            (0.0 <= self.weight_exponent <= 1.0, "weight_exponent must be in [0, 1]"),
        )
        for ok, message in checks:
            if not ok:
                raise InputError(message)
        for name in ("k_factor", "variance_weight", "perf_cap", "bonus",
                     "inflation", "initial_rating", "weight_exponent"):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"{name} must be finite")
        # bounds every |delta_r| (|adjusted_perf| < perf_cap, divisors >= 1)
        if not math.isfinite(self.k_factor * self.perf_cap):
            raise InputError("k_factor * perf_cap must be finite")


PROFILES: dict[str, RatingParams] = {
    "elo": RatingParams(),
    "elo2": RatingParams(bonus=27.0, inflation=63.0),
}


@dataclass
class PlayerState:
    """Persistent per-player state: current rating and completed rated rounds."""

    rating: float
    num_rounds: int = 0


@dataclass
class DivisionResult:
    """One division of one round: ``(player_id, score)`` pairs, higher score wins.

    Tied scores are detected by exact equality of the stored values.
    """

    division: int
    entries: list[tuple[str, float]]


@dataclass
class RoundInput:
    """One contest round, split into independently rated divisions."""

    round_id: str
    divisions: list[DivisionResult]


@dataclass
class EngineState:
    """Player registry plus round-level bookkeeping.

    ``r1`` is the inflation-adjusted rating assigned to newly registered
    players.  It is recomputed after every round as
    ``initial_rating + inflation/100 * rounds_processed`` (rather than
    accumulated) so the stored value is exactly reproducible.
    """

    players: dict[str, PlayerState] = field(default_factory=dict)
    r1: float = 1200.0
    rounds_processed: int = 0

    @classmethod
    def fresh(cls, params: RatingParams) -> "EngineState":
        return cls(r1=params.initial_rating)


@dataclass(frozen=True, eq=False)
class PerformanceBreakdown:
    """Every entry's intermediate values for one rated division.

    Each field is an array aligned with ``division.entries``: ``nr`` is
    int64, the rest float64.  Field order is the replay log's column order.
    """

    nr: np.ndarray               # the player's round number, completed rounds + 1
    rating_before: np.ndarray    # pre-round rating
    actual_rank: np.ndarray      # 1-based, half-integral under ties
    expected_rank: np.ndarray    # 1 + sum of opponent win probabilities, tied pairs at 0.5
    perf: np.ndarray             # bits above (+) or below (-) the expected rank
    sensitivity: np.ndarray      # var / mu, in (0, 1]
    adjusted_perf: np.ndarray    # bonus-boosted then sigmoid-capped perf, |.| < perf_cap
    weight: np.ndarray           # experience damping, nr ** weight_exponent
    variance_factor: np.ndarray  # 1 + variance_weight * sensitivity
    delta_r: np.ndarray          # applied rating change
    mu: np.ndarray               # 1 + sum of opponent win probabilities (ties included)
    var: np.ndarray              # 1 + sum of w * (1 - w) over all opponents


def get_or_create_player(players: dict[str, PlayerState], player_id: str,
                         r1: float) -> PlayerState:
    """Return the registered state for ``player_id``, registering at ``r1`` if new."""
    state = players.get(player_id)
    if state is None:
        state = PlayerState(rating=r1, num_rounds=0)
        players[player_id] = state
    return state


def _win_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The logistic win curve for every pair: ``w[i, j] = P(b[j] beats a[i])``.

    ``1 / (1 + exp(clip((a[i] - b[j]) * ELO_SCALE, -MAX_LOGIT, MAX_LOGIT)))``,
    evaluated in place in a single ``len(a) x len(b)`` array.
    """
    with np.errstate(over="ignore"):   # a gap past the float range: +-inf, clipped
        w = np.subtract.outer(a, b)
    w *= ELO_SCALE
    np.clip(w, -MAX_LOGIT, MAX_LOGIT, out=w)
    np.exp(w, out=w)
    w += 1.0
    np.divide(1.0, w, out=w)
    return w


def division_ranks(scores: np.ndarray, ratings: np.ndarray):
    """Actual rank, expected rank, mu and var for every entry of a division.

    Ranks follow the tie-splitting convention: each tied opponent
    contributes 0.5 to both the actual and the expected rank, while
    ``mu``/``var`` accumulate the win probabilities of all opponents,
    tied or not.  Arrays are aligned with the inputs.

    One ``exp`` per entry gives every ``P(j beats i) = x[j] / (x[i] + x[j])``,
    ``x = exp(ELO_SCALE * r)``; a rating spread past the ``MAX_LOGIT`` clip
    (~6,254 points) takes the clipped ``_win_matrix`` instead.
    """
    scores = np.ascontiguousarray(scores, dtype=np.float64)
    ratings = np.ascontiguousarray(ratings, dtype=np.float64)
    n = scores.size
    ordered = np.sort(scores)
    at_most = np.searchsorted(ordered, scores, side="right")   # self included
    ties = at_most - np.searchsorted(ordered, scores, side="left") - 1
    lo, hi = (ratings.min(), ratings.max()) if n else (0.0, 0.0)
    with np.errstate(over="ignore"):   # a spread past the float range: inf
        separable = (hi - lo) * ELO_SCALE <= MAX_LOGIT
    if separable:   # centred: every exponent is within +-MAX_LOGIT / 2
        x = np.exp(ELO_SCALE * (ratings - (lo + 0.5 * (hi - lo))))
    has_ties = ties.any()
    expected, mu, var = np.empty((3, n))
    for start in range(0, n, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        # w[i, j] = P(opponent j beats player i)
        if separable:
            w = np.add.outer(x[rows], x)
            np.divide(x, w, out=w)
        else:
            w = _win_matrix(ratings[rows], ratings)
        np.fill_diagonal(w[:, start:], 0.0)   # no player opposes itself
        mu[rows] = 1.0 + w.sum(axis=1)
        var[rows] = 1.0 + (w * (1.0 - w)).sum(axis=1)
        if has_ties:   # tied pairs count 0.5 each, not w
            np.copyto(w, 0.0, where=scores[rows, None] == scores)
            expected[rows] = 1.0 + w.sum(axis=1) + 0.5 * ties[rows]
    actual = 1.0 + (n - at_most) + 0.5 * ties
    return actual, expected if has_ties else mu.copy(), mu, var   # tie-free: expected = mu


def canonical_ranks(ids: Sequence, scores: Sequence[float],
                    ratings: Sequence[float]):
    """``division_ranks`` and ``perf``, ranked in the engine's canonical order.

    Entries are ranked sorted by ``(-score, id)``, so the result depends
    only on the set of entries, never on their order.  Returns the
    ``actual``, ``expected``, ``mu``, ``var`` and
    ``perf = log2(expected / actual)`` arrays, aligned with the inputs.
    """
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    ranked = division_ranks(
        np.array([scores[i] for i in order]), np.array([ratings[i] for i in order]))
    entry = np.argsort(order)   # canonical position of each entry
    actual, expected, mu, var = (column[entry] for column in ranked)
    perf = np.log(expected / actual) * _LOG2E
    return actual, expected, mu, var, perf


def rate_division(division: DivisionResult, players: Mapping[str, PlayerState],
                  params: RatingParams) -> PerformanceBreakdown:
    """Compute one division's breakdown from pre-round ratings.

    Pure: no state is mutated; the round number used for the experience
    weight is each player's completed-round count plus one.  Every column
    is aligned with ``division.entries``; an empty division gives empty
    columns.
    """
    ids = [player_id for player_id, _ in division.entries]
    if len(set(ids)) != len(ids):
        raise InputError(f"duplicate player in division {division.division}")
    missing = [player_id for player_id in ids if player_id not in players]
    if missing:
        raise InputError(f"no state registered for player {missing[0]!r}")
    scores = [score for _, score in division.entries]
    states = [players[player_id] for player_id in ids]
    ratings = [state.rating for state in states]
    if not all(map(math.isfinite, scores)):
        raise InputError(f"non-finite score in division {division.division}")
    if not all(map(math.isfinite, ratings)):
        raise InputError(f"non-finite rating in division {division.division}")

    actual, expected, mu, var, perf = canonical_ranks(ids, scores, ratings)
    nr = np.array([state.num_rounds for state in states], dtype=np.int64) + 1
    sens = var / mu
    boosted = perf + (params.bonus / BITS_TO_RATING) * sens
    capped = boosted * params.perf_cap / (params.perf_cap + np.abs(boosted))
    weight = nr.astype(np.float64) ** params.weight_exponent
    variance_factor = 1.0 + params.variance_weight * sens
    return PerformanceBreakdown(
        nr=nr,
        rating_before=np.array(ratings, dtype=np.float64),
        actual_rank=actual,
        expected_rank=expected,
        perf=perf,
        sensitivity=sens,
        adjusted_perf=capped,
        weight=weight,
        variance_factor=variance_factor,
        delta_r=params.k_factor * capped / (variance_factor * weight),
        mu=mu,
        var=var,
    )


def rate_round(round_input: RoundInput, state: EngineState,
               params: RatingParams) -> list[PerformanceBreakdown]:
    """Rate one round and apply it to the engine state.

    New participants are registered at the current ``r1`` first.  Every
    division is then rated from the pre-round ratings, all deltas are
    applied simultaneously, each participant's round count increments,
    and ``r1`` advances by ``inflation / 100`` (once per round, not per
    division).  Returns one breakdown per division of ``round_input``.
    """
    seen: set[str] = set()
    for division in round_input.divisions:
        for player_id, _ in division.entries:
            if player_id in seen:
                raise InputError(
                    f"player {player_id!r} appears twice in round {round_input.round_id!r}")
            seen.add(player_id)
            get_or_create_player(state.players, player_id, state.r1)

    breakdowns = [rate_division(division, state.players, params)
                  for division in round_input.divisions]

    for division, breakdown in zip(round_input.divisions, breakdowns):
        for (player_id, _), delta in zip(division.entries, breakdown.delta_r.tolist()):
            player = state.players[player_id]
            player.num_rounds += 1
            player.rating += delta
    state.rounds_processed += 1
    state.r1 = (params.initial_rating
                + (params.inflation / 100.0) * state.rounds_processed)
    return breakdowns
