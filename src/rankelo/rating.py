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

from .errors import DomainError, InputError

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


@dataclass(frozen=True)
class PerformanceBreakdown:
    """Per-player intermediate values for one rated division."""

    actual_rank: float      # 1-based, half-integral under ties
    expected_rank: float    # 1 + sum of opponent win probabilities, tied pairs at 0.5
    perf: float             # bits above (+) or below (-) the expected rank
    sensitivity: float      # var / mu, in (0, 1]
    adjusted_perf: float    # bonus-boosted then sigmoid-capped perf, |.| < perf_cap
    weight: float           # experience damping, round_number ** weight_exponent
    variance_factor: float  # 1 + variance_weight * sensitivity
    delta_r: float          # applied rating change
    mu: float               # 1 + sum of opponent win probabilities (ties included)
    var: float              # 1 + sum of w * (1 - w) over all opponents


def get_or_create_player(players: dict[str, PlayerState], player_id: str,
                         r1: float) -> PlayerState:
    """Return the registered state for ``player_id``, registering at ``r1`` if new."""
    state = players.get(player_id)
    if state is None:
        state = PlayerState(rating=r1, num_rounds=0)
        players[player_id] = state
    return state


def win_probability(r_i: float, r_j: float) -> float:
    """Probability that a player rated ``r_i`` outperforms one rated ``r_j``.

    Classic logistic curve: 1 / (1 + 10 ** ((r_j - r_i) / 400)).
    """
    if not (math.isfinite(r_i) and math.isfinite(r_j)):
        raise DomainError("ratings must be finite")
    s = (r_j - r_i) * ELO_SCALE
    s = min(max(s, -MAX_LOGIT), MAX_LOGIT)
    return 1.0 / (1.0 + math.exp(s))


def rank_performance(n: float, r: float) -> float:
    """Wins above the elimination-tournament baseline for rank ``r`` of ``n``.

    Equals ``log2(n / r)``; ``r`` may be half-integral from tie splits.
    """
    if not (math.isfinite(n) and math.isfinite(r)) or n < 1:
        raise DomainError("need a finite player count >= 1")
    if r < 1 or r > n:
        raise DomainError(f"rank {r} outside [1, {n}]")
    return math.log(n / r) * _LOG2E


def relative_performance(expected_rank: float, actual_rank: float) -> float:
    """Bits of over/under-performance: ``log2(expected_rank / actual_rank)``."""
    if expected_rank < 1 or actual_rank < 1:
        raise DomainError("ranks must be >= 1")
    return math.log(expected_rank / actual_rank) * _LOG2E


def sensitivity(mu: float, var: float) -> float:
    """Rate of change of expected performance per rating point, in (0, 1].

    ``mu`` is 1 plus the summed opponent win probabilities, ``var`` is
    1 plus the summed Bernoulli variances; the ratio tends to 1 for a
    player expected to win outright and to 1/n for one expected last.
    """
    if mu < 1 or var < 1 or var > mu:
        raise DomainError("need mu >= 1 and 1 <= var <= mu")
    return var / mu


def bonus_adjusted_performance(perf: float, sens: float,
                               params: RatingParams) -> float:
    """Add the participation bonus, scaled by sensitivity, to a performance."""
    return perf + (params.bonus / BITS_TO_RATING) * sens


def clamp_performance(perf: float, cap: float) -> float:
    """Sigmoid-cap a performance at magnitude ``cap``: ``p / (1 + |p|/cap)``.

    Odd, strictly monotone, linear near zero, bounded by ``(-cap, cap)``.
    """
    if cap <= 0:
        raise DomainError("cap must be > 0")
    return perf * cap / (cap + abs(perf))


def rating_delta(adjusted_perf: float, sens: float, round_number: int,
                 params: RatingParams) -> float:
    """Rating change for a capped performance at a given experience level.

    ``round_number`` counts the player's rated rounds starting at 1 for
    their first.
    """
    if round_number < 1:
        raise DomainError("round_number starts at 1")
    weight = float(round_number) ** params.weight_exponent
    variance_factor = 1.0 + params.variance_weight * sens
    return params.k_factor * adjusted_perf / (variance_factor * weight)


def division_ranks(scores: np.ndarray, ratings: np.ndarray):
    """Actual rank, expected rank, mu and var for every entry of a division.

    Ranks follow the tie-splitting convention: each tied opponent
    contributes 0.5 to both the actual and the expected rank, while
    ``mu``/``var`` accumulate the win probabilities of all opponents,
    tied or not.  Arrays are aligned with the inputs.
    """
    scores = np.ascontiguousarray(scores, dtype=np.float64)
    ratings = np.ascontiguousarray(ratings, dtype=np.float64)
    n = scores.size
    actual = np.empty(n)
    expected = np.empty(n)
    mu = np.empty(n)
    var = np.empty(n)
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        rows = np.arange(start, stop)
        d = (ratings[rows, None] - ratings[None, :]) * ELO_SCALE
        np.clip(d, -MAX_LOGIT, MAX_LOGIT, out=d)
        w = 1.0 / (1.0 + np.exp(d))  # w[i, j] = P(opponent j beats player i)
        tied = scores[rows, None] == scores[None, :]
        local = np.arange(stop - start)
        w[local, rows] = 0.0
        tied[local, rows] = False
        beaten_by = (scores[None, :] > scores[rows, None]).sum(axis=1)
        ties = tied.sum(axis=1)
        mu[rows] = 1.0 + w.sum(axis=1)
        var[rows] = 1.0 + (w * (1.0 - w)).sum(axis=1)
        actual[rows] = 1.0 + beaten_by + 0.5 * ties
        expected[rows] = 1.0 + np.where(tied, 0.0, w).sum(axis=1) + 0.5 * ties
    return actual, expected, mu, var


def rank_and_expected_rank(index: int, division: DivisionResult,
                           ratings: Sequence[float]):
    """``(actual_rank, expected_rank, mu, var)`` for one entry of a division."""
    n = len(division.entries)
    if n == 0:
        raise InputError("division is empty")
    if len(ratings) != n:
        raise InputError("ratings are not aligned with entries")
    if not 0 <= index < n:
        raise InputError(f"entry index {index} outside division of {n}")
    scores = np.array([score for _, score in division.entries])
    actual, expected, mu, var = division_ranks(scores, np.asarray(ratings, float))
    return actual[index], expected[index], mu[index], var[index]


def canonical_ranks(ids: Sequence, scores: Sequence[float],
                    ratings: Sequence[float]):
    """``division_ranks`` and ``perf`` computed in the engine's canonical order.

    Entries are sorted by ``(-score, id)``, so the result depends only on
    the set of entries, never on their order.  Returns ``order`` (the entry
    index at each canonical position) and the ``actual``, ``expected``,
    ``mu``, ``var`` and ``perf = log2(expected / actual)`` arrays, all
    indexed by canonical position.
    """
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    actual, expected, mu, var = division_ranks(
        np.array([scores[i] for i in order]), np.array([ratings[i] for i in order]))
    perf = np.log(expected / actual) * _LOG2E
    return order, actual, expected, mu, var, perf


def rate_division(division: DivisionResult, players: Mapping[str, PlayerState],
                  params: RatingParams) -> list[PerformanceBreakdown]:
    """Compute breakdowns for one division from pre-round ratings.

    Pure: no state is mutated; the round number used for the experience
    weight is each player's completed-round count plus one.  Returns one
    breakdown per entry, aligned with ``division.entries``.
    """
    n = len(division.entries)
    if n == 0:
        return []
    ids = [player_id for player_id, _ in division.entries]
    if len(set(ids)) != n:
        raise InputError(f"duplicate player in division {division.division}")
    missing = [player_id for player_id in ids if player_id not in players]
    if missing:
        raise InputError(f"no state registered for player {missing[0]!r}")
    scores = [score for _, score in division.entries]
    ratings = [players[player_id].rating for player_id in ids]
    if not all(map(math.isfinite, scores)):
        raise InputError(f"non-finite score in division {division.division}")
    if not all(map(math.isfinite, ratings)):
        raise DomainError(f"non-finite rating in division {division.division}")

    order, actual, expected, mu, var, perf = canonical_ranks(ids, scores, ratings)
    rounds = np.array([players[ids[i]].num_rounds for i in order], dtype=np.float64)
    sens = var / mu
    boosted = perf + (params.bonus / BITS_TO_RATING) * sens
    capped = boosted * params.perf_cap / (params.perf_cap + np.abs(boosted))
    weight = (rounds + 1.0) ** params.weight_exponent
    variance_factor = 1.0 + params.variance_weight * sens
    delta = params.k_factor * capped / (variance_factor * weight)

    out: list[PerformanceBreakdown | None] = [None] * n
    for pos, i in enumerate(order):
        out[i] = PerformanceBreakdown(
            actual_rank=float(actual[pos]),
            expected_rank=float(expected[pos]),
            perf=float(perf[pos]),
            sensitivity=float(sens[pos]),
            adjusted_perf=float(capped[pos]),
            weight=float(weight[pos]),
            variance_factor=float(variance_factor[pos]),
            delta_r=float(delta[pos]),
            mu=float(mu[pos]),
            var=float(var[pos]),
        )
    return out  # type: ignore[return-value]


def rate_round(round_input: RoundInput, state: EngineState,
               params: RatingParams) -> list[list[PerformanceBreakdown]]:
    """Rate one round and apply it to the engine state.

    New participants are registered at the current ``r1`` first.  Every
    division is then rated from the pre-round ratings, all deltas are
    applied simultaneously, each participant's round count increments,
    and ``r1`` advances by ``inflation / 100`` (once per round, not per
    division).  Returns breakdowns aligned with ``round_input.divisions``.
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

    for division, results in zip(round_input.divisions, breakdowns):
        for (player_id, _), breakdown in zip(division.entries, results):
            player = state.players[player_id]
            player.num_rounds += 1
            player.rating += breakdown.delta_r
    state.rounds_processed += 1
    state.r1 = (params.initial_rating
                + (params.inflation / 100.0) * state.rounds_processed)
    return breakdowns
