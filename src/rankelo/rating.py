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
affects its output.  Only the rank pass, ``canonical_ranks``, sees the
canonical ``(-score, id)`` order; every other array is aligned with the
entries.  State mutation happens only in the per-round step
(``rate_compiled_round``, which ``rate_round`` and ``replay`` run), after
every division of the round has been computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import accumulate, chain, compress
from typing import Iterable, Sequence

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

# Bytes per scratch block of the pairwise kernel: a block holds
# ``max(1, _BLOCK_BYTES // (8 * n))`` rows of n float64s, so its two
# scratch arrays stay resident in a core's L2 cache whatever n is.  Each
# row is still reduced on its own, so the block size never changes a bit.
_BLOCK_BYTES = 512 * 1024


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
    """One player's rating and completed rated rounds, as ``EngineState.players``
    lists them; the engine keeps these as columns of ``EngineState``."""

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


@dataclass(eq=False)
class EngineState:
    """Player registry, as columns, plus round-level bookkeeping.

    Player ``i`` is ``ids[i]`` (registration order), with rating
    ``rating[i]`` and ``num_rounds[i]`` completed rated rounds;
    ``index`` maps each id back to ``i``.  ``r1`` is the
    inflation-adjusted rating assigned to newly registered players.  It is
    recomputed after every round as
    ``initial_rating + inflation/100 * rounds_processed`` (rather than
    accumulated) so the stored value is exactly reproducible.  ``params``
    and ``last_round_id`` are the parameters and the id of the last round
    applied (None when unknown: a state loaded from a version 1 snapshot,
    or one never rated).
    """

    ids: list[str] = field(default_factory=list)
    rating: np.ndarray = field(default_factory=lambda: np.empty(0))
    num_rounds: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    r1: float = 1200.0
    rounds_processed: int = 0
    params: RatingParams | None = None
    last_round_id: str | None = None
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.ids = list(self.ids)
        self.rating = np.array(self.rating, dtype=np.float64)
        self.num_rounds = np.array(self.num_rounds, dtype=np.int64)
        self.index = dict(zip(self.ids, range(len(self.ids))))
        if not len(self.index) == self.rating.size == self.num_rounds.size == len(self.ids):
            raise InputError("ids must be distinct and match the rating and "
                             "num_rounds columns in length")

    def __eq__(self, other):
        """The same players in the same order, with equal columns and bookkeeping."""
        if not isinstance(other, EngineState):
            return NotImplemented
        return ((self.ids, self.r1, self.rounds_processed, self.params, self.last_round_id)
                == (other.ids, other.r1, other.rounds_processed, other.params,
                    other.last_round_id)
                and np.array_equal(self.rating, other.rating)
                and np.array_equal(self.num_rounds, other.num_rounds))

    @classmethod
    def fresh(cls, params: RatingParams) -> "EngineState":
        return cls(r1=params.initial_rating, params=params)

    @property
    def players(self) -> dict[str, PlayerState]:
        """A copy of the registry as ``{id: PlayerState}``, in registration order.

        Built on every access, for readers of the dict view (the benchmark's
        snapshot check); the engine itself reads only the columns.
        """
        return dict(zip(self.ids, map(PlayerState, self.rating.tolist(),
                                      self.num_rounds.tolist())))


@dataclass(frozen=True, eq=False)
class PerformanceBreakdown:
    """Every entry's intermediate values for one rated round or division.

    Each field is an array in entry order (a round's divisions one after
    another, each in its entries' order): ``nr`` is int64, the rest
    float64.  Field order is the replay log's column order.
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


def _register(state: EngineState, new_ids: Sequence[str]) -> None:
    """Append ``new_ids`` (none already in ``state``) to the registry: their
    ids, their index entries, a rating of ``r1`` and no completed rounds."""
    start, new = len(state.ids), len(new_ids)
    state.ids.extend(new_ids)
    state.index.update(zip(new_ids, range(start, start + new)))
    state.rating = np.concatenate((state.rating, np.full(new, state.r1)))
    state.num_rounds = np.concatenate((state.num_rounds, np.zeros(new, np.int64)))


def get_or_create_player(state: EngineState, player_id: str) -> int:
    """Return ``player_id``'s index in ``state``, registering the id at the
    current ``r1`` if it is new."""
    if player_id not in state.index:
        _register(state, (player_id,))
    return state.index[player_id]


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
    (~6,254 points) takes the clipped ``_win_matrix`` instead.  The pairwise
    sums run over row blocks of ``_BLOCK_BYTES`` (512 KiB) per scratch array,
    or one row when a row is larger, so working memory is two such blocks
    plus a few length-n arrays (about 1.3 MiB at n = 4,000), not O(n^2).
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
    block = max(1, min(n, _BLOCK_BYTES // max(8 * n, 1)))
    w_block, t_block = np.empty((block, n)), np.empty((block, n))
    for start in range(0, n, block):
        rows = slice(start, start + block)
        # w[i, j] = P(opponent j beats player i)
        if separable:
            w = w_block[:n - start]   # the last block may be partial
            np.add.outer(x[rows], x, out=w)
            np.divide(x, w, out=w)
        else:
            w = _win_matrix(ratings[rows], ratings)
        np.fill_diagonal(w[:, start:], 0.0)   # no player opposes itself
        np.add.reduce(w, axis=1, out=mu[rows])
        t = t_block[:len(w)]
        np.subtract(1.0, w, out=t)
        t *= w
        np.add.reduce(t, axis=1, out=var[rows])
        if has_ties:   # tied pairs count 0.5 each, not w
            np.copyto(w, 0.0, where=scores[rows, None] == scores)
            expected[rows] = 1.0 + w.sum(axis=1) + 0.5 * ties[rows]
    mu += 1.0
    var += 1.0
    actual = 1.0 + (n - at_most) + 0.5 * ties
    return actual, expected if has_ties else mu.copy(), mu, var   # tie-free: expected = mu


def _require_finite(values, what: str, division: int) -> None:
    if not np.isfinite(values).all():
        raise InputError(f"non-finite {what} in division {division}")


@dataclass(frozen=True, eq=False)
class CompiledRound:
    """One round of a compiled history, in entry order: division ``k`` is
    number ``numbers[k]`` and holds entries ``bounds[k]:bounds[k + 1]``.
    ``order`` is the rank pass's canonical order, read only by
    ``canonical_ranks``."""

    round_id: str
    numbers: tuple[int, ...]    # division numbers
    bounds: tuple[int, ...]
    ids: tuple[str, ...]        # player id of each entry
    scores: np.ndarray          # score of each entry
    players: np.ndarray         # registry index of each entry
    order: np.ndarray           # entry positions, in canonical order

    def split(self, breakdown: PerformanceBreakdown) -> list[PerformanceBreakdown]:
        """A round ``breakdown`` as one breakdown per division."""
        columns = [getattr(breakdown, f.name) for f in fields(breakdown)]
        return [PerformanceBreakdown(*(column[a:b] for column in columns))
                for a, b in zip(self.bounds, self.bounds[1:])]


@dataclass(frozen=True, eq=False)
class CompiledHistory:
    """Rounds ready to replay under any ``RatingParams``, from the registry
    whose ids were ``registry`` when they were compiled."""

    registry: list[str]
    rounds: tuple[CompiledRound, ...]


def compile_history(rounds: Iterable[RoundInput],
                    state: EngineState | None = None) -> CompiledHistory:
    """Every step of replaying ``rounds`` that no ``RatingParams`` affects.

    Each entry gets its player's index in ``state``'s registry (an empty
    one for None), new ids numbered in order of first appearance; each
    round is checked for a repeated player and non-finite scores, so a bad
    round raises before any round is rated; and one ``lexsort`` over the
    history gives every division's canonical order.  ``state`` is unchanged.
    """
    registry = [] if state is None else list(state.ids)
    known = {} if state is None else dict(state.index)   # id -> registry index
    shapes, everyone, scores = [], [], []
    for round_input in rounds:
        divisions = tuple((d.division, *(tuple(zip(*d.entries)) or ((), ())))
                          for d in round_input.divisions)
        round_ids = tuple(p for _, ids, _ in divisions for p in ids)
        if len(set(round_ids)) < len(round_ids):   # name the earliest repeat
            repeated = next(p for k, p in enumerate(round_ids) if p in round_ids[:k])
            raise InputError(f"player {repeated!r} appears twice "
                             f"in round {round_input.round_id!r}")
        for number, _, values in divisions:
            _require_finite(values, "score", number)
        for player_id in round_ids:   # new ids, in order of first appearance
            known.setdefault(player_id, len(known))
        numbers = tuple(number for number, _, _ in divisions)
        bounds = tuple(accumulate((len(ids) for _, ids, _ in divisions), initial=0))
        shapes.append((round_input.round_id, numbers, bounds, round_ids))
        everyone += round_ids
        scores += chain.from_iterable(values for _, _, values in divisions)

    # Canonical order: by division, then (-score, id).  Ids rank as Python
    # strs: a numpy ``U`` array drops trailing NULs, so "a" would tie "a\0".
    rank = {player_id: k for k, player_id in enumerate(sorted(set(everyone)))}
    sizes = [b - a for _, _, bounds, _ in shapes for a, b in zip(bounds, bounds[1:])]
    players = np.fromiter(map(known.__getitem__, everyone), np.int64, len(everyone))
    scores = np.array(scores, np.float64)
    order = np.lexsort((np.fromiter(map(rank.__getitem__, everyone), np.int64),
                        np.negative(scores), np.repeat(np.arange(len(sizes)), sizes)))
    compiled, start = [], 0
    for round_id, numbers, bounds, round_ids in shapes:
        end = start + bounds[-1]
        compiled.append(CompiledRound(round_id, numbers, bounds, round_ids,
                                      scores[start:end], players[start:end],
                                      order[start:end] - start))
        start = end
    return CompiledHistory(registry, tuple(compiled))


def canonical_ranks(compiled: CompiledRound, ratings: np.ndarray):
    """``division_ranks`` of every division of ``compiled``, and
    ``perf = log2(expected / actual)``: the ``actual``, ``expected``, ``mu``,
    ``var`` and ``perf`` arrays, in entry order like ``ratings``.  The one
    reader of canonical order: it gathers ``ratings`` into it once, ranks
    each division there, and scatters the rank columns back."""
    order, bounds = compiled.order, compiled.bounds
    ranked, scores = ratings[order], compiled.scores[order]
    ranks = np.empty((4, order.size))
    for number, a, b in zip(compiled.numbers, bounds, bounds[1:]):
        _require_finite(ranked[a:b], "rating", number)
        ranks[:, order[a:b]] = division_ranks(scores[a:b], ranked[a:b])
    actual, expected, mu, var = ranks
    return actual, expected, mu, var, np.log(expected / actual) * _LOG2E


def _breakdown(compiled: CompiledRound, state: EngineState,
               params: RatingParams) -> PerformanceBreakdown:
    """Every entry's breakdown of ``compiled`` from the pre-round ratings
    and completed-round counts in ``state``, in entry order."""
    ratings = state.rating[compiled.players]
    actual, expected, mu, var, perf = canonical_ranks(compiled, ratings)
    nr = state.num_rounds[compiled.players] + 1
    sens = var / mu
    boosted = perf + (params.bonus / BITS_TO_RATING) * sens
    capped = boosted * params.perf_cap / (params.perf_cap + np.abs(boosted))
    weight = nr.astype(np.float64) ** params.weight_exponent
    variance_factor = 1.0 + params.variance_weight * sens
    return PerformanceBreakdown(
        nr=nr,
        rating_before=ratings,
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


def rate_division(division: DivisionResult, state: EngineState,
                  params: RatingParams) -> PerformanceBreakdown:
    """Compute one division's breakdown from the pre-round ratings in ``state``.

    Pure: no state is mutated; the round number used for the experience
    weight is each player's completed-round count plus one.  Every column
    is aligned with ``division.entries``; an empty division gives empty
    columns.
    """
    compiled, = compile_history([RoundInput("", [division])], state).rounds
    new = np.flatnonzero(compiled.players >= len(state.ids))   # past the registry
    if new.size:
        raise InputError(f"no state registered for player {compiled.ids[new[0]]!r}")
    return _breakdown(compiled, state, params)


def rate_compiled_round(compiled: CompiledRound, state: EngineState,
                        params: RatingParams) -> PerformanceBreakdown:
    """Apply one compiled round to ``state``, as ``replay`` and ``rate_round``
    do; returns the round's breakdown, in entry order.

    New participants join the columns at the current ``r1``; every division
    is rated from the pre-round ratings; then all deltas apply at once, each
    participant's round count increments, and ``r1`` advances by
    ``inflation / 100``.
    """
    # new players: numbered past the registry, in entry (first appearance) order
    new = (compiled.players >= len(state.ids)).tolist()
    if any(new):
        _register(state, list(compress(compiled.ids, new)))
    breakdown = _breakdown(compiled, state, params)
    state.rating[compiled.players] += breakdown.delta_r   # a player is in one division
    state.num_rounds[compiled.players] += 1
    state.rounds_processed += 1
    state.r1 = (params.initial_rating
                + (params.inflation / 100.0) * state.rounds_processed)
    state.params = params
    state.last_round_id = compiled.round_id
    return breakdown


def rate_round(round_input: RoundInput, state: EngineState,
               params: RatingParams) -> list[PerformanceBreakdown]:
    """Rate one round and apply it to the engine state: compile it against
    ``state`` and run ``rate_compiled_round``, the step ``replay`` runs for
    every round (``r1`` advances once per round, not per division).
    Returns one breakdown per division of ``round_input``.
    """
    compiled, = compile_history([round_input], state).rounds
    return compiled.split(rate_compiled_round(compiled, state, params))
