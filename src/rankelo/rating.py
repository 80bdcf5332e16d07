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
import numbers
from dataclasses import dataclass, field, replace
from itertools import accumulate, chain, compress, count
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

# The most rounds the engine, or any one player, may complete: every count
# up to it is exact as a float, and PARAM_LIMIT's finiteness argument below
# assumes it.
MAX_ROUNDS = 2 ** 53

# The most that |initial_rating|, inflation, bonus, perf_cap,
# variance_weight and k_factor * perf_cap may be: far above any rating
# scale, far below the float range.  Within it, r1 after MAX_ROUNDS rounds
# (below 1e114), every rating (r1 plus at most MAX_ROUNDS changes, each
# |delta_r| < k_factor * perf_cap), every delta_r**2 (below 1e200),
# every variance_factor * weight (below 1e116) and their folds stay finite.
PARAM_LIMIT = 1e100


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
        for name, value in (("initial_rating", abs(self.initial_rating)),
                            ("inflation", self.inflation), ("bonus", self.bonus),
                            ("perf_cap", self.perf_cap),
                            ("variance_weight", self.variance_weight),
                            ("k_factor * perf_cap", self.k_factor * self.perf_cap)):
            if value > PARAM_LIMIT:
                raise InputError(f"{name} must be at most {PARAM_LIMIT:g} in magnitude")


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


def _check_real(values: np.ndarray, name) -> None:
    """Refuse the first cell of ``values`` that is not a real number (text,
    None), named ``name(position, repr)``; a numeric column skips the pass."""
    if values.dtype.kind not in "biuf":   # Python objects or text
        cells = values.ravel().tolist()
        bad = next((k for k, v in enumerate(cells) if not isinstance(v, numbers.Real)), None)
        if bad is not None:
            raise InputError(f"{name(bad, repr(cells[bad]))} is not a real number")


def _check_counts(counts: np.ndarray, name) -> None:
    """Refuse the first entry of ``counts`` that is not an integer in [0, MAX_ROUNDS],
    named ``name(position, value)``.  ``counts`` is uncast, so a uint64 count past
    int64 is named by its true value; a cell that is no real number is refused
    before any compare."""
    _check_real(counts, name)
    ok = (counts >= 0) & (counts <= MAX_ROUNDS)
    if counts.dtype.kind not in "biu":   # floats or Python objects: whole numbers only
        with np.errstate(invalid="ignore"):   # inf % 1
            ok &= counts % 1 == 0
    bad = np.flatnonzero(~ok)
    if bad.size:
        value = counts.flat[bad[0]]
        why = "above 2**53" if value > MAX_ROUNDS else "not a non-negative integer"
        raise InputError(f"{name(bad[0], value)} is {why}")


@dataclass(eq=False)
class EngineState:
    """Player registry, as columns, plus round-level bookkeeping.

    Player ``i`` is ``ids[i]`` (registration order; distinct strings), with
    finite real rating ``rating[i]`` and ``num_rounds[i]`` completed rated
    rounds; ``index`` maps each id back to ``i``.  ``r1`` is the finite real,
    inflation-adjusted rating assigned to newly registered players,
    recomputed after every round as ``initial_rating + inflation/100 *
    rounds_processed`` (not accumulated) so it is exactly reproducible.
    ``params`` and ``last_round_id`` are the parameters and the (non-empty)
    id of the last round applied (None when unknown: a state never rated,
    or built without them).  Round counts are integers in [0, MAX_ROUNDS];
    a state that breaks any of this is an ``InputError``.
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
        if not all(issubclass(t, str) for t in set(map(type, self.ids))):
            bad = next(p for p in self.ids if not isinstance(p, str))
            raise InputError(f"player id {bad!r} is not a string")
        ratings, counts = np.asarray(self.rating), np.asarray(self.num_rounds)
        if not ratings.size == counts.size == len(self.ids):
            raise InputError("ids must be distinct and match the rating and "
                             "num_rounds columns in length")
        _check_real(ratings, lambda k, v: f"rating {v} for player {self.ids[k]!r}")
        self.rating = ratings.astype(np.float64)
        _check_counts(np.asarray(self.rounds_processed), lambda _, n: f"rounds_processed {n}")
        _check_counts(counts, lambda k, n: f"round count {n} for player {self.ids[k]!r}")
        self.rounds_processed = int(self.rounds_processed)
        self.num_rounds = counts.astype(np.int64)
        if self.last_round_id == "":
            raise InputError("last_round_id must be None or non-empty")
        _check_real(np.asarray(self.r1), lambda _, v: f"new-player rating {v}")
        if not math.isfinite(self.r1):
            raise InputError(f"non-finite new-player rating {self.r1!r}")
        bad = np.flatnonzero(~np.isfinite(self.rating))
        if bad.size:
            raise InputError(f"non-finite rating for player {self.ids[bad[0]]!r}")
        self.index = dict(zip(self.ids, range(len(self.ids))))
        if len(self.index) < len(self.ids):   # name the earliest repeat
            first: dict[str, int] = {}
            repeated = next(p for k, p in enumerate(self.ids) if first.setdefault(p, k) < k)
            raise InputError(f"ids must be distinct: duplicate player {repeated!r}")

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
    tied or not.  Arrays are aligned with the inputs.  A NaN or infinite
    score or rating is an ``InputError``.

    One ``exp`` per entry gives every ``P(j beats i) = x[j] / (x[i] + x[j])``,
    ``x = exp(ELO_SCALE * r)``; a rating spread past the ``MAX_LOGIT`` clip
    (~6,254 points) takes the clipped ``_win_matrix`` instead.  Equal ratings
    (every debut division) need no pairwise pass: every ``w`` is exactly 0.5
    and every sum exact, so ``expected = mu = 1 + (n - 1) / 2`` and
    ``var = 1 + (n - 1) / 4`` to the bit.  The pairwise sums run over row
    blocks of ``_BLOCK_BYTES`` (512 KiB) per scratch array, or one row when
    a row is larger, so working memory is two such blocks plus a few
    length-n arrays (about 1.3 MiB at n = 4,000), not O(n^2).
    """
    scores = np.ascontiguousarray(scores, dtype=np.float64)
    ratings = np.ascontiguousarray(ratings, dtype=np.float64)
    if scores.shape != ratings.shape:
        raise InputError("division_ranks needs one rating per score")
    n = scores.size
    ordered = np.sort(scores)
    at_most = np.searchsorted(ordered, scores, side="right")   # self included
    ties = at_most - np.searchsorted(ordered, scores, side="left") - 1
    lo, hi = (ratings.min(), ratings.max()) if n else (0.0, 0.0)
    if n and not all(map(math.isfinite, (ordered[0], ordered[-1], lo, hi))):
        raise InputError("division_ranks needs finite scores and ratings")
    with np.errstate(over="ignore"):   # a spread past the float range: inf
        separable = (hi - lo) * ELO_SCALE <= MAX_LOGIT
    actual = 1.0 + (n - at_most) + 0.5 * ties
    if separable and hi == lo:   # every w is exactly 0.5, so every sum is exact
        mu = np.full(n, 1.0 + 0.5 * (n - 1))   # tied pairs count 0.5 too: expected = mu
        var = np.full(n, 1.0 + 0.25 * (n - 1))
        return actual, mu.copy(), mu, var
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
    players: np.ndarray         # registry index of each entry, once bound
    order: np.ndarray           # entry positions, in canonical order


@dataclass(frozen=True, eq=False)
class CompiledHistory:
    """Rounds to replay under any ``RatingParams`` from any state; until ``bind``,
    each round's ``players`` column indexes ``players``, ids by first appearance."""

    players: tuple[str, ...]
    rounds: tuple[CompiledRound, ...]


def compile_history(rounds: Iterable[RoundInput]) -> CompiledHistory:
    """Every step of replaying ``rounds`` that no parameter or state affects.

    Each entry gets its player's number in order of first appearance; each
    round is checked for empty or repeated round and player ids and for
    non-finite scores, so a bad round raises before any round is rated; and
    one ``lexsort`` over the history gives every division's canonical order.
    """
    known = {}   # id -> number, in order of first appearance
    shapes, everyone, scores, seen = [], [], [], set()
    for round_input in rounds:
        if not round_input.round_id:
            raise InputError("round ids must be non-empty")
        if round_input.round_id in seen:
            raise InputError(f"round {round_input.round_id!r} appears twice")
        seen.add(round_input.round_id)
        divisions = tuple((d.division, *(tuple(zip(*d.entries)) or ((), ())))
                          for d in round_input.divisions)
        round_ids = tuple(p for _, ids, _ in divisions for p in ids)
        if "" in round_ids:
            raise InputError("player ids must be non-empty")
        if len(set(round_ids)) < len(round_ids):   # name the earliest repeat
            repeated = next(p for k, p in enumerate(round_ids) if p in round_ids[:k])
            raise InputError(f"player {repeated!r} appears twice "
                             f"in round {round_input.round_id!r}")
        for number, _, values in divisions:
            _require_finite(values, "score", number)
        for player_id in round_ids:
            known.setdefault(player_id, len(known))
        numbers = tuple(number for number, _, _ in divisions)
        bounds = tuple(accumulate((len(ids) for _, ids, _ in divisions), initial=0))
        shapes.append((round_input.round_id, numbers, bounds, round_ids))
        everyone += round_ids
        scores += chain.from_iterable(values for _, _, values in divisions)

    # Canonical order: by division, then (-score, id).  Ids rank as Python
    # strs: a numpy ``U`` array drops trailing NULs, so "a" would tie "a\0".
    rank = {player_id: k for k, player_id in enumerate(sorted(known))}
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
    return CompiledHistory(tuple(known), tuple(compiled))


def bind(history: CompiledHistory, state: EngineState) -> tuple[CompiledRound, ...]:
    """``history.rounds`` with ``players`` renumbered in ``state``'s registry, new
    ids past it in order of first appearance (the rounds as is for an empty one);
    refused if they could take a round count past MAX_ROUNDS."""
    more = len(history.rounds)
    _check_counts(np.asarray(state.rounds_processed + more),
                  lambda _, n: f"after {more} more round(s), rounds_processed {n}")
    if not state.ids:
        return history.rounds
    new = count(len(state.ids))
    index = np.fromiter((state.index[p] if p in state.index else next(new)
                         for p in history.players), np.int64, len(history.players))
    known = np.flatnonzero(index < len(state.ids))
    _check_counts(state.num_rounds[index[known]] + more, lambda k, n: f"after {more} more "
                  f"round(s), round count {n} for player {history.players[known[k]]!r}")
    return tuple(replace(compiled, players=index[compiled.players])
                 for compiled in history.rounds)


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
    compiled, = bind(compile_history([RoundInput("division", [division])]), state)
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
               params: RatingParams) -> tuple[CompiledRound, PerformanceBreakdown]:
    """Rate one round and apply it to the engine state: compile it, bind it
    to ``state`` and run ``rate_compiled_round``, the step ``replay`` runs for
    every round (``r1`` advances once per round, not per division).
    Returns the round's ``(compiled, breakdown)`` record, in entry order: the
    record ``replay`` keeps in ``ReplayResult.rounds``.
    """
    compiled, = bind(compile_history([round_input]), state)
    return compiled, rate_compiled_round(compiled, state, params)
