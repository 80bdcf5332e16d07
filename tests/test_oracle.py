"""Agreement between the engine and the brute-force reference implementations."""

import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rankelo.rating as rating
from rankelo import (
    DivisionResult,
    EngineState,
    InputError,
    PROFILES,
    RoundInput,
    division_ranks,
    rate_division,
    rate_round,
)
from oracles import oracle_rate_division, oracle_rate_round, oracle_win_probability

BREAKDOWN_FIELDS = ("actual_rank", "expected_rank", "perf", "sensitivity",
                    "adjusted_perf", "weight", "variance_factor", "delta_r",
                    "mu", "var")


def random_division(rng, max_n=50):
    n = int(rng.integers(1, max_n + 1))
    ratings = rng.uniform(0.0, 3000.0, n)
    style = rng.integers(0, 3)
    if style == 0:
        scores = rng.uniform(0.0, 1000.0, n)          # distinct
    elif style == 1:
        scores = rng.integers(0, max(2, n // 2), n).astype(float)  # tie-heavy
    else:
        scores = np.full(n, float(rng.integers(0, 5)))  # fully tied
    rounds_played = rng.integers(0, 300, n)
    return scores, ratings, rounds_played


def assert_matches_oracle(scores, ratings, rounds_played, params, tol=1e-9):
    state = EngineState(ids=[f"p{i:03d}" for i in range(len(scores))],
                        rating=ratings, num_rounds=rounds_played)
    division = DivisionResult(
        division=1,
        entries=[(f"p{i:03d}", float(scores[i])) for i in range(len(scores))])
    got = rate_division(division, state, params)
    want = oracle_rate_division([float(s) for s in scores],
                                [float(r) for r in ratings],
                                [int(x) for x in rounds_played], params)
    for name in BREAKDOWN_FIELDS:
        assert getattr(got, name).tolist() == pytest.approx(
            [expected[name] for expected in want], abs=tol), name


def test_win_probability_matches_oracle():
    rng = np.random.default_rng(17)
    for _ in range(2000):
        a, b = rng.uniform(0.0, 3500.0, 2)
        _, _, mu, _ = division_ranks([1.0, 0.0], [a, b])   # mu[1] = 1 + P(a beats b)
        assert mu[1] - 1.0 == pytest.approx(
            oracle_win_probability(a, b), abs=1e-12)


@pytest.mark.parametrize("profile", ["elo", "elo2"])
def test_random_divisions_match_oracle(profile):
    rng = np.random.default_rng(29)
    params = PROFILES[profile]
    for _ in range(150):
        scores, ratings, rounds_played = random_division(rng)
        assert_matches_oracle(scores, ratings, rounds_played, params)


def test_edge_shapes_match_oracle():
    params = PROFILES["elo2"]
    cases = [
        (np.array([3.0]), np.array([1450.0]), np.array([7])),
        (np.array([1.0, 1.0]), np.array([900.0, 2900.0]), np.array([0, 0])),
        (np.array([5.0, 4.0]), np.array([2900.0, 900.0]), np.array([150, 0])),
        (np.full(10, 2.0), np.linspace(800.0, 2600.0, 10),
         np.arange(10)),
    ]
    for scores, ratings, rounds_played in cases:
        assert_matches_oracle(scores, ratings, rounds_played, params)


@pytest.mark.parametrize("profile", ["elo", "elo2"])
def test_round_driver_matches_straight_line_oracle(profile):
    """Multi-round, two-division replay against the plain-dict round driver."""
    params = PROFILES[profile]
    rng = np.random.default_rng(41)
    state = EngineState.fresh(params)
    registry = {}
    r1 = params.initial_rating
    rounds_processed = 0
    pool = [f"p{i:02d}" for i in range(20)]

    for round_index in range(6):
        playing = [p for p in pool if rng.random() < 0.8]
        rng.shuffle(playing)
        half = len(playing) // 2
        divisions = []
        for division_id, members in ((1, playing[:half]), (2, playing[half:])):
            if members:
                divisions.append(DivisionResult(
                    division=division_id,
                    entries=[(p, float(rng.integers(0, 6))) for p in members]))
        round_input = RoundInput(f"r{round_index}", divisions)

        rate_round(round_input, state, params)
        r1, rounds_processed = oracle_rate_round(
            [d.entries for d in divisions], registry, r1, rounds_processed,
            params)

        assert state.rounds_processed == rounds_processed
        assert state.r1 == pytest.approx(r1, abs=1e-12)
        assert set(state.players) == set(registry)
        for player_id, (rating, played) in registry.items():
            assert state.players[player_id].num_rounds == played
            assert state.players[player_id].rating == pytest.approx(
                rating, abs=1e-9)


@pytest.mark.parametrize("tie_heavy", [False, True])
def test_three_row_block_division_matches_oracle(tie_heavy):
    """n = 1100 spans several row blocks of the pairwise kernel."""
    rng = np.random.default_rng(53)
    n = 1100
    ratings = rng.uniform(0.0, 3000.0, n)
    scores = (rng.integers(0, 100, n).astype(float) if tie_heavy
              else rng.uniform(0.0, 1000.0, n))
    assert_matches_oracle(scores, ratings, rng.integers(0, 300, n), PROFILES["elo2"])


def block_test_division(kind, n=300):
    """A tie-free, tie-heavy or clipped-spread division; the tie-heavy one
    ties entries 5-9, a run across the boundary of 7-row blocks."""
    rng = np.random.default_rng(67)
    ratings = rng.uniform(0.0, 3000.0, n)
    if kind == "clipped":
        ratings[0] = 3000.0 + rating.MAX_LOGIT / rating.ELO_SCALE
    if kind == "tie_heavy":
        scores = rng.integers(0, 20, n).astype(float)
        scores[5:10] = 99.0
    else:
        scores = rng.uniform(0.0, 1000.0, n)
    return scores, ratings


@pytest.mark.parametrize("kind", ["tie_free", "tie_heavy", "clipped"])
def test_block_size_is_invisible_in_the_output(monkeypatch, kind):
    scores, ratings = block_test_division(kind)
    n = scores.size
    assert n % 7
    results = []
    # one row per block; 7-row blocks, the last one partial; one block
    for budget in (8 * n, 7 * 8 * n, n * 8 * n):
        monkeypatch.setattr(rating, "_BLOCK_BYTES", budget)
        results.append(division_ranks(scores, ratings))
    for got in results[1:]:
        for got_column, want_column in zip(got, results[0]):
            assert np.array_equal(got_column, want_column)


SPLIT = rating._SPLIT_ROWS


@pytest.mark.parametrize("n", [SPLIT - 1, SPLIT, SPLIT + 1, 1680, 4000])
@pytest.mark.parametrize("kind", ["tie_free", "tie_heavy", "clipped"])
def test_split_is_invisible_in_the_output(monkeypatch, kind, n):
    """Ranking the upper half of the rows on a helper thread changes no bit."""
    scores, ratings = block_test_division(kind, n)
    monkeypatch.setattr(rating, "_cpu_count", lambda: 2)
    results = []
    for split_rows in (n + 1, n):   # one thread, then two
        monkeypatch.setattr(rating, "_SPLIT_ROWS", split_rows)
        results.append(division_ranks(scores, ratings))
    assert_same_bits(*results)


def recording_rank_rows(monkeypatch, threads, fail_from=None):
    """Replace ``_rank_rows`` with one that records the ident of each thread
    that runs it and raises for a range starting at ``fail_from`` or later."""
    rank_rows = rating._rank_rows

    def recording(first, *args):
        threads.append(threading.get_ident())
        if fail_from is not None and first >= fail_from:
            raise RuntimeError(f"rows from {first}")
        rank_rows(first, *args)

    monkeypatch.setattr(rating, "_rank_rows", recording)


@pytest.mark.parametrize("n,cpus,idents", [(SPLIT - 1, 2, 1), (SPLIT, 2, 2), (SPLIT, 1, 1)])
def test_a_division_past_the_split_is_ranked_on_two_threads(monkeypatch, n, cpus,
                                                            idents):
    scores, ratings = block_test_division("tie_free", n)
    monkeypatch.setattr(rating, "_cpu_count", lambda: cpus)
    threads = []
    recording_rank_rows(monkeypatch, threads)
    division_ranks(scores, ratings)
    assert len(threads) == idents == len(set(threads))
    assert threading.get_ident() in threads


@pytest.mark.parametrize("fail_from", [500, 0], ids=["helper", "both"])
def test_an_error_in_either_half_reaches_the_caller(monkeypatch, fail_from):
    """The caller joins the helper before it raises: the helper's error, or
    its own when both halves fail."""
    scores, ratings = block_test_division("tie_free", 1000)
    monkeypatch.setattr(rating, "_cpu_count", lambda: 2)
    before = threading.active_count()
    threads = []
    recording_rank_rows(monkeypatch, threads, fail_from=fail_from)
    with pytest.raises(RuntimeError, match=f"^rows from {fail_from}$"):
        division_ranks(scores, ratings)
    assert len(set(threads)) == 2
    assert threading.active_count() == before


def test_concurrent_callers_each_get_their_own_bits(monkeypatch):
    """Four callers on their own threads, each splitting its division, so
    eight threads share the cores under a short switch interval: every call
    gives the bits of its division ranked on one thread."""
    divisions = [block_test_division(kind, SPLIT + 37 * k) for k, kind in
                 enumerate(["tie_free", "tie_heavy", "clipped", "tie_free"])]
    monkeypatch.setattr(rating, "_cpu_count", lambda: 1)
    want = [division_ranks(*division) for division in divisions]
    monkeypatch.setattr(rating, "_cpu_count", lambda: 2)
    got = [[] for _ in divisions]

    def rank(k):
        for _ in range(5):
            got[k].append(division_ranks(*divisions[k]))

    callers = [threading.Thread(target=rank, args=(k,)) for k in range(len(divisions))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for results, expected in zip(got, want, strict=True):
        assert len(results) == 5
        for result in results:
            assert_same_bits(result, expected)


@pytest.mark.parametrize("tie_heavy", [False, True])
def test_kernel_working_memory_is_bounded(monkeypatch, tie_heavy):
    """No n x n or 512 x n temporary: at n = 4,000 one 512-row float64
    block alone is 15.6 MiB.  The bound holds with the rows split between
    two threads, each with its own two blocks (tracemalloc counts both)."""
    monkeypatch.setattr(rating, "_cpu_count", lambda: 2)
    rng = np.random.default_rng(71)
    n = 4000
    ratings = rng.uniform(0.0, 3000.0, n)
    scores = (rng.integers(0, 100, n).astype(float) if tie_heavy
              else rng.uniform(0.0, 1000.0, n))
    tracemalloc.start()
    try:
        division_ranks(scores, ratings)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("tie_heavy", [False, True])
def test_shuffled_division_gives_shuffled_outputs(tie_heavy):
    rng = np.random.default_rng(61)
    n = 1100
    ratings = rng.uniform(0.0, 3000.0, n)
    scores = (rng.integers(0, 100, n).astype(float) if tie_heavy
              else rng.uniform(0.0, 1000.0, n))
    perm = rng.permutation(n)
    want = division_ranks(scores, ratings)
    got = division_ranks(scores[perm], ratings[perm])
    for got_column, want_column in zip(got, want):
        assert got_column.tolist() == pytest.approx(
            want_column[perm].tolist(), abs=1e-12)


@pytest.mark.parametrize("margin,clipped", [(-1e-6, False), (1e-6, True)])
def test_only_a_spread_past_the_clip_takes_the_clipped_curve(monkeypatch, margin,
                                                             clipped):
    calls = []
    win_matrix = rating._win_matrix

    def counting_win_matrix(a, b):
        calls.append(len(a))
        return win_matrix(a, b)

    monkeypatch.setattr(rating, "_win_matrix", counting_win_matrix)
    spread = rating.MAX_LOGIT / rating.ELO_SCALE + margin
    ratings = [1000.0, 1000.0 + spread / 3.0, 1000.0 + spread]
    _, _, mu, _ = division_ranks([3.0, 2.0, 1.0], ratings)
    for i in range(3):
        want = sum(oracle_win_probability(ratings[j], ratings[i])
                   for j in range(3) if j != i)
        assert mu[i] - 1.0 == pytest.approx(want, abs=1e-12)
    assert calls == ([3] if clipped else [])


def pairwise_equal_ratings(scores):
    """``division_ranks``'s pairwise sums at equal ratings, computed as the
    pairwise pass computes them: row sums of an n x n matrix of w = 0.5
    (w * (1 - w) = 0.25 for ``var``) with a zero diagonal, plus 1; for
    ``expected``, tied pairs zeroed before the row sum and 0.5 per tie added."""
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.size
    w = np.full((n, n), 0.5)
    np.fill_diagonal(w, 0.0)
    mu = np.add.reduce(w, axis=1) + 1.0
    var = np.add.reduce((1.0 - w) * w, axis=1) + 1.0
    tied = scores[:, None] == scores
    ties = tied.sum(axis=1) - 1
    above = (scores[None, :] > scores[:, None]).sum(axis=1)
    expected = 1.0 + np.add.reduce(np.where(tied, 0.0, w), axis=1) + 0.5 * ties
    return 1.0 + above + 0.5 * ties, expected, mu, var


def assert_same_bits(got, want):
    for got_column, want_column in zip(got, want, strict=True):
        assert got_column.dtype == np.float64
        assert got_column.tobytes() == want_column.tobytes()


@st.composite
def equal_rating_divisions(draw, max_n=60):
    """Scores on a grid from tie-free to all-tied, and one shared finite
    rating; a zero rating gets a random sign per entry."""
    n = draw(st.integers(0, max_n))
    grid = draw(st.sampled_from([None, 1, 3, 20]))   # None: tie-free floats
    if grid is None:
        scores = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n,
                               unique=True))
    else:
        scores = draw(st.lists(st.integers(0, grid - 1).map(float),
                               min_size=n, max_size=n))
    rating_value = draw(st.one_of(
        st.sampled_from([-5.5, 0.0, 7e-300, 1200.0, 1e99]),
        st.floats(allow_nan=False, allow_infinity=False)))
    ratings = np.full(n, rating_value)
    if rating_value == 0.0:
        ratings = np.copysign(ratings, draw(st.lists(st.sampled_from([1.0, -1.0]),
                                                     min_size=n, max_size=n)))
    return np.array(scores, dtype=np.float64), ratings


class TestEqualRatings:
    """A division whose entrants all hold one rating, as every debut division
    does, takes ``division_ranks``'s closed form, bit for bit the pairwise sums."""

    @settings(deadline=None, max_examples=200)
    @given(equal_rating_divisions())
    def test_closed_form_is_the_pairwise_sum(self, case):
        scores, ratings = case
        got = division_ranks(scores, ratings)
        assert_same_bits(got, pairwise_equal_ratings(scores))
        want = oracle_rate_division(scores.tolist(), ratings.tolist(),
                                    [0] * scores.size, PROFILES["elo"])
        for column, name in zip(got, ("actual_rank", "expected_rank", "mu", "var")):
            assert column.tolist() == [entry[name] for entry in want], name

    @pytest.mark.parametrize("scores,ratings", [
        ([], []),
        ([4.0], [1200.0]),
        ([3.0, 3.0, 1.0, 2.0, 3.0], [0.0, -0.0, -0.0, 0.0, 0.0]),
        ([9.0, 2.0, 2.0, 5.0], [7e-300] * 4),
        ([1.0, 2.0, 3.0, 3.0], [1e99] * 4),
    ], ids=["empty", "single", "signed_zeros", "tiny", "huge"])
    def test_edge_cases(self, scores, ratings):
        got = division_ranks(scores, ratings)
        assert_same_bits(got, pairwise_equal_ratings(scores))
        assert not any(np.shares_memory(a, b) for k, a in enumerate(got)
                       for b in got[k + 1:])

    def test_only_equal_ratings_skip_the_pairwise_pass(self, monkeypatch):
        """The pairwise pass zeroes each block's diagonal for every n >= 1."""
        def raiser(*args, **kwargs):
            raise AssertionError("pairwise pass")

        monkeypatch.setattr(np, "fill_diagonal", raiser)
        division_ranks([3.0, 1.0, 3.0], [1500.0] * 3)
        division_ranks([2.0, 1.0], [0.0, -0.0])
        state = EngineState.fresh(PROFILES["elo2"])
        rate_round(RoundInput("r0", [DivisionResult(1, [("a", 1.0), ("b", 2.0)]),
                                     DivisionResult(2, [("c", 5.0)])]), state,
                   PROFILES["elo2"])
        with pytest.raises(AssertionError, match="pairwise pass"):
            division_ranks([3.0, 1.0], [1500.0, 1500.5])
        with pytest.raises(InputError, match="finite"):
            division_ranks([3.0, 1.0], [np.nan, np.nan])


class TestNonFiniteInput:
    """``division_ranks`` refuses a NaN or infinite score or rating before any
    arithmetic, on the closed-form path and on the pairwise one."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("where", ["scores", "ratings"])
    @pytest.mark.parametrize("equal", [True, False], ids=["equal", "distinct"])
    def test_refused_without_a_warning(self, bad, where, equal):
        scores = [3.0, 1.0, 2.0]
        ratings = [1500.0] * 3 if equal else [1500.0, 1200.0, 1800.0]
        if where == "scores":
            scores[:2] = [bad, bad]
        elif equal:
            ratings = [bad] * 3
        else:
            ratings[1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="finite scores and ratings"):
                division_ranks(scores, ratings)

    def test_extreme_finite_ratings_take_the_clipped_curve(self, monkeypatch):
        calls = []
        win_matrix = rating._win_matrix

        def counting_win_matrix(a, b):
            calls.append(len(a))
            return win_matrix(a, b)

        monkeypatch.setattr(rating, "_win_matrix", counting_win_matrix)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            actual, expected, mu, var = division_ranks([3.0, 1.0, 2.0],
                                                       [1.7e308, -1.7e308, 0.0])
        assert calls == [3]
        assert actual.tolist() == [1.0, 3.0, 2.0]
        upset = 1.0 / (1.0 + math.exp(rating.MAX_LOGIT))   # the weaker side wins
        assert mu.tolist() == pytest.approx([1.0 + 2 * upset, 3.0 - 2 * upset, 2.0],
                                            abs=1e-15)
        assert np.array_equal(expected, mu)
        assert np.isfinite(var).all()
