"""Agreement between the engine and the brute-force reference implementations."""

import numpy as np
import pytest

import rankelo.rating as rating
from rankelo import (
    DivisionResult,
    EngineState,
    PROFILES,
    PlayerState,
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
    players = {f"p{i:03d}": PlayerState(float(ratings[i]), int(rounds_played[i]))
               for i in range(len(scores))}
    division = DivisionResult(
        division=1,
        entries=[(f"p{i:03d}", float(scores[i])) for i in range(len(scores))])
    got = rate_division(division, players, params)
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
    """n = 1100 spans three row blocks of the pairwise kernel."""
    rng = np.random.default_rng(53)
    n = 1100
    ratings = rng.uniform(0.0, 3000.0, n)
    scores = (rng.integers(0, 100, n).astype(float) if tie_heavy
              else rng.uniform(0.0, 1000.0, n))
    assert_matches_oracle(scores, ratings, rng.integers(0, 300, n), PROFILES["elo2"])


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
