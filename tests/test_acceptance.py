"""Release gate for the rating engine.

Twelve checks covering the load-bearing constants, closed-form identities,
oracle agreement, determinism, and end-to-end behavior.  Each test prints
one PASS line with its measured numbers; tolerances are part of the
contract and must not be loosened.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from rankelo import (
    BITS_TO_RATING,
    DivisionResult,
    EngineState,
    PROFILES,
    PlayerState,
    RoundInput,
    SimConfig,
    SweepSpec,
    generate_history,
    kendall_tau,
    load_snapshot,
    rate_division,
    rate_round,
    replay,
    run_sweep,
    save_snapshot,
    spearman_rho,
)
from oracles import (
    oracle_kendall_tau,
    oracle_rank_performance,
    oracle_rate_division,
    oracle_relative_performance,
    oracle_spearman_rho,
)

ELO = PROFILES["elo"]
ELO2 = PROFILES["elo2"]

BREAKDOWN_FIELDS = ("actual_rank", "expected_rank", "perf", "sensitivity",
                    "adjusted_perf", "weight", "variance_factor", "delta_r",
                    "mu", "var")


def test_rating_scale_constant():
    """One bit of performance is worth 400*log10(2) rating points."""
    reference = 400.0 * math.log10(2.0)
    assert abs(BITS_TO_RATING - reference) <= 1e-9
    assert round(BITS_TO_RATING, 3) == 120.412
    print(f"PASS: bits-to-rating constant = {BITS_TO_RATING!r} "
          f"(reference {reference!r}, diff {abs(BITS_TO_RATING - reference):.2e})")


def test_rank_performance_closed_forms():
    """Tournament identities: RP(2^k,1)=k, second place costs one bit,
    and the measure depends only on the n/r ratio."""
    for k in range(1, 11):
        assert oracle_rank_performance(2.0 ** k, 1.0) == pytest.approx(
            float(k), abs=1e-12)
    worst = 0.0
    for n in range(2, 1025):
        diff = (oracle_rank_performance(n, 2.0)
                - (oracle_rank_performance(n, 1.0) - 1.0))
        worst = max(worst, abs(diff))
        for scale in (2.0, 3.0, 10.0):
            for rank in (1.0, (n + 1) / 2.0, float(n)):
                diff = oracle_rank_performance(scale * n, scale * rank) - \
                    oracle_rank_performance(n, rank)
                worst = max(worst, abs(diff))
    assert worst <= 1e-12
    print(f"PASS: rank-performance closed forms hold for n in 2..1024 "
          f"(worst deviation {worst:.2e} <= 1e-12)")


def test_division_performance_sum_floor():
    """Summed over a division, relative performance cannot go measurably
    negative: the floor is -1e-9 over 1000 randomized tied divisions."""
    rng = np.random.default_rng(0)    # committed before sampling; do not tune
    worst = math.inf
    tied_divisions = 0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        ratings = rng.uniform(0.0, 3500.0, n)
        scores = np.round((ratings + rng.normal(0.0, 400.0, n)) / 100.0) * 100.0
        players = {f"p{i}": PlayerState(float(ratings[i]), 0)
                   for i in range(n)}
        division = DivisionResult(1, [(f"p{i}", float(scores[i]))
                                      for i in range(n)])
        total = sum(rate_division(division, players, ELO).perf.tolist())
        worst = min(worst, total)
        if len(set(scores.tolist())) < n:
            tied_divisions += 1
    assert worst >= -1e-9
    assert tied_divisions > 500    # the ensemble must actually exercise ties
    print(f"PASS: division performance sums >= -1e-9 across 1000 divisions "
          f"(min {worst!r}, {tied_divisions} with ties)")


def test_log_ratio_identities():
    """Relative performance is a log ratio: cycles cancel, scaling drops
    out, and powered ratios stack linearly."""
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(10_000):
        a, b, c = rng.uniform(1.0, 1000.0, 3)
        cycle = (oracle_relative_performance(a, b)
                 + oracle_relative_performance(b, c)
                 + oracle_relative_performance(c, a))
        worst = max(worst, abs(cycle))

        scale = float(rng.uniform(1.0, 50.0))
        worst = max(worst, abs(oracle_relative_performance(scale * a, scale * b)
                               - oracle_relative_performance(a, b)))

        r = float(rng.uniform(1.0, 100.0))
        x = float(rng.uniform(1.0, 3.0))
        k = int(rng.integers(2, 5))
        worst = max(worst, abs(oracle_relative_performance(r, r * x ** k)
                               - k * oracle_relative_performance(r, r * x)))
    assert worst <= 1e-12
    print(f"PASS: log-ratio identities hold on 10000 random inputs "
          f"(worst deviation {worst:.2e} <= 1e-12)")


def test_engine_matches_bruteforce_oracle():
    """The vectorized division kernel agrees with the straight-line
    pure-Python reference on every breakdown field."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for index in range(500):
        params = ELO if index % 2 == 0 else ELO2
        n = int(rng.integers(1, 51))
        ratings = rng.uniform(0.0, 3000.0, n)
        style = rng.integers(0, 3)
        if style == 0:
            scores = rng.uniform(0.0, 1000.0, n)
        elif style == 1:
            scores = rng.integers(0, max(2, n // 2), n).astype(float)
        else:
            scores = np.full(n, float(rng.integers(0, 5)))
        rounds_played = rng.integers(0, 300, n)

        players = {f"p{i:03d}": PlayerState(float(ratings[i]),
                                            int(rounds_played[i]))
                   for i in range(n)}
        division = DivisionResult(1, [(f"p{i:03d}", float(scores[i]))
                                      for i in range(n)])
        got = rate_division(division, players, params)
        want = oracle_rate_division(
            [float(s) for s in scores], [float(r) for r in ratings],
            [int(x) for x in rounds_played], params)
        for name in BREAKDOWN_FIELDS:
            for value, expected in zip(getattr(got, name).tolist(), want):
                diff = abs(value - expected[name])
                worst = max(worst, diff)
                assert diff <= 1e-9, name
    print(f"PASS: engine matches brute-force oracle on 500 divisions, "
          f"all {len(BREAKDOWN_FIELDS)} fields (worst diff {worst:.2e} <= 1e-9)")


def test_two_player_golden_deltas():
    """Frozen first-round outcome for two fresh 1200 players: the winner
    gains 74.53 and the loser drops 54.14, give or take a cent."""
    # independent re-derivation from the update chain
    p_win = 1.0 / (1.0 + 10.0 ** 0.0)             # equal ratings: 0.5
    expected_rank = 1.0 + p_win                    # one opponent
    mu = 1.0 + p_win
    var = 1.0 + p_win * (1.0 - p_win)
    sens = var / mu
    factor = 1.0 + ELO.variance_weight * sens
    derived = {}
    for actual_rank, label in ((1.0, "winner"), (2.0, "loser")):
        perf = math.log2(expected_rank / actual_rank)
        capped = perf * ELO.perf_cap / (ELO.perf_cap + abs(perf))
        derived[label] = ELO.k_factor * capped / factor    # new player: W = 1

    players = {"w": PlayerState(1200.0, 0), "l": PlayerState(1200.0, 0)}
    division = DivisionResult(1, [("w", 10.0), ("l", 5.0)])
    winner, loser = rate_division(division, players, ELO).delta_r.tolist()

    assert winner == pytest.approx(derived["winner"], abs=1e-9)
    assert loser == pytest.approx(derived["loser"], abs=1e-9)
    assert winner == pytest.approx(74.53, abs=0.01)
    assert loser == pytest.approx(-54.14, abs=0.01)
    print(f"PASS: golden two-player deltas {winner:+.6f} / "
          f"{loser:+.6f} within 0.01 of +74.53 / -54.14")


def test_all_tied_division_is_neutral():
    """With no performance bonus, a division where everyone ties changes
    no rating at all, exactly."""
    ratings = np.linspace(900.0, 2700.0, 7)
    players = {f"p{i}": PlayerState(float(ratings[i]), i * 20)
               for i in range(7)}
    division = DivisionResult(1, [(f"p{i}", 42.0) for i in range(7)])
    breakdown = rate_division(division, players, ELO)
    assert breakdown.delta_r.tolist() == [0.0] * 7

    state = EngineState(players=dict(players), r1=1200.0, rounds_processed=0)
    rate_round(RoundInput("r1", [division]), state, ELO)
    assert all(state.players[f"p{i}"].rating == float(ratings[i])
               for i in range(7))
    print("PASS: all-tied division with zero bonus leaves every rating "
          "bit-identical (all deltas exactly 0.0)")


def test_rank_correlations_match_oracles():
    """Tau-b and mid-rank rho agree with direct-definition oracles on
    heavily tied rankings."""
    rng = np.random.default_rng(8)
    worst = 0.0
    undefined = 0
    for _ in range(200):
        n = int(rng.integers(2, 201))
        x = rng.integers(0, max(2, n // 3), n).astype(float).tolist()
        y = rng.integers(0, max(2, n // 3), n).astype(float).tolist()
        for impl, oracle in ((kendall_tau, oracle_kendall_tau),
                             (spearman_rho, oracle_spearman_rho)):
            want = oracle(x, y)
            got = impl(x, y)
            if want is None:
                assert got is None
                undefined += 1
            else:
                diff = abs(got - want)
                worst = max(worst, diff)
                assert diff <= 1e-12
    print(f"PASS: tau-b and mid-rank rho match oracles on 200 tied rankings "
          f"(worst diff {worst:.2e} <= 1e-12, {undefined} undefined agree)")


def test_split_replay_bit_determinism(tmp_path):
    """Stopping at any round boundary, snapshotting to disk, and resuming
    reproduces the uninterrupted replay bit for bit."""
    rounds = generate_history(SimConfig(
        players=25, rounds=100, participation=0.85, div1_fraction=0.4,
        drift_std=2.0, arrival_rate=0.3, tie_step=25.0, seed=12)).rounds
    assert len(rounds) == 100

    whole = replay(rounds, ELO2, keep_observations=False).state
    reference = tmp_path / "whole.snap"
    save_snapshot(whole, reference)
    reference_bytes = reference.read_bytes()

    path = tmp_path / "boundary.snap"
    for boundary in range(101):
        head = replay(rounds[:boundary], ELO2, keep_observations=False).state
        save_snapshot(head, path)
        resumed = replay(rounds[boundary:], ELO2, state=load_snapshot(path),
                         keep_observations=False).state
        assert resumed.r1 == whole.r1
        assert resumed.rounds_processed == whole.rounds_processed
        assert set(resumed.players) == set(whole.players)
        for player_id, player in whole.players.items():
            other = resumed.players[player_id]
            assert other.rating == player.rating
            assert other.num_rounds == player.num_rounds
        save_snapshot(resumed, path)
        assert path.read_bytes() == reference_bytes
    print("PASS: split replay equals uninterrupted replay bit-exactly at "
          "all 101 round boundaries of a 100-round history")


def test_simulated_skill_recovery():
    """Replaying a static-skill simulation ranks players by skill and gets
    more accurate as ratings converge."""
    sim = generate_history(SimConfig(players=200, rounds=300, seed=10))
    result = replay(sim.rounds, ELO, keep_observations=False)

    players = sorted(sim.skills)
    rho = spearman_rho([result.state.players[p].rating for p in players],
                       [sim.skills[p] for p in players])
    assert rho >= 0.95

    windows = [(err, count) for _, err, count in result.round_errors]
    first = sum(e for e, _ in windows[:50]) / sum(c for _, c in windows[:50])
    last = sum(e for e, _ in windows[-50:]) / sum(c for _, c in windows[-50:])
    assert last < first
    print(f"PASS: skill recovery spearman {rho:.4f} >= 0.95; mean error "
          f"fell from {first:.4f} (first 50 rounds) to {last:.4f} (last 50)")


def test_k_sweep_matches_exhaustive_scan():
    """Both K-search routes land within one grid step of an exhaustive
    fine-grid scan's argmin."""
    rounds = generate_history(SimConfig(
        players=40, rounds=120, participation=0.9, drift_std=2.0,
        seed=13)).rounds

    def error_at(k):
        return replay(rounds, replace(ELO, k_factor=k),
                      keep_observations=False).mean_error

    fine_step = 5.0
    fine_grid = np.arange(25.0, 1500.0 + fine_step / 2.0, fine_step)
    fine_error, fine_k = min((error_at(float(k)), float(k)) for k in fine_grid)

    golden = run_sweep(SweepSpec(target="bonus", grid=(0.0,),
                                 k_step=fine_step), rounds).points[0]
    assert abs(golden.best_k - fine_k) <= fine_step

    coarse_step = 25.0
    coarse = run_sweep(SweepSpec(
        target="k_factor",
        grid=tuple(np.arange(25.0, 1500.0 + coarse_step / 2.0, coarse_step))),
        rounds)
    assert abs(coarse.best.value - fine_k) <= coarse_step
    print(f"PASS: K search argmin within one step of exhaustive scan "
          f"(fine {fine_k}, golden-section {golden.best_k:.4f}, "
          f"coarse grid {coarse.best.value})")


def test_new_player_inflation_accounting():
    """After R rounds the new-player rating is exactly the starting rating
    plus 0.63 points per round, with no accumulation drift."""
    state = EngineState.fresh(ELO2)
    checkpoints = {1, 7, 100, 777, 1222}
    for t in range(1222):
        rate_round(RoundInput(f"r{t}", [DivisionResult(1, [("p0", 1.0)])]),
                   state, ELO2)
        rounds = t + 1
        if rounds in checkpoints:
            assert state.r1 == 1200.0 + 0.63 * rounds    # bitwise
    assert state.rounds_processed == 1222
    assert state.r1 == 1200.0 + 0.63 * 1222
    assert round(state.r1) == 1970
    print(f"PASS: new-player rating after 1222 rounds is {state.r1!r} "
          f"== 1200 + 0.63*1222 bitwise (rounds to 1970)")
