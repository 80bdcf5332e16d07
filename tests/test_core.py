"""Unit tests for the rating kernel: every documented example plus edges."""

import math
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

import rankelo
from rankelo import (
    BITS_TO_RATING,
    DivisionResult,
    EngineState,
    InputError,
    PROFILES,
    PlayerState,
    RatingParams,
    RoundInput,
    division_metrics,
    division_ranks,
    get_or_create_player,
    rate_division,
    rate_round,
    replay,
)
from rankelo.replay import compile_history
from oracles import (
    oracle_bonus_performance,
    oracle_rank_performance,
    oracle_relative_performance,
    oracle_sigmoid_cap,
)

ELO = PROFILES["elo"]
ELO2 = PROFILES["elo2"]


def test_every_public_name_resolves_once():
    # ``from rankelo import *`` fails on a listed name the package lacks
    assert len(set(rankelo.__all__)) == len(rankelo.__all__)
    assert [name for name in rankelo.__all__ if not hasattr(rankelo, name)] == []
    namespace = {}
    exec("from rankelo import *", namespace)
    assert set(rankelo.__all__) <= set(namespace)


def two_player_division(score_a=100.0, score_b=50.0):
    state = EngineState(ids=["a", "b"], rating=[1200.0, 1200.0], num_rounds=[0, 0])
    division = DivisionResult(division=1, entries=[("a", score_a), ("b", score_b)])
    return division, state


def duel(r_a, r_b):
    """``(P(a beats b), P(b beats a))``, read off a two-entry division's mu."""
    _, _, mu, _ = division_ranks([1.0, 0.0], [r_a, r_b])
    return mu[1] - 1.0, mu[0] - 1.0


def rate(entries, params, rounds=None):
    """The breakdown of one division of ``(player_id, rating, score)`` entries."""
    state = EngineState(ids=[pid for pid, _, _ in entries],
                        rating=[rating for _, rating, _ in entries],
                        num_rounds=[(rounds or {}).get(pid, 0) for pid, _, _ in entries])
    division = DivisionResult(1, [(pid, score) for pid, _, score in entries])
    return rate_division(division, state, params)


def row(breakdown, i):
    """Entry ``i`` of a breakdown, each column's value as a Python scalar."""
    return SimpleNamespace(**{f.name: getattr(breakdown, f.name)[i].item()
                              for f in fields(breakdown)})


def lone_entry(params):
    """The only entry of a one-entry division: perf 0, sensitivity 1."""
    return row(rate([("a", 1500.0, 10.0)], params), 0)


class TestWinProbability:
    def test_equal_ratings(self):
        assert duel(1200.0, 1200.0) == (0.5, 0.5)

    def test_400_point_gap_is_ten_to_one(self):
        # mu - 1 of the 1200 player is P(1600 beats 1200), and vice versa
        stronger, weaker = duel(1600.0, 1200.0)
        assert stronger == pytest.approx(10.0 / 11.0, abs=1e-12)
        assert weaker == pytest.approx(1.0 / 11.0, abs=1e-12)

    def test_frozen_value(self):
        # 1 / (1 + 10 ** 0.5), evaluated at 50-digit precision
        assert duel(1300.0, 1500.0)[0] == pytest.approx(
            0.24025307335204215, abs=1e-12)

    def test_complement(self):
        for a, b in [(1200.0, 1200.0), (900.0, 2400.0), (1700.5, 1699.5)]:
            assert sum(duel(a, b)) == pytest.approx(1.0, abs=1e-12)

    def test_extreme_gap_stays_inside_unit_interval(self):
        high = duel(50000.0, -50000.0)[0]
        low = duel(-50000.0, 50000.0)[0]
        assert 0.0 < low < high < 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InputError, match="non-finite rating"):
            rate([("a", bad, 2.0), ("b", 1200.0, 1.0)], ELO)
        with pytest.raises(InputError, match="non-finite rating"):
            rate([("a", 1200.0, 2.0), ("b", bad, 1.0)], ELO)


class TestRankPerformance:
    def test_winner_of_eight(self):
        assert oracle_rank_performance(8, 1) == pytest.approx(3.0, abs=1e-12)

    def test_last_place(self):
        assert oracle_rank_performance(4, 4) == 0.0

    def test_half_field(self):
        assert oracle_rank_performance(6, 3) == pytest.approx(1.0, abs=1e-12)

    def test_half_integral_rank(self):
        assert oracle_rank_performance(4, 1.5) == pytest.approx(
            math.log2(4 / 1.5), abs=1e-12)


class TestRankAndExpectedRank:
    def test_single_entry(self):
        ranks = division_ranks([10.0], [1500.0])
        assert tuple(float(column[0]) for column in ranks) == (1.0, 1.0, 1.0, 1.0)

    def test_two_way_tie(self):
        actual, expected, _, _ = division_ranks([5.0, 5.0], [1400.0, 1400.0])
        for i in range(2):
            assert actual[i] == 1.5
            assert expected[i] == 1.5

    def test_middle_of_three_equal_ratings(self):
        actual, expected, mu, var = division_ranks(
            [30.0, 20.0, 10.0], [1200.0, 1200.0, 1200.0])
        assert actual[1] == 2.0
        assert expected[1] == pytest.approx(2.0, abs=1e-12)
        assert mu[1] == pytest.approx(2.0, abs=1e-12)
        assert var[1] == pytest.approx(1.5, abs=1e-12)

    def test_misaligned_ratings(self):
        with pytest.raises(InputError):
            division_metrics("r1", 1, [1.0, 2.0], [1200.0], ["a", "b"])


class TestRelativePerformance:
    def test_examples(self):
        assert oracle_relative_performance(2.0, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert oracle_relative_performance(3.0, 3.0) == 0.0
        assert oracle_relative_performance(4.0, 8.0) == pytest.approx(-1.0, abs=1e-12)
        # the engine's perf is this log ratio of its own ranks
        b = rate([("a", 1100.0, 3.0), ("b", 1500.0, 2.0), ("c", 1300.0, 3.0)], ELO)
        for perf, expected, actual in zip(b.perf, b.expected_rank, b.actual_rank):
            assert perf == pytest.approx(
                oracle_relative_performance(expected, actual), abs=1e-12)


class TestSensitivity:
    def test_no_opponents(self):
        assert lone_entry(ELO).sensitivity == 1.0

    def test_one_even_opponent(self):
        b = rate([("a", 1400.0, 2.0), ("b", 1400.0, 1.0)], ELO)
        assert b.sensitivity == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_expected_last_tends_to_one_over_n(self):
        # all opponent win probabilities at 1: mu = n, var = 1
        entries = [("last", -50000.0, 0.0)]
        entries += [(f"p{i:02d}", 50000.0, float(i)) for i in range(49)]
        assert rate(entries, ELO).sensitivity[0] == pytest.approx(
            1.0 / 50.0, abs=1e-12)


class TestBonusAdjustedPerformance:
    def test_identity_without_bonus(self):
        assert oracle_bonus_performance(0.5, 0.8, ELO.bonus) == 0.5
        b = rate([("a", 1100.0, 3.0), ("b", 1500.0, 2.0), ("c", 1300.0, 1.0)], ELO)
        for perf, adjusted in zip(b.perf.tolist(), b.adjusted_perf.tolist()):
            assert adjusted == oracle_sigmoid_cap(perf, ELO.perf_cap)

    def test_pure_bonus(self):
        got = oracle_bonus_performance(0.0, 1.0, ELO2.bonus)
        assert got == pytest.approx(27.0 / BITS_TO_RATING, abs=1e-15)
        assert got == pytest.approx(0.2242301464048970, abs=1e-12)
        # a lone entry has perf 0 and sensitivity 1: only the bonus moves it
        assert lone_entry(ELO2).adjusted_perf == pytest.approx(
            oracle_sigmoid_cap(27.0 / BITS_TO_RATING, ELO2.perf_cap), abs=1e-15)

    def test_frozen_mixed_value(self):
        got = oracle_bonus_performance(-0.3, 0.5, ELO2.bonus)
        assert got == pytest.approx(-0.18788492679755152, abs=1e-12)
        assert got == pytest.approx(-0.18788, abs=1e-5)


class TestClampPerformance:
    def test_zero(self):
        assert oracle_sigmoid_cap(0.0, 6.75) == 0.0
        all_tied = rate([("a", 1100.0, 1.0), ("b", 1500.0, 1.0)], ELO)
        assert all_tied.adjusted_perf.tolist() == [0.0, 0.0]

    def test_at_cap_halves(self):
        assert oracle_sigmoid_cap(6.75, 6.75) == pytest.approx(3.375, abs=1e-12)
        assert oracle_sigmoid_cap(5.0, 5.0) == 2.5
        # a lone entry's boosted performance is bonus / BITS_TO_RATING
        at_cap = replace(ELO, bonus=6.75 * BITS_TO_RATING)
        assert lone_entry(at_cap).adjusted_perf == pytest.approx(3.375, abs=1e-12)
        at_cap = replace(ELO, bonus=5.0 * BITS_TO_RATING, perf_cap=5.0)
        assert lone_entry(at_cap).adjusted_perf == 2.5

    def test_odd(self):
        for p in (0.25, 1.0, 40.0):
            assert oracle_sigmoid_cap(-p, 6.75) == -oracle_sigmoid_cap(p, 6.75)

    def test_invalid_cap(self):
        for cap in (0.0, -6.75):
            with pytest.raises(InputError, match="perf_cap"):
                RatingParams(perf_cap=cap)


class TestRatingDelta:
    def test_zero_performance(self):
        assert lone_entry(ELO).delta_r == 0.0

    def test_fourth_round_halves_first_round_delta(self):
        entries = [("a", 1200.0, 2.0), ("b", 1300.0, 1.0)]
        first = rate(entries, ELO).delta_r[0]
        fourth = rate(entries, ELO, rounds={"a": 3}).delta_r[0]
        assert fourth == first / 2.0

    def test_round_number_starts_at_one(self):
        # num_rounds counts completed rounds, so a first round is round 1
        for exponent in (0.0, 0.5, 1.0):
            params = replace(ELO, weight_exponent=exponent)
            b = rate([("a", 1200.0, 2.0), ("b", 1300.0, 1.0)],
                     params, rounds={"b": 3})
            assert b.nr.tolist() == [1, 4]
            assert b.weight[0] == 1.0
            assert b.weight[1] == 4.0 ** exponent


class TestGoldenTwoPlayerRound:
    """Hand-derived chain for two fresh 1200-rated players, 'elo' profile."""

    def test_winner_breakdown(self):
        division, state = two_player_division()
        winner = row(rate_division(division, state, ELO), 0)
        assert winner.actual_rank == 1.0
        assert winner.expected_rank == pytest.approx(1.5, abs=1e-12)
        assert winner.perf == pytest.approx(0.5849625007211562, abs=1e-12)
        assert winner.sensitivity == pytest.approx(5.0 / 6.0, abs=1e-12)
        assert winner.variance_factor == pytest.approx(13.0 / 3.0, abs=1e-12)
        assert winner.weight == 1.0
        assert winner.adjusted_perf == pytest.approx(0.5383118017957961, abs=1e-12)
        assert winner.delta_r == pytest.approx(74.5354802486487, abs=1e-10)
        assert winner.delta_r == pytest.approx(74.53, abs=0.01)

    def test_loser_breakdown(self):
        division, state = two_player_division()
        loser = row(rate_division(division, state, ELO), 1)
        assert loser.actual_rank == 2.0
        assert loser.expected_rank == pytest.approx(1.5, abs=1e-12)
        assert loser.perf == pytest.approx(-0.4150374992788438, abs=1e-12)
        assert loser.adjusted_perf == pytest.approx(-0.3909962956110370, abs=1e-12)
        assert loser.delta_r == pytest.approx(-54.13794862306665, abs=1e-10)
        assert loser.delta_r == pytest.approx(-54.14, abs=0.01)

    def test_round_gains_rating_on_net(self):
        division, state = two_player_division()
        deltas = rate_division(division, state, ELO).delta_r.tolist()
        assert deltas[0] + deltas[1] > 0.0


class TestRateDivision:
    def test_empty_division(self):
        b = rate_division(DivisionResult(1, []), EngineState(), ELO)
        for f in fields(b):
            column = getattr(b, f.name)
            assert column.shape == (0,)
            assert column.dtype == (np.int64 if f.name == "nr" else np.float64)

    def test_all_tied_without_bonus_is_exactly_neutral(self):
        state = EngineState(ids=[f"p{i}" for i in range(6)],
                            rating=[1000.0 + 250.0 * i for i in range(6)],
                            num_rounds=range(6))
        division = DivisionResult(
            division=1, entries=[(f"p{i}", 42.0) for i in range(6)])
        b = rate_division(division, state, ELO)
        assert b.delta_r.tolist() == [0.0] * 6
        assert b.perf.tolist() == [0.0] * 6

    def test_all_tied_with_bonus_still_moves(self):
        division, state = two_player_division(1.0, 1.0)
        assert (rate_division(division, state, ELO2).delta_r > 0.0).all()

    def test_duplicate_player_rejected(self):
        state = EngineState(ids=["a"], rating=[1200.0], num_rounds=[0])
        division = DivisionResult(division=1, entries=[("a", 1.0), ("a", 2.0)])
        with pytest.raises(InputError, match="player 'a' appears twice"):
            rate_division(division, state, ELO)

    def test_unregistered_player_rejected(self):
        division, _ = two_player_division()
        state = EngineState(ids=["a"], rating=[1200.0], num_rounds=[0])
        with pytest.raises(InputError):
            rate_division(division, state, ELO)

    def test_non_finite_score_rejected(self):
        division, state = two_player_division(math.nan, 2.0)
        with pytest.raises(InputError):
            rate_division(division, state, ELO)

    def test_pure_no_state_mutation(self):
        division, state = two_player_division()
        rate_division(division, state, ELO)
        assert state.players == {"a": PlayerState(1200.0, 0), "b": PlayerState(1200.0, 0)}

    def test_entry_order_never_matters(self):
        state = EngineState(ids=["a", "b", "c"], rating=[1100.0, 1300.0, 1500.0],
                            num_rounds=[3, 7, 1])
        forward = DivisionResult(1, [("a", 3.0), ("b", 2.0), ("c", 3.0)])
        backward = DivisionResult(1, list(reversed(forward.entries)))
        out_f = rate_division(forward, state, ELO)
        out_b = rate_division(backward, state, ELO)
        for f in fields(out_f):
            assert np.array_equal(getattr(out_f, f.name), getattr(out_b, f.name)[::-1])


class TestEngineState:
    @pytest.mark.parametrize("ids,rating,num_rounds", [
        (["a", "a"], [1.0, 2.0], [0, 0]),
        (["a", "b"], [1.0], [0, 0]),
        (["a"], [1.0], [0, 1]),
    ], ids=["repeated_id", "short_rating", "long_num_rounds"])
    def test_columns_must_match_distinct_ids(self, ids, rating, num_rounds):
        with pytest.raises(InputError, match="ids must be distinct"):
            EngineState(ids=ids, rating=rating, num_rounds=num_rounds)

    def test_round_scatters_deltas_onto_the_columns(self):
        state = EngineState(ids=["z", "a", "idle"], rating=[1300.0, 1100.0, 1500.0],
                            num_rounds=[4, 0, 9], r1=1250.0)
        division = DivisionResult(1, [("new", 2.0), ("a", 3.0), ("z", 1.0)])
        breakdown, = rate_round(RoundInput("r1", [division]), state, ELO)
        assert state.ids == ["z", "a", "idle", "new"]
        assert breakdown.rating_before.tolist() == [1250.0, 1100.0, 1300.0]
        assert state.rating.tolist() == [
            1300.0 + breakdown.delta_r[2], 1100.0 + breakdown.delta_r[1], 1500.0,
            1250.0 + breakdown.delta_r[0]]
        assert state.num_rounds.tolist() == [5, 1, 9, 1]
        assert (state.params, state.last_round_id) == (ELO, "r1")


class TestRateRound:
    def test_registers_new_players_at_current_r1(self):
        state = EngineState(r1=1263.0)
        round_input = RoundInput("r1", [DivisionResult(1, [("a", 2.0), ("b", 1.0)])])
        rate_round(round_input, state, ELO)
        # both started from 1263, so the changes are symmetric around it
        assert state.players["a"].rating > 1263.0 > state.players["b"].rating

    def test_empty_round_only_advances_inflation(self):
        state = EngineState.fresh(ELO2)
        rate_round(RoundInput("r1", [DivisionResult(1, [])]), state, ELO2)
        assert state.players == {}
        assert state.rounds_processed == 1
        assert state.r1 == 1200.0 + 0.63

    def test_division_order_is_irrelevant(self):
        def run(order):
            state = EngineState.fresh(ELO)
            divisions = [DivisionResult(1, [("a", 2.0), ("b", 1.0)]),
                         DivisionResult(2, [("c", 9.0), ("d", 1.0), ("e", 5.0)])]
            rate_round(RoundInput("r1", order(divisions)), state, ELO)
            return {pid: p.rating for pid, p in state.players.items()}

        assert run(lambda d: d) == run(lambda d: list(reversed(d)))

    def test_player_in_two_divisions_rejected(self):
        state = EngineState.fresh(ELO)
        round_input = RoundInput("r1", [DivisionResult(1, [("a", 1.0), ("b", 3.0)]),
                                        DivisionResult(2, [("b", 2.0), ("a", 2.0)])])
        with pytest.raises(InputError, match="player 'b' appears twice in round 'r1'"):
            rate_round(round_input, state, ELO)

    def test_inflation_advances_once_per_round_not_per_division(self):
        state = EngineState.fresh(ELO2)
        round_input = RoundInput("r1", [DivisionResult(1, [("a", 1.0)]),
                                        DivisionResult(2, [("b", 2.0)])])
        rate_round(round_input, state, ELO2)
        assert state.rounds_processed == 1
        assert state.r1 == 1200.0 + 0.63 * 1

    def test_num_rounds_increment(self):
        state = EngineState.fresh(ELO)
        for n in range(1, 4):
            rate_round(RoundInput(f"r{n}", [DivisionResult(1, [("a", 2.0), ("b", 1.0)])]),
                       state, ELO)
            assert state.players["a"].num_rounds == n


class TestParamsAndProfiles:
    def test_elo_profile_values(self):
        assert ELO == RatingParams(k_factor=600.0, variance_weight=4.0,
                                   perf_cap=6.75, bonus=0.0, inflation=0.0,
                                   initial_rating=1200.0, weight_exponent=0.5)

    def test_elo2_only_changes_bonus_and_inflation(self):
        assert ELO2.bonus == 27.0
        assert ELO2.inflation == 63.0
        assert (ELO2.k_factor, ELO2.variance_weight, ELO2.perf_cap) == \
            (ELO.k_factor, ELO.variance_weight, ELO.perf_cap)

    @pytest.mark.parametrize("kwargs", [
        dict(k_factor=0.0), dict(k_factor=-5.0), dict(perf_cap=0.0),
        dict(variance_weight=-1.0), dict(bonus=-1.0), dict(inflation=-0.1),
        dict(weight_exponent=1.5), dict(weight_exponent=-0.1),
        dict(k_factor=math.inf), dict(initial_rating=math.nan),
        dict(k_factor=1.7e308),
    ])
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(InputError):
            RatingParams(**kwargs)


class TestGetOrCreatePlayer:
    def test_new_player_at_base_rating(self):
        state = EngineState.fresh(ELO)
        assert get_or_create_player(state, "x") == 0
        assert (state.ids, state.index) == (["x"], {"x": 0})
        breakdown, = rate_round(RoundInput("r0", [DivisionResult(1, [("x", 1.0)])]),
                                state, ELO)
        assert breakdown.rating_before.tolist() == [1200.0]
        assert state.players == {"x": PlayerState(1200.0, 1)}

    def test_new_player_after_hundred_inflated_rounds(self):
        state = EngineState.fresh(ELO2)
        for n in range(100):
            rate_round(RoundInput(f"r{n}", [DivisionResult(1, [])]), state, ELO2)
        assert state.r1 == 1263.0
        breakdown, = rate_round(RoundInput("r100", [DivisionResult(1, [("x", 1.0)])]),
                                state, ELO2)
        assert breakdown.rating_before.tolist() == [1263.0]
        assert state.players["x"].num_rounds == 1

    def test_existing_player_untouched(self):
        state = EngineState(ids=["x"], rating=[1777.0], num_rounds=[12])
        assert get_or_create_player(state, "x") == 0
        assert state.ids == ["x"]
        assert state.players == {"x": PlayerState(1777.0, 12)}

    def test_replay_registers_each_entry_once(self):
        rounds = [
            RoundInput("r0", [DivisionResult(1, [("a", 3.0), ("b", 1.0)])]),
            RoundInput("r1", [DivisionResult(1, [("b", 2.0), ("c", 2.0)]),
                              DivisionResult(2, [("a", 5.0)])]),
        ]
        compiled = compile_history(rounds)
        # one position per distinct id, numbered in order of first appearance
        registered = []
        for compiled_round in compiled.rounds:   # new: numbered past the registry
            start = len(registered)
            registered += [player_id for player_id, i in zip(
                compiled_round.ids, compiled_round.players.tolist()) if i >= start]
        assert registered == ["a", "b", "c"]
        entries = [[registered[i] for i in compiled_round.players]
                   for compiled_round in compiled.rounds]
        assert entries == [["a", "b"], ["b", "c", "a"]]
        result = replay(compiled, ELO2)
        assert result.state.ids == registered
        assert result.state.index == {"a": 0, "b": 1, "c": 2}
        # a player first seen in round two starts at that round's r1
        compiled_round, breakdown = result.rounds[1]
        a, b = compiled_round.bounds[:2]
        assert compiled_round.ids[a:b] == ("b", "c")
        assert breakdown.nr[a:b].tolist() == [2, 1]
        assert breakdown.rating_before[a:b][1] == \
            ELO2.initial_rating + ELO2.inflation / 100.0
