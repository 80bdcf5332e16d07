"""Unit tests for the rating kernel: every documented example plus edges."""

import math
import sys

import pytest

from rankelo import (
    BITS_TO_RATING,
    DivisionResult,
    DomainError,
    EngineState,
    InputError,
    PROFILES,
    PlayerState,
    RatingParams,
    RoundInput,
    bonus_adjusted_performance,
    clamp_performance,
    get_or_create_player,
    rank_and_expected_rank,
    rank_performance,
    rate_division,
    rate_round,
    rating_delta,
    relative_performance,
    replay,
    sensitivity,
    win_probability,
)

ELO = PROFILES["elo"]
ELO2 = PROFILES["elo2"]


def two_player_division(score_a=100.0, score_b=50.0):
    players = {"a": PlayerState(1200.0), "b": PlayerState(1200.0)}
    division = DivisionResult(division=1, entries=[("a", score_a), ("b", score_b)])
    return division, players


class TestWinProbability:
    def test_equal_ratings(self):
        assert win_probability(1200.0, 1200.0) == 0.5

    def test_400_point_gap_is_ten_to_one(self):
        assert win_probability(1600.0, 1200.0) == pytest.approx(10.0 / 11.0, abs=1e-12)

    def test_frozen_value(self):
        # 1 / (1 + 10 ** 0.5), evaluated at 50-digit precision
        assert win_probability(1300.0, 1500.0) == pytest.approx(
            0.24025307335204215, abs=1e-12)

    def test_complement(self):
        for a, b in [(1200.0, 1200.0), (900.0, 2400.0), (1700.5, 1699.5)]:
            assert win_probability(a, b) + win_probability(b, a) == pytest.approx(
                1.0, abs=1e-12)

    def test_extreme_gap_stays_inside_unit_interval(self):
        high = win_probability(50000.0, -50000.0)
        low = win_probability(-50000.0, 50000.0)
        assert 0.0 < low < high < 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError):
            win_probability(bad, 1200.0)
        with pytest.raises(DomainError):
            win_probability(1200.0, bad)


class TestRankPerformance:
    def test_winner_of_eight(self):
        assert rank_performance(8, 1) == pytest.approx(3.0, abs=1e-12)

    def test_last_place(self):
        assert rank_performance(4, 4) == 0.0

    def test_half_field(self):
        assert rank_performance(6, 3) == pytest.approx(1.0, abs=1e-12)

    def test_half_integral_rank(self):
        assert rank_performance(4, 1.5) == pytest.approx(
            math.log2(4 / 1.5), abs=1e-12)

    @pytest.mark.parametrize("n,r", [(4, 0.5), (4, 5.0), (0, 1)])
    def test_out_of_range(self, n, r):
        with pytest.raises(DomainError):
            rank_performance(n, r)


class TestRankAndExpectedRank:
    def test_single_entry(self):
        division = DivisionResult(division=1, entries=[("a", 10.0)])
        assert rank_and_expected_rank(0, division, [1500.0]) == (1.0, 1.0, 1.0, 1.0)

    def test_two_way_tie(self):
        division = DivisionResult(division=1, entries=[("a", 5.0), ("b", 5.0)])
        for i in range(2):
            actual, expected, _, _ = rank_and_expected_rank(
                i, division, [1400.0, 1400.0])
            assert actual == 1.5
            assert expected == 1.5

    def test_middle_of_three_equal_ratings(self):
        division = DivisionResult(
            division=1, entries=[("a", 30.0), ("b", 20.0), ("c", 10.0)])
        actual, expected, mu, var = rank_and_expected_rank(
            1, division, [1200.0, 1200.0, 1200.0])
        assert actual == 2.0
        assert expected == pytest.approx(2.0, abs=1e-12)
        assert mu == pytest.approx(2.0, abs=1e-12)
        assert var == pytest.approx(1.5, abs=1e-12)

    def test_misaligned_ratings(self):
        division = DivisionResult(division=1, entries=[("a", 1.0), ("b", 2.0)])
        with pytest.raises(InputError):
            rank_and_expected_rank(0, division, [1200.0])


class TestRelativePerformance:
    def test_examples(self):
        assert relative_performance(2.0, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert relative_performance(3.0, 3.0) == 0.0
        assert relative_performance(4.0, 8.0) == pytest.approx(-1.0, abs=1e-12)

    def test_rejects_sub_unit_rank(self):
        with pytest.raises(DomainError):
            relative_performance(0.5, 1.0)


class TestSensitivity:
    def test_no_opponents(self):
        assert sensitivity(1.0, 1.0) == 1.0

    def test_one_even_opponent(self):
        assert sensitivity(1.5, 1.25) == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_expected_last_tends_to_one_over_n(self):
        # all opponent win probabilities at 1: mu = n, var = 1
        assert sensitivity(50.0, 1.0) == pytest.approx(1.0 / 50.0, abs=1e-12)

    @pytest.mark.parametrize("mu,var", [(0.5, 0.5), (2.0, 0.9), (2.0, 2.5)])
    def test_domain(self, mu, var):
        with pytest.raises(DomainError):
            sensitivity(mu, var)


class TestBonusAdjustedPerformance:
    def test_identity_without_bonus(self):
        assert bonus_adjusted_performance(0.5, 0.8, ELO) == 0.5

    def test_pure_bonus(self):
        got = bonus_adjusted_performance(0.0, 1.0, ELO2)
        assert got == pytest.approx(27.0 / BITS_TO_RATING, abs=1e-15)
        assert got == pytest.approx(0.2242301464048970, abs=1e-12)

    def test_frozen_mixed_value(self):
        got = bonus_adjusted_performance(-0.3, 0.5, ELO2)
        assert got == pytest.approx(-0.18788492679755152, abs=1e-12)
        assert got == pytest.approx(-0.18788, abs=1e-5)


class TestClampPerformance:
    def test_zero(self):
        assert clamp_performance(0.0, 6.75) == 0.0

    def test_at_cap_halves(self):
        assert clamp_performance(6.75, 6.75) == pytest.approx(3.375, abs=1e-12)
        assert clamp_performance(5.0, 5.0) == 2.5

    def test_odd(self):
        for p in (0.25, 1.0, 40.0):
            assert clamp_performance(-p, 6.75) == -clamp_performance(p, 6.75)

    def test_invalid_cap(self):
        with pytest.raises(DomainError):
            clamp_performance(1.0, 0.0)


class TestRatingDelta:
    def test_zero_performance(self):
        assert rating_delta(0.0, 0.5, 1, ELO) == 0.0

    def test_fourth_round_halves_first_round_delta(self):
        first = rating_delta(0.5, 0.8, 1, ELO)
        fourth = rating_delta(0.5, 0.8, 4, ELO)
        assert fourth == first / 2.0

    def test_round_number_starts_at_one(self):
        with pytest.raises(DomainError):
            rating_delta(0.5, 0.8, 0, ELO)


class TestGoldenTwoPlayerRound:
    """Hand-derived chain for two fresh 1200-rated players, 'elo' profile."""

    def test_winner_breakdown(self):
        division, players = two_player_division()
        winner = rate_division(division, players, ELO)[0]
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
        division, players = two_player_division()
        loser = rate_division(division, players, ELO)[1]
        assert loser.actual_rank == 2.0
        assert loser.expected_rank == pytest.approx(1.5, abs=1e-12)
        assert loser.perf == pytest.approx(-0.4150374992788438, abs=1e-12)
        assert loser.adjusted_perf == pytest.approx(-0.3909962956110370, abs=1e-12)
        assert loser.delta_r == pytest.approx(-54.13794862306665, abs=1e-10)
        assert loser.delta_r == pytest.approx(-54.14, abs=0.01)

    def test_round_gains_rating_on_net(self):
        division, players = two_player_division()
        results = rate_division(division, players, ELO)
        assert sum(r.delta_r for r in results) > 0.0


class TestRateDivision:
    def test_empty_division(self):
        assert rate_division(DivisionResult(1, []), {}, ELO) == []

    def test_all_tied_without_bonus_is_exactly_neutral(self):
        players = {f"p{i}": PlayerState(1000.0 + 250.0 * i, num_rounds=i)
                   for i in range(6)}
        division = DivisionResult(
            division=1, entries=[(f"p{i}", 42.0) for i in range(6)])
        for breakdown in rate_division(division, players, ELO):
            assert breakdown.delta_r == 0.0
            assert breakdown.perf == 0.0

    def test_all_tied_with_bonus_still_moves(self):
        players = {"a": PlayerState(1200.0), "b": PlayerState(1200.0)}
        division = DivisionResult(division=1, entries=[("a", 1.0), ("b", 1.0)])
        for breakdown in rate_division(division, players, ELO2):
            assert breakdown.delta_r > 0.0

    def test_duplicate_player_rejected(self):
        players = {"a": PlayerState(1200.0)}
        division = DivisionResult(division=1, entries=[("a", 1.0), ("a", 2.0)])
        with pytest.raises(InputError):
            rate_division(division, players, ELO)

    def test_unregistered_player_rejected(self):
        division, players = two_player_division()
        del players["b"]
        with pytest.raises(InputError):
            rate_division(division, players, ELO)

    def test_non_finite_score_rejected(self):
        players = {"a": PlayerState(1200.0), "b": PlayerState(1200.0)}
        division = DivisionResult(division=1, entries=[("a", math.nan), ("b", 2.0)])
        with pytest.raises(InputError):
            rate_division(division, players, ELO)

    def test_pure_no_state_mutation(self):
        division, players = two_player_division()
        rate_division(division, players, ELO)
        assert players["a"] == PlayerState(1200.0, 0)
        assert players["b"] == PlayerState(1200.0, 0)

    def test_entry_order_never_matters(self):
        players = {"a": PlayerState(1100.0, 3), "b": PlayerState(1300.0, 7),
                   "c": PlayerState(1500.0, 1)}
        forward = DivisionResult(1, [("a", 3.0), ("b", 2.0), ("c", 3.0)])
        backward = DivisionResult(1, list(reversed(forward.entries)))
        out_f = rate_division(forward, players, ELO)
        out_b = rate_division(backward, players, ELO)
        assert out_f == list(reversed(out_b))


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
        round_input = RoundInput("r1", [DivisionResult(1, [("a", 1.0)]),
                                        DivisionResult(2, [("a", 2.0)])])
        with pytest.raises(InputError):
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
    ])
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(InputError):
            RatingParams(**kwargs)


class TestGetOrCreatePlayer:
    def test_new_player_at_base_rating(self):
        players = {}
        assert get_or_create_player(players, "x", 1200.0).rating == 1200.0

    def test_new_player_after_hundred_inflated_rounds(self):
        state = EngineState.fresh(ELO2)
        for n in range(100):
            rate_round(RoundInput(f"r{n}", [DivisionResult(1, [])]), state, ELO2)
        assert state.r1 == 1263.0
        assert get_or_create_player(state.players, "x", state.r1).rating == 1263.0

    def test_existing_player_untouched(self):
        players = {"x": PlayerState(1777.0, 12)}
        assert get_or_create_player(players, "x", 1200.0) is players["x"]
        assert players["x"] == PlayerState(1777.0, 12)

    def test_replay_registers_each_entry_once(self, monkeypatch):
        original = get_or_create_player
        calls = []

        def counting(players, player_id, r1):
            calls.append(player_id)
            return original(players, player_id, r1)

        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "rankelo"
                    and getattr(module, "get_or_create_player", None) is original):
                monkeypatch.setattr(module, "get_or_create_player", counting)
        rounds = [
            RoundInput("r0", [DivisionResult(1, [("a", 3.0), ("b", 1.0)])]),
            RoundInput("r1", [DivisionResult(1, [("b", 2.0), ("c", 2.0)]),
                              DivisionResult(2, [("a", 5.0)])]),
        ]
        result = replay(rounds, ELO2)
        assert sorted(calls) == sorted(obs.player_id for obs in result.observations)
        assert len(calls) == 5
        # a player first seen in round two starts at that round's r1
        newcomer = next(obs for obs in result.observations if obs.player_id == "c")
        assert newcomer.nr == 1
        assert newcomer.rating_before == ELO2.initial_rating + ELO2.inflation / 100.0
