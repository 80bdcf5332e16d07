"""Synthetic history generation and win-probability calibration."""

import io
import math
import warnings
from statistics import NormalDist

import pytest

from rankelo import (
    InputError,
    SimConfig,
    calibration_check,
    division_ranks,
    generate_history,
    write_rounds,
)


def skill_timeline(result):
    """Constant timeline using latent skills as the ratings (drift must be 0)."""
    timeline = {}
    for round_input in result.rounds:
        for division in round_input.divisions:
            for player_id, _ in division.entries:
                timeline[(round_input.round_id, player_id)] = \
                    result.skills[player_id]
    return timeline


class TestSimConfig:
    @pytest.mark.parametrize("kwargs,message", [
        (dict(players=-1, rounds=1), "players"),
        (dict(players=1, rounds=-1), "rounds"),
        (dict(players=1, rounds=1, skill_std=-1.0), "skill_std"),
        (dict(players=1, rounds=1, noise_std=-1.0), "noise_std"),
        (dict(players=1, rounds=1, noise_std=math.nan), "noise_std"),
        (dict(players=1, rounds=1, drift_std=-0.5), "drift_std"),
        (dict(players=1, rounds=1, arrival_rate=-2.0), "arrival_rate"),
        (dict(players=1, rounds=1, tie_step=-10.0), "tie_step"),
        (dict(players=1, rounds=1, participation=1.5), "participation"),
        (dict(players=1, rounds=1, participation=-0.1), "participation"),
        (dict(players=1, rounds=1, div1_fraction=2.0), "div1_fraction"),
        (dict(players=1, rounds=1, skill_mean=math.inf), "skill_mean"),
        (dict(players=1, rounds=1, seed=-1), "seed"),
    ])
    def test_validation(self, kwargs, message):
        with pytest.raises(InputError, match=message):
            SimConfig(**kwargs)

    def test_defaults_are_valid(self):
        config = SimConfig(players=3, rounds=2)
        assert config.skill_mean == 1500.0
        assert config.participation == 1.0


class TestGenerateHistory:
    def test_deterministic_for_same_seed(self):
        config = SimConfig(players=10, rounds=8, participation=0.8,
                           drift_std=5.0, arrival_rate=0.5, tie_step=25.0,
                           div1_fraction=0.3, seed=42)
        a = generate_history(config)
        b = generate_history(config)
        assert a.rounds == b.rounds
        assert a.skills == b.skills
        buf_a, buf_b = io.StringIO(), io.StringIO()
        write_rounds(a.rounds, buf_a)
        write_rounds(b.rounds, buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()

    def test_seed_changes_history(self):
        base = SimConfig(players=10, rounds=8, seed=1)
        other = SimConfig(players=10, rounds=8, seed=2)
        assert generate_history(base).rounds != generate_history(other).rounds

    def test_identifier_formats(self):
        result = generate_history(SimConfig(players=3, rounds=2, seed=0))
        assert [r.round_id for r in result.rounds] == ["r0000", "r0001"]
        assert sorted(result.skills) == ["p000000", "p000001", "p000002"]

    def test_zero_players(self):
        result = generate_history(SimConfig(players=0, rounds=5, seed=0))
        assert result.rounds == []
        assert result.skills == {}

    def test_zero_rounds(self):
        result = generate_history(SimConfig(players=4, rounds=0, seed=0))
        assert result.rounds == []
        assert len(result.skills) == 4

    def test_noiseless_scores_follow_skill(self):
        result = generate_history(SimConfig(
            players=2, rounds=30, noise_std=0.0, seed=6))
        stronger = max(result.skills, key=result.skills.get)
        for round_input in result.rounds:
            entries = dict(round_input.divisions[0].entries)
            others = [s for pid, s in entries.items() if pid != stronger]
            assert entries[stronger] > max(others)

    def test_continuous_scores_never_tie(self):
        result = generate_history(SimConfig(players=30, rounds=20, seed=3))
        for round_input in result.rounds:
            for division in round_input.divisions:
                scores = [s for _, s in division.entries]
                assert len(set(scores)) == len(scores)

    def test_tie_step_snaps_scores_and_induces_ties(self):
        result = generate_history(SimConfig(
            players=30, rounds=20, tie_step=400.0, seed=3))
        tied = 0
        for round_input in result.rounds:
            for division in round_input.divisions:
                scores = [s for _, s in division.entries]
                assert all(score % 400.0 == 0.0 for score in scores)
                tied += len(scores) - len(set(scores))
        assert tied > 0

    def test_non_finite_scores_rejected(self):
        # score / tie_step overflows to inf, and so does the snapped score
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="not finite"):
                generate_history(SimConfig(players=5, rounds=2, tie_step=1e-320))

    def test_arrivals_grow_the_pool(self):
        result = generate_history(SimConfig(
            players=5, rounds=20, arrival_rate=2.0, seed=9))
        assert len(result.skills) > 5
        sizes = [sum(len(d.entries) for d in r.divisions) for r in result.rounds]
        # full participation: every round contains the whole current pool
        assert sizes == sorted(sizes)
        assert sizes[-1] == len(result.skills)

    def test_partial_participation(self):
        config = SimConfig(players=20, rounds=30, participation=0.5, seed=5)
        result = generate_history(config)
        sizes = [sum(len(d.entries) for d in r.divisions) for r in result.rounds]
        assert min(sizes) >= 1 and max(sizes) <= 20
        assert any(size < 20 for size in sizes)
        known = set(result.skills)
        for round_input in result.rounds:
            for division in round_input.divisions:
                assert {pid for pid, _ in division.entries} <= known

    def test_division_split_sizes_and_skill_ordering(self):
        result = generate_history(SimConfig(
            players=10, rounds=6, div1_fraction=0.5, seed=8))
        for round_input in result.rounds:
            divisions = {d.division: d for d in round_input.divisions}
            assert sorted(divisions) == [1, 2]
            assert len(divisions[1].entries) == 5
            assert len(divisions[2].entries) == 5
            top = min(result.skills[pid] for pid, _ in divisions[1].entries)
            bottom = max(result.skills[pid] for pid, _ in divisions[2].entries)
            assert top >= bottom

    def test_degenerate_division_fractions_collapse_to_one(self):
        for fraction in (0.0, 1.0, 0.01):
            result = generate_history(SimConfig(
                players=4, rounds=3, div1_fraction=fraction, seed=2))
            for round_input in result.rounds:
                assert [d.division for d in round_input.divisions] == [1]


class TestMonteCarloCalibration:
    def test_win_probability_matches_simulated_frequency(self):
        # Reveal the seeded skills first (they are drawn before anything
        # else, so a zero-round run shares them with the full run), then
        # pick the score noise that makes the logistic prediction exact
        # for this pair: P(a beats b) = Phi(delta / (sqrt(2) * sigma)).
        first = generate_history(SimConfig(players=2, rounds=0, seed=23))
        skill_a = first.skills["p000000"]
        skill_b = first.skills["p000001"]
        delta = skill_a - skill_b
        _, _, mu, _ = division_ranks([1.0, 0.0], [skill_a, skill_b])
        predicted = mu[1] - 1.0     # the engine's P(a beats b)
        noise = delta / (math.sqrt(2.0) * NormalDist().inv_cdf(predicted))

        result = generate_history(SimConfig(
            players=2, rounds=100_000, noise_std=noise, seed=23))
        assert result.skills == first.skills
        assert len(result.rounds) == 100_000

        score = 0.0
        for round_input in result.rounds:
            (_, s_a), (_, s_b) = round_input.divisions[0].entries
            score += 1.0 if s_a > s_b else 0.5 if s_a == s_b else 0.0
        empirical = score / len(result.rounds)
        assert abs(empirical - predicted) < 0.01


class TestCalibrationCheck:
    def test_matched_noise_is_well_calibrated(self):
        # noise chosen so the probit outcome curve tracks the logistic
        # prediction curve (logistic(x) ~ Phi(x / 1.702))
        sigma = 400.0 / math.log(10.0) * 1.702 / math.sqrt(2.0)
        result = generate_history(SimConfig(
            players=40, rounds=400, noise_std=sigma, seed=17))
        report = calibration_check(result.rounds, skill_timeline(result))
        assert report.pairs == 400 * 40 * 39
        assert report.max_abs_deviation < 0.05
        assert not report.flagged
        assert not any(b.flagged for b in report.bins)
        assert sum(b.count for b in report.bins) == report.pairs

    def test_identical_ratings_land_in_the_middle_bin(self):
        result = generate_history(SimConfig(players=8, rounds=10, seed=4))
        timeline = {key: 1500.0 for key in skill_timeline(result)}
        report = calibration_check(result.rounds, timeline)
        middle = report.bins[5]
        assert middle.count == report.pairs
        assert middle.mean_predicted == 0.5
        assert middle.empirical == 0.5      # ordered pairs sum to one each
        assert middle.deviation == 0.0
        assert not report.flagged
        for other in report.bins[:5] + report.bins[6:]:
            assert other.count == 0
            assert other.mean_predicted is None

    def test_inverted_ratings_are_flagged(self):
        result = generate_history(SimConfig(
            players=40, rounds=100, noise_std=200.0, seed=17))
        timeline = {key: 3000.0 - rating
                    for key, rating in skill_timeline(result).items()}
        report = calibration_check(result.rounds, timeline)
        assert report.flagged
        assert report.max_abs_deviation > 0.1

    def test_flags_are_bools(self):
        result = generate_history(SimConfig(
            players=40, rounds=20, noise_std=200.0, seed=17))
        timeline = skill_timeline(result)
        inverted = {key: 3000.0 - rating for key, rating in timeline.items()}
        for ratings in (timeline, inverted):
            report = calibration_check(result.rounds, ratings)
            assert type(report.flagged) is bool
            assert type(report.max_abs_deviation) is float
            for b in report.bins:
                assert type(b.flagged) is bool
                if b.count:
                    assert type(b.deviation) is float
        assert report.flagged

    def test_empty_history(self):
        report = calibration_check([], {})
        assert report.pairs == 0
        assert report.max_abs_deviation is None
        assert not report.flagged
        assert len(report.bins) == 10

    def test_missing_timeline_entry(self):
        result = generate_history(SimConfig(players=3, rounds=1, seed=0))
        with pytest.raises(InputError, match="timeline has no rating"):
            calibration_check(result.rounds, {})

    def test_bad_bin_count(self):
        with pytest.raises(InputError, match="bins"):
            calibration_check([], {}, bins=0)

    def test_bin_edges(self):
        report = calibration_check([], {}, bins=4)
        assert [(b.lo, b.hi) for b in report.bins] == [
            (0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 1.0)]
