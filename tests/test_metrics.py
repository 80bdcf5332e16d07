"""Evaluation metrics: correlation oracles, bucketing, and system comparison."""

import math
import sys

import numpy as np
import pytest

from rankelo import (
    DivisionResult,
    EXPERIENCE_BUCKETS,
    InputError,
    PROFILES,
    RoundInput,
    RoundMetrics,
    SIZE_BUCKETS,
    SimConfig,
    aggregate_error,
    compare_systems,
    division_metrics,
    evaluate_replay,
    evaluate_timeline,
    generate_history,
    kendall_tau,
    rating_stats,
    replay,
    save_snapshot,
    spearman_rho,
)
import rankelo.rating
from rankelo.metrics import BucketRow, BucketedReport
from oracles import oracle_kendall_tau, oracle_relative_performance, oracle_spearman_rho

ELO = PROFILES["elo"]
ELO2 = PROFILES["elo2"]


def small_history(n_rounds=8, n_players=12, seed=3):
    rng = np.random.default_rng(seed)
    rounds = []
    for t in range(n_rounds):
        entries = [(f"p{i:02d}", float(rng.integers(0, 8)))
                   for i in range(n_players)]
        half = n_players // 2
        rounds.append(RoundInput(f"r{t:03d}", [
            DivisionResult(1, entries[:half]),
            DivisionResult(2, entries[half:]),
        ]))
    return rounds


def prediction_error(expected_rank, actual_rank):
    """Absolute log-rank error in bits: ``|log2(expected / actual)|``."""
    return abs(oracle_relative_performance(expected_rank, actual_rank))


class TestPredictionError:
    def test_examples(self):
        assert prediction_error(2.0, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert prediction_error(3.0, 3.0) == 0.0
        assert prediction_error(1.5, 4.0) == pytest.approx(
            1.4150374992788438, abs=1e-12)
        # two even players: |log2(1.5 / 1)| + |log2(1.5 / 2)| = 1 bit in all
        metrics = division_metrics("r1", 1, [2.0, 1.0], [1200.0, 1200.0],
                                   ["a", "b"])
        assert metrics.mean_error == pytest.approx(0.5, abs=1e-12)

    def test_symmetric_in_direction(self):
        assert prediction_error(1.5, 4.0) == prediction_error(4.0, 1.5)


class TestKendallTau:
    def test_identical_orderings(self):
        assert kendall_tau([4.0, 3.0, 2.0, 1.0], [40.0, 30.0, 20.0, 10.0]) == \
            pytest.approx(1.0, abs=1e-12)

    def test_reversed_orderings(self):
        assert kendall_tau([1.0, 2.0, 3.0], [30.0, 20.0, 10.0]) == \
            pytest.approx(-1.0, abs=1e-12)

    def test_tied_pair_matches_pair_counting_oracle(self):
        x = [1500.0, 1400.0, 1400.0, 1300.0, 1600.0]
        y = [3.0, 1.0, 4.0, 2.0, 5.0]
        assert kendall_tau(x, y) == pytest.approx(
            oracle_kendall_tau(x, y), abs=1e-12)

    @pytest.mark.parametrize("x,y", [
        ([1.0], [2.0]),
        ([1.0, 1.0, 1.0], [3.0, 2.0, 1.0]),
        ([3.0, 2.0, 1.0], [5.0, 5.0, 5.0]),
    ])
    def test_undefined_cases(self, x, y):
        assert kendall_tau(x, y) is None

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            kendall_tau([1.0, 2.0], [1.0])

    def test_random_tied_rankings_match_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(2, 60))
            x = rng.integers(0, max(2, n // 2), n).astype(float)
            y = rng.integers(0, max(2, n // 2), n).astype(float)
            want = oracle_kendall_tau(x.tolist(), y.tolist())
            got = kendall_tau(x, y)
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(13)
        x = rng.integers(0, 6, 30).astype(float)
        y = rng.integers(0, 6, 30).astype(float)
        base = kendall_tau(x, y)
        assert kendall_tau(np.exp(x / 2.0), y) == pytest.approx(base, abs=1e-12)
        assert kendall_tau(x, 100.0 * y + 7.0) == pytest.approx(base, abs=1e-12)


class TestSpearmanRho:
    def test_identical_orderings(self):
        assert spearman_rho([3.0, 1.0, 2.0], [30.0, 10.0, 20.0]) == \
            pytest.approx(1.0, abs=1e-12)

    def test_reversed_orderings(self):
        assert spearman_rho([1.0, 2.0, 3.0], [30.0, 20.0, 10.0]) == \
            pytest.approx(-1.0, abs=1e-12)

    def test_six_with_ties_matches_midrank_oracle(self):
        x = [1500.0, 1500.0, 1400.0, 1300.0, 1300.0, 1200.0]
        y = [6.0, 4.0, 4.0, 3.0, 2.0, 1.0]
        assert spearman_rho(x, y) == pytest.approx(
            oracle_spearman_rho(x, y), abs=1e-12)

    def test_undefined_cases(self):
        assert spearman_rho([1.0], [1.0]) is None
        assert spearman_rho([2.0, 2.0], [1.0, 3.0]) is None

    def test_random_tied_rankings_match_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(60):
            n = int(rng.integers(2, 60))
            x = rng.integers(0, max(2, n // 2), n).astype(float)
            y = rng.integers(0, max(2, n // 2), n).astype(float)
            want = oracle_spearman_rho(x.tolist(), y.tolist())
            got = spearman_rho(x, y)
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, abs=1e-12)


class TestDivisionMetrics:
    def test_perfectly_predicted_division(self):
        # equal ratings and tied scores: expected rank == actual rank == 2
        metrics = division_metrics("r1", 1, [5.0, 5.0, 5.0],
                                   [1500.0, 1500.0, 1500.0],
                                   player_ids=["a", "b", "c"])
        assert metrics.mean_error == 0.0
        assert metrics.kendall is None   # both sides fully tied

    def test_against_hand_computed_two_player(self):
        metrics = division_metrics("r1", 2, [10.0, 20.0], [1200.0, 1200.0],
                                   player_ids=["a", "b"])
        # both players: expected 1.5, actual 1 or 2
        want = (abs(math.log2(1.5)) + abs(math.log2(1.5 / 2.0))) / 2.0
        assert metrics.mean_error == pytest.approx(want, abs=1e-12)
        assert metrics.n == 2
        assert metrics.division == 2

    def test_empty_division_rejected(self):
        with pytest.raises(InputError):
            division_metrics("r1", 1, [], [], player_ids=[])


class TestEvaluateReplayAndTimeline:
    def test_replay_metrics_match_timeline_reconstruction(self):
        rounds = small_history()
        # Shuffled entries put tied scores out of id order, exercising the
        # (-score, id) ranking.  Six-player divisions seldom turn a ranking
        # in entry order into an ulp of difference, so several shuffles run.
        histories = [rounds]
        for seed in range(4):
            rng = np.random.default_rng(seed)
            histories.append([RoundInput(r.round_id, [
                DivisionResult(d.division, [d.entries[i] for i in
                                            rng.permutation(len(d.entries))])
                for d in r.divisions]) for r in rounds])
        for history in histories:
            result = replay(history, ELO)
            via_replay = evaluate_replay(result)

            timeline = {(record.round_id, player_id): rating
                        for record in result.divisions
                        for player_id, rating in zip(
                            record.player_ids, record.breakdown.rating_before.tolist())}
            via_timeline = evaluate_timeline(history, timeline)

            assert len(via_replay) == len(via_timeline) == 16
            for a, b in zip(via_replay, via_timeline):
                # identical inputs and summation order: bit-for-bit equal
                assert (a.round_id, a.division, a.n) == (b.round_id, b.division, b.n)
                assert a.mean_error == b.mean_error
                assert a.kendall == b.kendall
                assert a.spearman == b.spearman

    def test_replay_metrics_reuse_the_engine_errors(self, monkeypatch):
        result = replay(small_history(), ELO)

        def forbidden(*args, **kwargs):
            raise AssertionError("evaluate_replay ran a second rank pass")

        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "rankelo" and getattr(
                    module, "division_ranks", None) is rankelo.rating.division_ranks):
                monkeypatch.setattr(module, "division_ranks", forbidden)
        metrics = evaluate_replay(result)
        for m, division in zip(metrics, result.divisions):
            assert m.mean_error == division.error_sum / m.n

    def test_replay_without_divisions_rejected(self):
        result = replay(small_history(), ELO, keep_observations=False)
        with pytest.raises(InputError):
            evaluate_replay(result)

    def test_missing_timeline_rating_rejected(self):
        rounds = small_history(n_rounds=1)
        with pytest.raises(InputError, match="p00"):
            evaluate_timeline(rounds, {})


class TestAggregateError:
    def test_bucket_labels_are_stable(self):
        assert [label for label, _, _ in EXPERIENCE_BUCKETS] == [
            "First round", "2-7 rounds", "8-24 rounds", "25-74 rounds",
            "75-199 rounds", "200+ rounds"]
        assert [label for label, _, _ in SIZE_BUCKETS] == [
            "2-16 players", "17-99 players", "100-199 players",
            "200-399 players", "400-599 players", "600-799 players",
            "800+ players"]

    def test_single_observation(self):
        rounds = [RoundInput("r1", [DivisionResult(1, [("a", 1.0)])])]
        report = aggregate_error(replay(rounds, ELO).divisions)
        assert report.row("All").count == 1
        assert report.row("All").mean_error == 0.0
        assert report.row("First round").count == 1

    def test_empty_stream(self):
        assert aggregate_error([]).rows == ()

    def test_experience_bucket_edges(self):
        rounds = []
        # one two-player division per round so p-old accumulates rounds
        for t in range(30):
            rounds.append(RoundInput(f"r{t:03d}", [DivisionResult(
                1, [("old", float(t % 3)), ("older", float((t + 1) % 3))])]))
        report = aggregate_error(replay(rounds, ELO).divisions)
        # rounds 1..30 for each player: 1 first, 6 in 2-7, 17 in 8-24, 6 in 25-74
        assert report.row("First round").count == 2
        assert report.row("2-7 rounds").count == 12
        assert report.row("8-24 rounds").count == 34
        assert report.row("25-74 rounds").count == 12
        assert report.row("Existing").count == 58
        assert report.row("All").count == 60

    def test_experience_buckets_partition_the_all_row(self):
        result = replay(small_history(n_rounds=12), ELO)
        report = aggregate_error(result.divisions)
        total = sum(report.row(label).count
                    for label, _, _ in EXPERIENCE_BUCKETS
                    if any(r.label == label for r in report.rows))
        assert total == report.row("All").count

    def test_division_rows_cover_existing_players_only(self):
        result = replay(small_history(n_rounds=10), ELO)
        report = aggregate_error(result.divisions)
        existing = report.row("Existing").count
        by_division = sum(r.count for r in report.rows
                          if r.label.startswith("Division "))
        assert by_division == existing
        for division in (1, 2):
            division_count = report.row(f"Division {division}").count
            halves = sum(r.count for r in report.rows
                         if r.label.startswith(f"D{division} "))
            assert halves == division_count

    def test_half_split_midpoint_goes_to_bottom(self):
        # 3 players: winner rank 1 -> top half (1 <= 1.5); middle rank 2 -> bottom
        rounds = [
            RoundInput("r1", [DivisionResult(1, [("a", 3.0), ("b", 2.0), ("c", 1.0)])]),
            RoundInput("r2", [DivisionResult(1, [("a", 3.0), ("b", 2.0), ("c", 1.0)])]),
        ]
        report = aggregate_error(replay(rounds, ELO).divisions)
        assert report.row("D1 H1").count == 1  # only the round-2 winner
        assert report.row("D1 H2").count == 2

    def test_every_bucket_sums_in_replay_order(self):
        # overlapping custom buckets: an entry lands in the first that matches
        buckets = (("Early", 1, 3), ("Overlap", 2, 5), ("Late", 4, None))
        result = replay(small_history(n_rounds=10), ELO2)
        report = aggregate_error(result.divisions, experience_buckets=buckets)

        sums: dict[str, list] = {}

        def add(label, delta, perf):
            acc = sums.setdefault(label, [0, 0.0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += delta
            acc[2] += perf
            acc[3] += abs(perf)

        for record in result.divisions:
            b = record.breakdown
            n = len(record.player_ids)
            for nr, delta, perf, actual in zip(b.nr.tolist(), b.delta_r.tolist(),
                                               b.perf.tolist(), b.actual_rank.tolist()):
                add("All", delta, perf)
                label = next(label for label, lo, hi in buckets
                             if nr >= lo and (hi is None or nr <= hi))
                add(label, delta, perf)
                if nr < 2:
                    continue
                add("Existing", delta, perf)
                add(f"Division {record.division}", delta, perf)
                add(f"D{record.division} H{1 if actual <= n / 2 else 2}", delta, perf)
        assert sorted(report.labels()) == sorted(sums)
        for label, (count, delta, perf, error) in sums.items():
            row = report.row(label)
            assert (row.count, row.mean_delta_r, row.mean_perf, row.mean_error) == \
                (count, delta / count, perf / count, error / count)

    def test_merge_is_count_weighted(self):
        result = replay(small_history(n_rounds=10), ELO)
        records = result.divisions
        even = [r for r in records if r.round_index % 2 == 0]
        odd = [r for r in records if r.round_index % 2 == 1]
        whole = aggregate_error(records)
        part_a = aggregate_error(even)
        part_b = aggregate_error(odd)
        for label in whole.labels():
            counts, sums = [], []
            for part in (part_a, part_b):
                rows = [r for r in part.rows if r.label == label]
                if rows:
                    counts.append(rows[0].count)
                    sums.append(rows[0].mean_error * rows[0].count)
            assert sum(counts) == whole.row(label).count
            assert sum(sums) / sum(counts) == pytest.approx(
                whole.row(label).mean_error, abs=1e-12)


class TestReplayRetention:
    def test_keep_observations_only_decides_retention(self, tmp_path):
        rounds = generate_history(SimConfig(
            players=80, rounds=25, participation=0.6, div1_fraction=0.3,
            tie_step=50.0, arrival_rate=2.0, seed=8)).rounds
        kept = replay(rounds, ELO2)
        lean = replay(rounds, ELO2, keep_observations=False)
        for name, result in (("kept", kept), ("lean", lean)):
            save_snapshot(result.state, tmp_path / f"{name}.snap")
        assert (tmp_path / "kept.snap").read_bytes() == \
            (tmp_path / "lean.snap").read_bytes()
        assert kept.state == lean.state
        for name in ("mean_error", "delta_mean", "delta_std", "delta_max",
                     "round_errors", "count"):
            assert getattr(kept, name) == getattr(lean, name), name
        assert lean.divisions == []
        assert sum(len(r.player_ids) for r in kept.divisions) == kept.count > 0


def metrics_row(round_id, division, n, err, tau, rho):
    return RoundMetrics(round_id=round_id, division=division, n=n,
                        mean_error=err, kendall=tau, spearman=rho)


class TestCompareSystems:
    def test_self_comparison_is_even(self):
        rows = [metrics_row(f"r{i}", 1 + i % 2, 20 + i, 0.5 + i / 100.0,
                            0.3, 0.4) for i in range(10)]
        report = compare_systems(rows, list(rows))
        for row in report.rows:
            assert row.kendall == 0.5
            assert row.spearman == 0.5
            assert row.error == 0.5

    def test_strictly_better_everywhere(self):
        a = [metrics_row(f"r{i}", 1, 30, 0.4, 0.8, 0.9) for i in range(4)]
        b = [metrics_row(f"r{i}", 1, 30, 0.6, 0.5, 0.6) for i in range(4)]
        report = compare_systems(a, b)
        assert report.row("All").kendall == 1.0
        assert report.row("All").spearman == 1.0
        assert report.row("All").error == 1.0

    def test_win_tie_loss_averages_to_half(self):
        a = [metrics_row("r1", 1, 30, 0.4, None, None),
             metrics_row("r2", 1, 30, 0.5, None, None),
             metrics_row("r3", 1, 30, 0.6, None, None)]
        b = [metrics_row("r1", 1, 30, 0.5, None, None),
             metrics_row("r2", 1, 30, 0.5, None, None),
             metrics_row("r3", 1, 30, 0.5, None, None)]
        report = compare_systems(a, b)
        assert report.row("All").error == pytest.approx(0.5)
        assert report.row("All").kendall is None

    def test_undefined_correlations_shrink_that_denominator_only(self):
        a = [metrics_row("r1", 1, 30, 0.4, 0.9, 0.9),
             metrics_row("r2", 1, 30, 0.4, None, 0.2)]
        b = [metrics_row("r1", 1, 30, 0.5, 0.1, 0.1),
             metrics_row("r2", 1, 30, 0.5, 0.3, 0.9)]
        report = compare_systems(a, b)
        assert report.row("All").kendall == 1.0      # only r1 counts
        assert report.row("All").spearman == 0.5     # one win, one loss
        assert report.row("All").error == 1.0

    def test_size_buckets(self):
        a = [metrics_row("r1", 1, 10, 0.4, 0.2, 0.2),
             metrics_row("r2", 1, 500, 0.4, 0.2, 0.2)]
        b = [metrics_row("r1", 1, 10, 0.5, 0.1, 0.1),
             metrics_row("r2", 1, 500, 0.3, 0.3, 0.3)]
        report = compare_systems(a, b)
        assert report.row("2-16 players").rounds == 1
        assert report.row("400-599 players").rounds == 1
        assert report.row("2-16 players").error == 1.0
        assert report.row("400-599 players").error == 0.0

    def test_mismatched_round_sets_rejected(self):
        a = [metrics_row("r1", 1, 30, 0.4, None, None)]
        b = [metrics_row("r2", 1, 30, 0.4, None, None)]
        with pytest.raises(InputError):
            compare_systems(a, b)

    def test_mismatched_player_counts_rejected(self):
        a = [metrics_row("r1", 1, 30, 0.4, None, None)]
        b = [metrics_row("r1", 1, 31, 0.4, None, None)]
        with pytest.raises(InputError):
            compare_systems(a, b)


class TestRatingStats:
    def test_single_round_two_players(self):
        rounds = [RoundInput("r1", [DivisionResult(1, [("a", 2.0), ("b", 1.0)])])]
        result = replay(rounds, ELO)
        stats = rating_stats(result)
        deltas = result.divisions[0].breakdown.delta_r.tolist()
        assert stats.count == 2
        assert stats.delta_mean == pytest.approx(sum(deltas) / 2.0, abs=1e-12)
        assert stats.delta_max == pytest.approx(max(deltas), abs=1e-12)
        assert stats.initial_rating == 1200.0

    def test_sigma_zero_for_identical_deltas(self):
        rounds = [RoundInput("r1", [DivisionResult(1, [("a", 1.0)])])]
        stats = rating_stats(replay(rounds, ELO))
        assert stats.count == 1
        assert stats.delta_mean == 0.0
        assert stats.delta_std == 0.0
        assert stats.delta_max == 0.0

    def test_empty_history(self):
        stats = rating_stats(replay([], ELO))
        assert stats.count == 0
        assert stats.mean_error is None
        assert stats.rating_median is None

    def test_matches_one_pass_oracle_recomputation(self):
        result = replay(small_history(n_rounds=10), ELO)
        stats = rating_stats(result)
        deltas = [delta for record in result.divisions
                  for delta in record.breakdown.delta_r.tolist()]
        errors = [abs(perf) for record in result.divisions
                  for perf in record.breakdown.perf.tolist()]
        mean = sum(deltas) / len(deltas)
        sigma = math.sqrt(sum((d - mean) ** 2 for d in deltas) / len(deltas))
        assert stats.mean_error == pytest.approx(
            sum(errors) / len(errors), abs=1e-12)
        assert stats.delta_mean == pytest.approx(mean, abs=1e-12)
        assert stats.delta_std == pytest.approx(sigma, abs=1e-9)
        assert stats.delta_max == max(deltas)
        ratings = sorted(p.rating for p in result.state.players.values())
        assert stats.rating_max == ratings[-1]
        assert stats.rating_median == pytest.approx(
            float(np.median(ratings)), abs=1e-12)

    def test_report_row_lookup(self):
        report = BucketedReport(rows=(BucketRow("All", 1, 0.0, 0.0, 0.7),))
        assert report.row("All").mean_error == 0.7
        with pytest.raises(KeyError):
            report.row("nope")
