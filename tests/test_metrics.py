"""Evaluation metrics: correlation oracles, bucketing, and system comparison."""

import hashlib
import io
import math
import sys
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    write_replay_log,
)
import rankelo.rating
from rankelo.replay import compile_history, division_errors, fold
from rankelo.metrics import BucketRow, ComparisonRow, Report, _correlations
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


def pre_round_timeline(result):
    """``(round_id, player_id) -> rating_before`` of every kept round."""
    return {(compiled.round_id, player_id): rating
            for compiled, breakdown in result.rounds
            for player_id, rating in zip(compiled.ids, breakdown.rating_before.tolist())}


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


# Input to the correlation functions that is not two 1-D sequences of
# numbers of one length.
NOT_TWO_ALIGNED_SEQUENCES = [
    ([1.0, 2.0], [1.0]),
    (1.0, 2.0),
    ([[1, 2], [3, 4]], [[1, 2], [3, 4]]),
    ([[1, 2, 3]], [[3, 2, 1]]),
    ([[1, 2], [3]], [1, 2]),
    (["a", "b"], [1, 2]),
]
NOT_TWO_ALIGNED_SEQUENCE_IDS = ["unequal_lengths", "scalars", "square_matrices",
                                "one_row_matrices", "ragged", "not_numbers"]


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

    @pytest.mark.parametrize("x,y", NOT_TWO_ALIGNED_SEQUENCES,
                             ids=NOT_TWO_ALIGNED_SEQUENCE_IDS)
    def test_length_mismatch(self, x, y):
        with pytest.raises(InputError):
            kendall_tau(x, y)

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

    @pytest.mark.parametrize("x,y", NOT_TWO_ALIGNED_SEQUENCES,
                             ids=NOT_TWO_ALIGNED_SEQUENCE_IDS)
    def test_length_mismatch(self, x, y):
        with pytest.raises(InputError):
            spearman_rho(x, y)

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


# Sizes around the merge count's power-of-two levels, up to a real division.
MERGE_SIZES = (2, 3, 63, 64, 65, 255, 256, 257, 700)


def division_like(n, tied, seed):
    """Ratings and scores of one division: scores on a 25-point grid
    (tie-heavy) or distinct (tie-free)."""
    rng = np.random.default_rng(seed)
    ratings = rng.normal(1500.0, 300.0, n)
    if tied:
        scores = 25.0 * np.round(rng.normal(ratings / 25.0, 8.0))
        ratings = np.round(ratings / 50.0) * 50.0
    else:
        scores = rng.permutation(n).astype(float)
    return ratings.tolist(), scores.tolist()


@pytest.mark.parametrize("tied", [True, False], ids=["tie_heavy", "tie_free"])
@pytest.mark.parametrize("n", MERGE_SIZES)
def test_correlations_match_oracles_across_merge_levels(n, tied):
    x, y = division_like(n, tied, seed=n)
    for impl, oracle in ((kendall_tau, oracle_kendall_tau),
                         (spearman_rho, oracle_spearman_rho)):
        want = oracle(x, y)
        got = impl(x, y)
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=1e-12)


def bits(value):
    """A float's exact bits (``-0.0`` apart from ``0.0``); anything else as is."""
    return float(value).hex() if isinstance(value, float) else value


@st.composite
def division_layouts(draw):
    """(ratings, scores) per division: one entry, fully tied on one side or
    both, NaN-bearing, distinct, or drawn from a five-value pool; a division
    may open with the previous one's last pair, so equal ratings and scores
    sit on both sides of its boundary."""
    pool = st.sampled_from([0.0, -0.0, 1.0, 2.0, 5.0])
    divisions = []
    for kind in draw(st.lists(st.sampled_from(["single", "tied", "nan", "pool",
                                               "distinct"]), min_size=1, max_size=8)):
        n = 1 if kind == "single" else draw(st.integers(2, 30))
        if kind == "distinct":
            ratings = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n,
                                    unique=True))
            scores = [float(v) for v in draw(st.permutations(range(n)))]
        else:
            ratings, scores = (draw(st.lists(pool, min_size=n, max_size=n))
                               for _ in range(2))
        if kind == "tied":
            for side in draw(st.sampled_from([[ratings], [scores], [ratings, scores]])):
                side[:] = side[:1] * n
        if kind == "nan":
            for _ in range(draw(st.integers(1, 3))):
                side = draw(st.sampled_from([ratings, scores]))
                side[draw(st.integers(0, n - 1))] = math.nan
        if divisions and draw(st.booleans()):
            ratings[0], scores[0] = divisions[-1][0][-1], divisions[-1][1][-1]
        divisions.append((ratings, scores))
    return divisions


@settings(max_examples=200, deadline=None)
@given(division_layouts())
def test_history_pass_is_each_division_alone(divisions):
    ratings = np.array([r for x, _ in divisions for r in x])
    scores = np.array([s for _, y in divisions for s in y])
    bounds = np.cumsum([0] + [len(x) for x, _ in divisions])
    kendall, spearman = _correlations(ratings, scores, bounds)
    assert len(kendall) == len(spearman) == len(divisions)
    for (x, y), tau, rho in zip(divisions, kendall, spearman):
        assert bits(tau) == bits(kendall_tau(x, y))
        assert bits(rho) == bits(spearman_rho(x, y))
        if any(math.isnan(v) for v in x + y):
            assert tau is None and rho is None
            continue
        for got, oracle in ((tau, oracle_kendall_tau), (rho, oracle_spearman_rho)):
            want = oracle(x, y)
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, abs=1e-12)


def test_rho_past_the_exact_sum_bound():
    # Tie-free, rho's sums reach (n**3 - n) / 12: past 2**51 they round, as
    # the sums of np.corrcoef's dot product do.
    n = 320_000
    assert (n ** 3 - n) / 12 > 2 ** 51
    rng = np.random.default_rng(41)
    x = rng.normal(size=n)
    y = x + rng.normal(size=n)
    assert np.unique(x).size == np.unique(y).size == n
    midranks = [np.argsort(np.argsort(v)) + 1.0 for v in (x, y)]
    assert spearman_rho(x, y) == pytest.approx(np.corrcoef(*midranks)[0, 1], rel=1e-12)


class TestDivisionMetrics:
    @pytest.mark.parametrize("tied", [True, False], ids=["tie_heavy", "tie_free"])
    @pytest.mark.parametrize("n", [2, 3, 17, 64, 65, 300])
    def test_row_is_evaluate_timelines_row(self, n, tied):
        ratings, scores = division_like(n, tied, seed=100 + n)
        ids = [f"p{i:03d}" for i in np.random.default_rng(n).permutation(n)]
        row = division_metrics("r1", 7, scores, ratings, ids)
        timeline_row, = evaluate_timeline(
            [RoundInput("r1", [DivisionResult(7, list(zip(ids, scores)))])],
            {("r1", player_id): rating for player_id, rating in zip(ids, ratings)})
        assert list(map(bits, astuple(row))) == list(map(bits, astuple(timeline_row)))

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(InputError, match="non-finite score in division 3"):
            division_metrics("r1", 3, [1.0, bad], [1500.0, 1400.0])
        with pytest.raises(InputError, match="non-finite rating in division 3"):
            division_metrics("r1", 3, [1.0, 2.0], [bad, 1400.0], player_ids=["a", "b"])


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

            timeline = pre_round_timeline(result)
            via_timeline = evaluate_timeline(history, timeline)
            # a compiled history is the same input: the same bits
            via_compiled = evaluate_timeline(compile_history(history), timeline)
            assert repr(via_compiled) == repr(via_timeline)

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
        error_sums = []
        for compiled, breakdown in result.rounds:
            for a, b in zip(compiled.bounds, compiled.bounds[1:]):
                total = 0.0   # |perf| summed in entry order, one add at a time
                for value in np.abs(breakdown.perf[a:b]).tolist():
                    total += value
                error_sums.append(total)
        assert len(metrics) == len(error_sums)
        for m, error_sum in zip(metrics, error_sums):
            assert m.mean_error == error_sum / m.n

    def test_history_metrics_make_one_correlation_pass(self, monkeypatch):
        rounds = small_history()
        result = replay(rounds, ELO)
        timeline = pre_round_timeline(result)
        want = evaluate_replay(result), evaluate_timeline(rounds, timeline)
        assert any(m.kendall is not None for m in want[0])

        def forbidden(*args, **kwargs):
            raise AssertionError("a correlation call per division")

        for function in (kendall_tau, spearman_rho):
            for name, module in list(sys.modules.items()):
                if (name.split(".")[0] == "rankelo"
                        and getattr(module, function.__name__, None) is function):
                    monkeypatch.setattr(module, function.__name__, forbidden)
        assert (evaluate_replay(result), evaluate_timeline(rounds, timeline)) == want

    def test_replay_without_divisions_rejected(self):
        result = replay(small_history(), ELO, keep_observations=False)
        with pytest.raises(InputError):
            evaluate_replay(result)

    def test_missing_timeline_rating_rejected(self):
        rounds = small_history(n_rounds=1)
        with pytest.raises(InputError, match="p00"):
            evaluate_timeline(rounds, {})

    def test_player_in_two_divisions_of_a_round_rejected(self):
        rounds = [RoundInput("r1", [DivisionResult(1, [("a", 2.0), ("b", 1.0)]),
                                    DivisionResult(2, [("c", 2.0), ("a", 1.0)])])]
        timeline = {("r1", player_id): 1500.0 for player_id in "abc"}
        with pytest.raises(InputError, match="player 'a' appears twice in round 'r1'"):
            evaluate_timeline(rounds, timeline)


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
        report = aggregate_error(replay(rounds, ELO).rounds)
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
        report = aggregate_error(replay(rounds, ELO).rounds)
        # rounds 1..30 for each player: 1 first, 6 in 2-7, 17 in 8-24, 6 in 25-74
        assert report.row("First round").count == 2
        assert report.row("2-7 rounds").count == 12
        assert report.row("8-24 rounds").count == 34
        assert report.row("25-74 rounds").count == 12
        assert report.row("Existing").count == 58
        assert report.row("All").count == 60

    def test_experience_buckets_partition_the_all_row(self):
        result = replay(small_history(n_rounds=12), ELO)
        report = aggregate_error(result.rounds)
        total = sum(report.row(label).count
                    for label, _, _ in EXPERIENCE_BUCKETS
                    if any(r.label == label for r in report.rows))
        assert total == report.row("All").count

    def test_division_rows_cover_existing_players_only(self):
        result = replay(small_history(n_rounds=10), ELO)
        report = aggregate_error(result.rounds)
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
        report = aggregate_error(replay(rounds, ELO).rounds)
        assert report.row("D1 H1").count == 1  # only the round-2 winner
        assert report.row("D1 H2").count == 2

    def test_every_bucket_sums_in_replay_order(self):
        result = replay(small_history(n_rounds=10), ELO2)
        report = aggregate_error(result.rounds)

        sums: dict[str, list] = {}

        def add(label, delta, perf):
            acc = sums.setdefault(label, [0, 0.0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += delta
            acc[2] += perf
            acc[3] += abs(perf)

        for compiled, b in result.rounds:
            for division, start, end in zip(compiled.numbers, compiled.bounds,
                                            compiled.bounds[1:]):
                n = end - start
                for nr, delta, perf, actual in zip(
                        b.nr[start:end].tolist(), b.delta_r[start:end].tolist(),
                        b.perf[start:end].tolist(), b.actual_rank[start:end].tolist()):
                    add("All", delta, perf)
                    label = next(label for label, lo, hi in EXPERIENCE_BUCKETS
                                 if nr >= lo and (hi is None or nr <= hi))
                    add(label, delta, perf)
                    if nr < 2:
                        continue
                    add("Existing", delta, perf)
                    add(f"Division {division}", delta, perf)
                    add(f"D{division} H{1 if actual <= n / 2 else 2}", delta, perf)
        assert sorted(row.label for row in report.rows) == sorted(sums)
        for label, (count, delta, perf, error) in sums.items():
            row = report.row(label)
            assert (row.count, row.mean_delta_r, row.mean_perf, row.mean_error) == \
                (count, delta / count, perf / count, error / count)

    def test_replay_mean_error_and_all_row_are_two_folds(self):
        # The same |perf| values, grouped two ways, read differently here: the
        # replay folds each round's sum of division folds, the All row every
        # entry flat.
        result = replay(small_history(n_rounds=10), ELO2)
        per_round = [fold(0.0, [error for *_, error in division_errors(compiled, b.perf)])
                     for compiled, b in result.rounds]
        flat = np.abs(np.concatenate([b.perf for _, b in result.rounds]))
        everyone = aggregate_error(result.rounds).row("All").mean_error
        assert result.mean_error == fold(0.0, per_round) / result.count
        assert everyone == fold(0.0, flat) / flat.size
        assert result.mean_error != everyone

    def test_reads_a_one_shot_iterable(self):
        records = replay(small_history(n_rounds=10), ELO2).rounds
        assert aggregate_error(iter(records)) == aggregate_error(records)

    def test_merge_is_count_weighted(self):
        result = replay(small_history(n_rounds=10), ELO)
        records = result.rounds
        even = [r for round_index, r in enumerate(records) if round_index % 2 == 0]
        odd = [r for round_index, r in enumerate(records) if round_index % 2 == 1]
        whole = aggregate_error(records)
        part_a = aggregate_error(even)
        part_b = aggregate_error(odd)
        for label in [row.label for row in whole.rows]:
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
        for name in ("mean_error", "round_errors", "count"):
            assert getattr(kept, name) == getattr(lean, name), name
        assert lean.rounds == []
        assert len(kept.rounds) == len(rounds)   # one record per round
        assert sum(compiled.bounds[-1] for compiled, _ in kept.rounds) == kept.count > 0


class TestEmptyDivisions:
    """Empty divisions beside rated ones, and a round of one empty division.
    Every report walks the division bounds, and its bytes and rows are
    those frozen at commit ``de43363``, before the replay kept one record
    per round instead of one per non-empty division."""

    ROUNDS = [
        RoundInput("r1", [DivisionResult(2, []),
                          DivisionResult(1, [("a", 3.0), ("b", 1.0), ("c", 1.0)]),
                          DivisionResult(7, [])]),
        RoundInput("r2", [DivisionResult(1, [("b", 2.0), ("a", 2.0)]),
                          DivisionResult(9, []),
                          DivisionResult(2, [("c", 4.0), ("d", 1.0), ("e", 0.5)])]),
        RoundInput("r3", [DivisionResult(3, [])]),
        RoundInput("r4", [DivisionResult(2, [("a", 1.0), ("e", 2.0), ("d", 3.0)]),
                          DivisionResult(1, [("c", 2.0), ("b", 5.0)]),
                          DivisionResult(4, [])]),
    ]

    def test_replay_log_bytes(self):
        result = replay(self.ROUNDS, ELO2)
        log = io.StringIO()
        write_replay_log(result.rounds, log)
        rows = log.getvalue().splitlines()
        assert [tuple(row.split(",")[:3]) for row in rows[1:]] == [
            ("r1", "1", "a"), ("r1", "1", "b"), ("r1", "1", "c"),
            ("r2", "1", "b"), ("r2", "1", "a"),
            ("r2", "2", "c"), ("r2", "2", "d"), ("r2", "2", "e"),
            ("r4", "2", "a"), ("r4", "2", "e"), ("r4", "2", "d"),
            ("r4", "1", "c"), ("r4", "1", "b")]
        assert hashlib.sha256(log.getvalue().encode()).hexdigest() == \
            "f918842fe2aff43b5a18fff6f8fa19a7b23f5b9b399857aa1c0fa919c0f10be7"

    def test_evaluate_replay_rows(self):
        result = replay(self.ROUNDS, ELO2)
        assert result.round_errors[2] == ("r3", 0.0, 0)
        assert [astuple(m) for m in evaluate_replay(result)] == [
            ("r1", 1, 3, 0.5479520632582414, None, None),
            ("r2", 1, 2, 0.0, None, None),
            ("r2", 2, 3, 0.5602310447615279, -0.816496580927726, -0.8660254037844387),
            ("r4", 2, 3, 0.7700440652870272, -0.33333333333333337, -0.5),
            ("r4", 1, 2, 0.6280685720970788, -1.0, -0.9999999999999999),
        ]

    def test_aggregate_error_rows(self):
        report = aggregate_error(replay(self.ROUNDS, ELO2).rounds)
        assert [astuple(row) for row in report.rows] == [
            ("All", 13, 28.023109700069163, 0.09733391844081891, 0.5300629741626575),
            ("First round", 5, 12.910687813538255, -0.055455565306049545,
             0.4554555653060495),
            ("2-7 rounds", 8, 37.46837337915099, 0.1928273457826117, 0.5766926046980374),
            ("Existing", 8, 37.46837337915099, 0.1928273457826117, 0.5766926046980374),
            ("Division 1", 4, 19.34465605578606, 0.03964280171921436, 0.3140342860485394),
            ("D1 H1", 1, 66.87180623507881, 0.7073541755355075, 0.7073541755355075),
            ("D1 H2", 3, 3.5022726626884775, -0.18292765621955, 0.18292765621955),
            ("Division 2", 4, 55.59209070251592, 0.34601188984600906, 0.8393509233475355),
            ("D2 H1", 2, 113.5453856597357, 1.0526069680098027, 1.0526069680098027),
            ("D2 H2", 2, -2.36120425470385, -0.3605831883177846, 0.6260948786852681),
        ]


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

    def test_no_rounds_gives_an_empty_all_row(self):
        assert compare_systems([], []).rows == (
            ComparisonRow("All", 0, None, None, None),)

    def test_nan_error_is_left_out_like_an_undefined_correlation(self):
        a = [metrics_row("r1", 1, 30, math.nan, 0.9, 0.9),
             metrics_row("r2", 1, 30, 0.4, 0.9, 0.9)]
        b = [metrics_row("r1", 1, 30, 0.5, 0.1, 0.1),
             metrics_row("r2", 1, 30, 0.5, 0.1, 0.1)]
        assert compare_systems(a, b).row("All").error == 1.0   # r2 only
        assert compare_systems(b, a).row("All").error == 0.0

    def test_huge_division_numbers_group_by_value(self):
        huge = 2**64 + 1
        a = [metrics_row("r1", huge, 30, 0.4, 0.9, 0.9),
             metrics_row("r1", -huge, 30, 0.4, 0.1, 0.1)]
        b = [metrics_row("r1", huge, 30, 0.5, 0.1, 0.1),
             metrics_row("r1", -huge, 30, 0.5, 0.9, 0.9)]
        report = compare_systems(a, b)
        assert [row.label for row in report.rows] == [
            "All", f"Division {-huge}", f"Division {huge}", "17-99 players"]
        assert report.row(f"Division {huge}").kendall == 1.0
        assert report.row(f"Division {-huge}").kendall == 0.0

    def test_mismatched_round_sets_rejected(self):
        a = [metrics_row("r1", 1, 30, 0.4, None, None)]
        b = [metrics_row("r2", 1, 30, 0.4, None, None)]
        with pytest.raises(InputError):
            compare_systems(a, b)

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_repeated_round_and_division_rejected(self, side):
        once = [metrics_row("r1", 1, 30, 0.4, None, None)]
        twice = once + [metrics_row("r1", 1, 20, 0.5, None, None)]
        a, b = (twice, once) if side == "A" else (once, twice)
        with pytest.raises(InputError) as exc:
            compare_systems(a, b)
        assert str(exc.value) == f"duplicate (round, division) in system {side} metrics"

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
        deltas = result.rounds[0][1].delta_r.tolist()
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
        deltas = [delta for _, breakdown in result.rounds
                  for delta in breakdown.delta_r.tolist()]
        errors = [abs(perf) for _, breakdown in result.rounds
                  for perf in breakdown.perf.tolist()]
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

    def test_derived_statistics_are_sequential_folds(self):
        # each sum adds one value at a time in replay order: |perf| per
        # division, those per round, those over rounds; delta_r per entry
        rounds = small_history(n_rounds=10)
        assert sum(len(d.entries) - len({score for _, score in d.entries})
                   for r in rounds for d in r.divisions) > 20   # ties throughout
        result = replay(rounds, ELO2)
        stats = rating_stats(result)
        error, count, total, squares, highest = 0.0, 0, 0.0, 0.0, None
        for compiled, breakdown in result.rounds:
            round_error = 0.0
            for a, b in zip(compiled.bounds, compiled.bounds[1:]):
                division_error = 0.0
                for perf in breakdown.perf[a:b].tolist():
                    division_error += abs(perf)
                round_error += division_error
            error += round_error
            for delta in breakdown.delta_r.tolist():
                count += 1
                total += delta
                squares += delta * delta
                if highest is None or delta > highest:
                    highest = delta
        mean = total / count
        assert stats.count == result.count == count
        assert stats.mean_error == result.mean_error == error / count
        assert stats.delta_mean == mean
        assert stats.delta_std == max(squares / count - mean * mean, 0.0) ** 0.5
        assert stats.delta_max == highest

    def test_lean_replay_refused(self):
        lean = replay(small_history(), ELO, keep_observations=False)
        assert lean.mean_error is not None
        with pytest.raises(InputError, match="keep_observations=False"):
            rating_stats(lean)

    def test_report_row_lookup(self):
        report = Report(rows=(BucketRow("All", 1, 0.0, 0.0, 0.7),))
        assert report.row("All").mean_error == 0.7
        with pytest.raises(KeyError):
            report.row("nope")
