"""Property-based tests for the rating kernel invariants."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankelo import (
    DivisionResult,
    EngineState,
    PROFILES,
    division_ranks,
    rate_division,
)
from rankelo.replay import fold
from oracles import oracle_relative_performance, oracle_sigmoid_cap

ELO = PROFILES["elo"]

ratings_st = st.floats(min_value=0.0, max_value=3500.0)
rank_st = st.floats(min_value=1.0, max_value=1000.0)


def win_probability(r_a, r_b):
    """P(a beats b), read off a two-entry division: mu of b is 1 + P(a beats b)."""
    _, _, mu, _ = division_ranks([1.0, 0.0], [r_a, r_b])
    return mu[1] - 1.0


@st.composite
def division_cases(draw, min_n=1, max_n=12, tie_heavy=True):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    ratings = draw(st.lists(ratings_st, min_size=n, max_size=n))
    if tie_heavy:
        scores = draw(st.lists(st.integers(0, 4).map(float), min_size=n,
                               max_size=n))
    else:
        scores = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
    rounds = draw(st.lists(st.integers(0, 400), min_size=n, max_size=n))
    state = EngineState(ids=[f"p{i}" for i in range(n)], rating=ratings,
                        num_rounds=rounds)
    division = DivisionResult(
        division=1, entries=[(f"p{i}", scores[i]) for i in range(n)])
    return division, state


class TestWinCurveProperties:
    @given(a=ratings_st, b=ratings_st)
    def test_complement(self, a, b):
        assert win_probability(a, b) + win_probability(b, a) == pytest.approx(
            1.0, abs=1e-12)

    @given(a=ratings_st, b=ratings_st, shift=st.floats(-2000.0, 2000.0))
    def test_translation_invariance(self, a, b, shift):
        assert win_probability(a + shift, b + shift) == pytest.approx(
            win_probability(a, b), abs=1e-12)

    @given(a=ratings_st, b=ratings_st)
    def test_bounded_and_ordered(self, a, b):
        p = win_probability(a, b)
        assert 0.0 < p < 1.0
        # strictness needs the gap to survive the exponential's precision;
        # sub-nano-point gaps legitimately round to an even match
        if a > b:
            assert p >= 0.5
            if a - b > 1e-9:
                assert p > 0.5
        elif a < b:
            assert p <= 0.5
            if b - a > 1e-9:
                assert p < 0.5


class TestLogRankIdentities:
    @given(a=rank_st, b=rank_st, c=rank_st)
    def test_three_cycle_cancels(self, a, b, c):
        total = (oracle_relative_performance(a, b)
                 + oracle_relative_performance(b, c)
                 + oracle_relative_performance(c, a))
        assert total == pytest.approx(0.0, abs=1e-12)

    @given(r=st.floats(1.0, 100.0), x=st.floats(1.0, 3.0),
           k=st.integers(2, 4))
    def test_power_scaling(self, r, x, k):
        assert oracle_relative_performance(r, r * x ** k) == pytest.approx(
            k * oracle_relative_performance(r, r * x), abs=1e-12)

    @given(expected=rank_st, actual=rank_st, scale=st.floats(1.0, 50.0))
    def test_scale_invariance(self, expected, actual, scale):
        assert oracle_relative_performance(scale * expected, scale * actual) == \
            pytest.approx(oracle_relative_performance(expected, actual), abs=1e-12)


class TestSigmoidCapProperties:
    @settings(deadline=None)
    @given(p=st.floats(-100.0, 100.0), cap=st.floats(0.5, 20.0),
           case=division_cases())
    def test_bounded_and_near_linear_at_origin(self, p, cap, case):
        capped = oracle_sigmoid_cap(p, cap)
        assert abs(capped) < cap or p == 0.0
        assert abs(capped - p) <= p * p / cap + 1e-12
        # the engine's cap, on the performances of a real division
        division, state = case
        b = rate_division(division, state, replace(ELO, perf_cap=cap))
        for perf, adjusted in zip(b.perf.tolist(), b.adjusted_perf.tolist()):
            assert abs(adjusted) < cap or perf == 0.0
            assert abs(adjusted - perf) <= perf * perf / cap + 1e-12

    def test_strictly_monotone_on_dense_grid(self):
        grid = [x / 50.0 for x in range(-1000, 1001)]
        values = [oracle_sigmoid_cap(p, 6.75) for p in grid]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(abs(v) < 6.75 for v in values)
        # within one division the engine's adjusted_perf is monotone in perf
        rng = np.random.default_rng(11)
        n = 300
        ratings = rng.uniform(0.0, 3500.0, n)
        state = EngineState(ids=[f"p{i:03d}" for i in range(n)], rating=ratings,
                            num_rounds=[0] * n)
        division = DivisionResult(1, [(f"p{i:03d}", float(s))
                                      for i, s in enumerate(rng.permutation(n))])
        b = rate_division(division, state, ELO)
        pairs = sorted(zip(b.perf.tolist(), b.adjusted_perf.tolist()))
        assert len({perf for perf, _ in pairs}) == n
        assert all(a[1] < b[1] for a, b in zip(pairs, pairs[1:]))
        assert all(abs(adjusted) < 6.75 for _, adjusted in pairs)


class TestDivisionProperties:
    @settings(deadline=None)
    @given(case=division_cases())
    def test_sensitivity_within_bounds(self, case):
        division, state = case
        n = len(division.entries)
        b = rate_division(division, state, ELO)
        assert b.sensitivity.size == n
        assert (1.0 / n - 1e-12 <= b.sensitivity).all()
        assert (b.sensitivity <= 1.0 + 1e-12).all()

    @settings(deadline=None)
    @given(case=division_cases())
    def test_rank_fields_within_bounds(self, case):
        division, state = case
        n = len(division.entries)
        b = rate_division(division, state, ELO)
        assert ((1.0 <= b.actual_rank) & (b.actual_rank <= n)).all()
        assert ((1.0 - 1e-12 <= b.expected_rank)
                & (b.expected_rank <= n + 1e-12)).all()
        assert (np.abs(b.adjusted_perf) < ELO.perf_cap).all()

    @settings(deadline=None)
    @given(n=st.integers(2, 12), data=st.data())
    def test_performance_sum_nonnegative_without_ties(self, n, data):
        # exact inequality for distinct scores, whatever the ratings
        ratings = data.draw(st.lists(ratings_st, min_size=n, max_size=n))
        scores = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n,
                                    max_size=n, unique=True))
        state = EngineState(ids=[f"p{i}" for i in range(n)], rating=ratings,
                            num_rounds=[0] * n)
        division = DivisionResult(
            division=1, entries=[(f"p{i}", scores[i]) for i in range(n)])
        total = sum(rate_division(division, state, ELO).perf.tolist())
        assert total >= -1e-9

    def test_tie_splitting_admits_small_negative_sums(self):
        # The no-ties inequality does not survive the half-split tie
        # convention in full generality: a tie group spanning a large
        # rating gap can push the round total slightly below zero.
        state = EngineState(ids=["p0", "p1", "p2", "p3", "p4"],
                            rating=[0.0, 644.0, 0.0, 0.0, 0.0], num_rounds=[0] * 5)
        tied = DivisionResult(1, [("p0", 0.0), ("p1", 1.0), ("p2", 2.0),
                                  ("p3", 2.0), ("p4", 2.0)])
        total = sum(rate_division(tied, state, ELO).perf.tolist())
        assert total == pytest.approx(-1.159165525488e-4, abs=1e-12)
        # breaking the tie restores the inequality on the same inputs
        untied = DivisionResult(1, [("p0", 0.0), ("p1", 1.0), ("p2", 2.0),
                                    ("p3", 3.0), ("p4", 4.0)])
        total = sum(rate_division(untied, state, ELO).perf.tolist())
        assert total >= -1e-9

    @settings(deadline=None)
    @given(case=division_cases(), data=st.data())
    def test_permutation_equivariance_is_bitwise(self, case, data):
        division, state = case
        perm = data.draw(st.permutations(range(len(division.entries))))
        shuffled = DivisionResult(
            division=1, entries=[division.entries[i] for i in perm])
        base = rate_division(division, state, ELO)
        out = rate_division(shuffled, state, ELO)
        for f in fields(base):
            assert np.array_equal(getattr(out, f.name), getattr(base, f.name)[perm])

    @settings(deadline=None)
    @given(n=st.integers(1, 20),
           score=st.floats(-1e6, 1e6),
           data=st.data())
    def test_all_tied_division_is_exactly_neutral(self, n, score, data):
        ratings = data.draw(st.lists(ratings_st, min_size=n, max_size=n))
        state = EngineState(ids=[f"p{i}" for i in range(n)], rating=ratings,
                            num_rounds=[i % 7 for i in range(n)])
        division = DivisionResult(
            division=1, entries=[(f"p{i}", score) for i in range(n)])
        b = rate_division(division, state, ELO)
        assert b.perf.tolist() == [0.0] * n
        assert b.delta_r.tolist() == [0.0] * n
        assert np.array_equal(b.actual_rank, b.expected_rank)

    @settings(deadline=None)
    @given(case=division_cases(tie_heavy=False))
    def test_deltas_sorted_against_expectation_gap(self, case):
        # a strictly positive perf never yields a negative delta and vice versa
        division, state = case
        b = rate_division(division, state, ELO)
        assert np.array_equal(np.sign(b.delta_r), np.sign(b.perf))


def loop_sum(total, values):
    for value in values.tolist():
        total += value
    return total


class TestFold:
    """``fold`` is a Python ``+=`` loop, bit for bit."""

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 10**5),
           total=st.floats(-1e12, 1e12).filter(lambda t: t != 0.0))
    def test_matches_a_loop_over_mixed_magnitudes(self, seed, n, total):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(n) * 10.0 ** rng.uniform(-12.0, 12.0, n)
        folded = fold(total, values)
        assert type(folded) is float
        assert folded.hex() == loop_sum(total, values).hex()

    def test_order_matters_and_is_kept(self):
        # (1e16 + 1) + 1 rounds twice; 1e16 + (1 + 1) would not
        values = np.array([1.0, 1.0])
        assert fold(1e16, values) == loop_sum(1e16, values) == 1e16
        assert fold(0.0, np.array([])) == 0.0
        assert fold(-0.0, np.array([-0.0])).hex() == (-0.0).hex()
