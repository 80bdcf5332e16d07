"""Parameter sweeps: grid validation, K optimization, joint descent."""

import math
from dataclasses import replace

import pytest

from rankelo import (
    InputError,
    PROFILES,
    RoundInput,
    SimConfig,
    SweepSpec,
    generate_history,
    joint_search,
    replay,
    run_sweep,
)

ELO = PROFILES["elo"]


def history(players=12, rounds=20, seed=5):
    return generate_history(SimConfig(
        players=players, rounds=rounds, participation=0.9,
        div1_fraction=0.5, seed=seed)).rounds


class TestSweepSpec:
    def test_defaults(self):
        spec = SweepSpec(target="bonus", grid=(0.0, 27.0))
        assert spec.base == ELO
        assert spec.k_range == (25.0, 1500.0)
        assert spec.k_step == 5.0

    @pytest.mark.parametrize("kwargs,message", [
        (dict(target="r1", grid=(1.0,)), "unknown sweep target"),
        (dict(target="bonus", grid=()), "grid is empty"),
        (dict(target="bonus", grid=(2.0, 1.0)), "sorted ascending"),
        (dict(target="bonus", grid=(0.0,), k_range=(0.0, 100.0)), "k_range"),
        (dict(target="bonus", grid=(0.0,), k_range=(200.0, 100.0)), "k_range"),
        (dict(target="bonus", grid=(0.0,), k_step=0.0), "k_step"),
        (dict(target="bonus", grid=(0.0,), k_step=-1.0), "k_step"),
    ])
    def test_validation(self, kwargs, message):
        with pytest.raises(InputError, match=message):
            SweepSpec(**kwargs)


class TestRunSweep:
    def test_empty_history_rejected(self):
        with pytest.raises(InputError, match="history is empty"):
            run_sweep(SweepSpec(target="bonus", grid=(0.0,)), [])

    def test_history_without_entries_rejected(self):
        rounds = [RoundInput("r1", [])]
        with pytest.raises(InputError, match="no rated entries"):
            run_sweep(SweepSpec(target="bonus", grid=(0.0,)), rounds)

    def test_k_factor_target_skips_inner_optimization(self):
        calls = []

        def objective(params):
            calls.append(params.k_factor)
            return abs(params.k_factor - 500.0)

        spec = SweepSpec(target="k_factor", grid=(300.0, 600.0, 900.0))
        result = run_sweep(spec, [], objective=objective)
        assert calls == [300.0, 600.0, 900.0]
        assert [p.value for p in result.points] == [300.0, 600.0, 900.0]
        assert all(p.best_k == p.value for p in result.points)
        assert result.best.value == 600.0
        assert result.best.mean_error == 100.0

    def test_tie_breaks_toward_smaller_value(self):
        spec = SweepSpec(target="k_factor", grid=(100.0, 200.0, 300.0))
        result = run_sweep(spec, [], objective=lambda params: 1.0)
        assert result.best.value == 100.0

    def test_golden_section_finds_quadratic_minimum(self):
        def objective(params):
            return (params.k_factor - 380.0) ** 2 / 1e4

        spec = SweepSpec(target="bonus", grid=(0.0,))
        result = run_sweep(spec, [], objective=objective)
        point = result.points[0]
        assert abs(point.best_k - 380.0) <= spec.k_step + 1e-9
        assert point.mean_error <= 0.0025 + 1e-12

    def test_probe_violation_falls_back_to_grid_scan(self):
        seen = set()

        def objective(params):
            k = params.k_factor
            seen.add(k)
            return abs(math.sin(math.pi * k / 200.0)) + k / 10000.0

        spec = SweepSpec(target="bonus", grid=(0.0,),
                         k_range=(100.0, 500.0), k_step=25.0)
        result = run_sweep(spec, [], objective=objective)
        # probes 100..500 by 100 are W-shaped, so every 25-step point is tried
        assert seen == {100.0 + 25.0 * i for i in range(17)}
        assert result.best.best_k == 200.0
        assert result.best.mean_error == pytest.approx(0.02, abs=1e-12)

    def test_grid_scan_fallback_is_bounded(self):
        seen = set()

        def objective(params):
            seen.add(params.k_factor)
            return abs(math.sin(math.pi * params.k_factor / 200.0))

        # the same W-shaped probes; a scan at this step would need 4e11 points
        spec = SweepSpec(target="bonus", grid=(0.0,),
                         k_range=(100.0, 500.0), k_step=1e-9)
        with pytest.raises(InputError, match=r"--k-step 1e-09 has more than 10000 points"):
            run_sweep(spec, [], objective=objective)
        assert seen == {100.0, 200.0, 300.0, 400.0, 500.0}
        # the largest step the bound refuses, and the one just past it
        with pytest.raises(InputError, match="more than 10000 points"):
            run_sweep(replace(spec, k_step=0.04), [], objective=objective)
        assert len(run_sweep(replace(spec, k_step=0.0401), [],
                             objective=objective).points) == 1

    def test_tiny_k_range_evaluates_endpoints(self):
        def objective(params):
            return (params.k_factor - 380.0) ** 2

        spec = SweepSpec(target="bonus", grid=(0.0,),
                         k_range=(100.0, 104.0), k_step=5.0)
        result = run_sweep(spec, [], objective=objective)
        assert result.points[0].best_k == 104.0

    def test_best_is_argmin_over_points(self):
        rounds = history()
        spec = SweepSpec(target="k_factor", grid=(200.0, 400.0, 600.0, 800.0))
        result = run_sweep(spec, rounds)
        assert result.best.mean_error == min(p.mean_error for p in result.points)
        assert result.best in result.points

    def test_best_error_matches_standalone_replay(self):
        rounds = history(seed=8)
        spec = SweepSpec(target="k_factor", grid=(300.0, 600.0, 900.0))
        result = run_sweep(spec, rounds)
        params = replace(ELO, k_factor=result.best.value)
        fresh = replay(rounds, params, keep_observations=False).mean_error
        assert result.best.mean_error == fresh


def convex_surface(params):
    return (params.inflation - 21.0) ** 2 + (params.bonus - 9.0) ** 2 + 0.5


class TestJointSearch:
    def test_single_point_grids(self):
        result = joint_search((0.0,), (0.0,), [], objective=convex_surface)
        assert (result.inflation, result.bonus) == (0.0, 0.0)
        assert result.evaluations == 1

    def test_separable_convex_surface_finds_global_minimum(self):
        inflation_grid = tuple(float(v) for v in range(0, 31, 3))
        bonus_grid = tuple(4.5 * i for i in range(7))
        result = joint_search(inflation_grid, bonus_grid, [],
                              objective=convex_surface)
        exhaustive = min(
            ((convex_surface(replace(ELO, inflation=n, bonus=b)), n, b)
             for n in inflation_grid for b in bonus_grid))
        assert (result.inflation, result.bonus) == (exhaustive[1], exhaustive[2])
        assert result.mean_error == exhaustive[0] == 0.5
        assert result.evaluations <= len(inflation_grid) * len(bonus_grid)

    def test_result_is_coordinatewise_optimal_on_real_history(self):
        rounds = history(seed=4, rounds=15)
        inflation_grid = (0.0, 30.0, 63.0)
        bonus_grid = (0.0, 13.5, 27.0)
        result = joint_search(inflation_grid, bonus_grid, rounds, base=ELO)

        def err(n, b):
            params = replace(ELO, inflation=n, bonus=b)
            return replay(rounds, params, keep_observations=False).mean_error

        assert result.mean_error == err(result.inflation, result.bonus)
        for n in inflation_grid:
            assert err(n, result.bonus) >= result.mean_error
        for b in bonus_grid:
            assert err(result.inflation, b) >= result.mean_error

    def test_evaluation_count_is_reported(self):
        calls = []

        def objective(params):
            calls.append((params.inflation, params.bonus))
            return convex_surface(params)

        result = joint_search((0.0, 21.0), (0.0, 9.0), [], objective=objective)
        assert result.evaluations == len(set(calls))
        assert len(calls) == len(set(calls))   # cache prevents re-evaluation

    @pytest.mark.parametrize("inflation_grid,bonus_grid,message", [
        ((), (0.0,), "inflation grid is empty"),
        ((0.0,), (), "bonus grid is empty"),
        ((1.0, 0.0), (0.0,), "inflation grid must be sorted"),
        ((0.0,), (27.0, 0.0), "bonus grid must be sorted"),
    ])
    def test_grid_validation(self, inflation_grid, bonus_grid, message):
        with pytest.raises(InputError, match=message):
            joint_search(inflation_grid, bonus_grid, [], objective=convex_surface)

    def test_empty_history_rejected(self):
        with pytest.raises(InputError, match="history is empty"):
            joint_search((0.0,), (0.0,), [])
