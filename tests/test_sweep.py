"""Unit tests for surface tabulation and batch execution."""

from dataclasses import replace

import numpy as np
import pytest

from marketflow import sweep
from marketflow.config import SimConfig
from marketflow.engine import run
from marketflow.physics import reynolds_closed_form
from marketflow.sweep import (
    batch_runs,
    default_l_grid,
    default_probability_grid,
    default_speed_grid,
    surface_speed,
    surface_spread,
)


class TestDefaultGrids:
    def test_speed_grid(self):
        grid = default_speed_grid()
        assert len(grid) == 41
        assert grid[0] == -5.0
        assert grid[-1] == 5.0
        assert grid[20] == 0.0
        assert grid[1] - grid[0] == 0.25

    def test_l_grid(self):
        grid = default_l_grid()
        assert grid == [float(i) for i in range(1, 21)]

    def test_probability_grid(self):
        grid = default_probability_grid()
        assert len(grid) == 100
        assert grid[0] == 0.0
        assert grid[-1] == 0.99
        assert all(p < 1.0 for p in grid)


class TestSpeedSurface:
    def test_matches_pointwise_evaluation(self):
        grid = surface_speed([-2.0, 0.0, 3.0], [0.0, 0.5, 0.9], l=4.0)
        for i, p in enumerate(grid.y_axis):
            for j, v in enumerate(grid.x_axis):
                assert grid.values[i][j] == reynolds_closed_form(v, 4.0, p)

    @pytest.mark.parametrize("vt_grid, p_grid, message", [
        ([1.0], [0.5, 1.0], r"p must be in \[0, 1\)"),
        ([], [0.5], r"x_axis \(v_t\) is empty"),
        ([1.0], [], r"y_axis \(p\) is empty"),
    ], ids=["saturated", "empty_x_axis", "empty_y_axis"])
    def test_rejects_saturated_probability(self, vt_grid, p_grid, message):
        # a saturated p fails in the closed form; an empty axis where the
        # grid is built, before a figure or a CSV file could be drawn from it
        with pytest.raises(ValueError, match=message):
            surface_speed(vt_grid, p_grid)


class TestSpreadSurface:
    def test_matches_pointwise_evaluation(self):
        grid = surface_spread([1.0, 7.0], [0.1, 0.8], v_t=2.0)
        for i, p in enumerate(grid.y_axis):
            for j, l in enumerate(grid.x_axis):
                assert grid.values[i][j] == reynolds_closed_form(2.0, l, p)

    def test_rows_are_linear_in_spread(self):
        grid = surface_spread(default_l_grid(), default_probability_grid())
        for i, p in enumerate(grid.y_axis):
            base = reynolds_closed_form(1.0, 1.0, p)
            for j, l in enumerate(grid.x_axis):
                assert grid.values[i][j] == base * l

    def test_zero_speed_surface_is_zero(self):
        grid = surface_spread(default_l_grid(), [0.0, 0.5, 0.99], v_t=0.0)
        assert all(v == 0.0 for row in grid.values for v in row)


class TestBatchRuns:
    def test_cardinality_and_order(self):
        base = SimConfig(steps=20)
        cells = [{"collision_probability": 0.99},
                 {"collision_probability": 0.15}]
        summaries = batch_runs(base, cells, seeds=[0, 1, 2])
        assert len(summaries) == 6
        assert [s.config.collision_probability for s in summaries] == \
            [0.99] * 3 + [0.15] * 3
        assert [s.seed for s in summaries] == [0, 1, 2, 0, 1, 2]

    def test_one_shot_seeds_cover_every_cell(self):
        base = SimConfig(steps=20)
        cells = [{"collision_probability": 0.99},
                 {"collision_probability": 0.15}]
        from_list = batch_runs(base, cells, seeds=[0, 1, 2])
        from_generator = batch_runs(base, cells, seeds=(s for s in range(3)))
        assert from_generator == from_list
        assert [(s.config.collision_probability, s.seed) for s in from_generator] == \
            [(0.99, 0), (0.99, 1), (0.99, 2), (0.15, 0), (0.15, 1), (0.15, 2)]

    def test_deterministic(self):
        base = SimConfig(steps=30)
        cells = [{"initial_spread": 1}, {"initial_spread": 20}]
        a = batch_runs(base, cells, seeds=[3, 4])
        b = batch_runs(base, cells, seeds=[3, 4])
        assert a == b

    def test_equivalent_to_independent_runs(self):
        base = SimConfig(steps=40)
        summaries = batch_runs(base, [{}], seeds=[5, 6])
        for summary, seed in zip(summaries, [5, 6]):
            bundle = run(replace(base, seed=seed))
            assert summary.final_mu == bundle.smoothed_mu[-1]
            assert summary.final_reynolds == bundle.smoothed_reynolds[-1]
            assert summary.max_reynolds == max(t.reynolds for t in bundle.ticks)
            assert sum(summary.regime_counts.values()) == 40

    def test_stats_are_floats_and_smoothed_series_are_arrays(self):
        # plain floats keep a RunSummary's repr free of np.float64(...)
        base = SimConfig(steps=40)
        summary, = batch_runs(base, [{}], seeds=[5])
        stats = (summary.final_mu, summary.final_reynolds, summary.max_reynolds)
        assert [type(v) for v in stats] == [float] * 3
        bundle = run(replace(base, seed=5))
        for series in (bundle.smoothed_mu, bundle.smoothed_reynolds):
            assert isinstance(series, np.ndarray)
            assert series.dtype == np.float64
            assert series.shape == (40,)

    def test_errors_are_captured_per_cell(self):
        base = SimConfig(steps=10)
        # a bid of 10 is valid, and its run reaches the price floor
        cells = [{"initial_bid": 10}, {"initial_spread": 1}]
        summaries = batch_runs(base, cells, seeds=[0])
        assert summaries[0].error.startswith("tick 0: price floor")
        assert summaries[0].final_mu is None
        assert summaries[1].error is None
        assert summaries[1].final_mu is not None

    def test_program_faults_propagate(self, monkeypatch):
        def faulty_run(config):
            raise RuntimeError("volume ledger failed to reconcile")
        monkeypatch.setattr(sweep, "run", faulty_run)
        with pytest.raises(RuntimeError, match="reconcile"):
            batch_runs(SimConfig(steps=10), [{}], seeds=[0])

    def test_invalid_cell_is_rejected_before_any_run(self, monkeypatch):
        runs = []
        monkeypatch.setattr(sweep, "run", runs.append)
        # a bad value, a key that is no config field, and the seed, which
        # the seeds argument sets; each error names the key
        for bad, key in (({"initial_spread": 0}, "initial_spread"),
                         ({"foo": 1}, "foo"),
                         ({"seed": 1}, "seed")):
            with pytest.raises(ValueError, match=key):
                batch_runs(SimConfig(steps=10), [{"initial_spread": 1}, bad],
                           seeds=[0])
        assert runs == []

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            batch_runs(SimConfig(), [], seeds=[0])
