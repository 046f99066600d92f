"""Hybrid-parallelism simulation tests."""

import pytest

from repro.core.simulated import best_gpus_per_trial, simulate_hybrid_search
from repro.perf import (
    calibrated_model,
    data_parallel_search_time,
    experiment_parallel_search_time,
    paper_search_grid,
)


@pytest.fixture(scope="module")
def model():
    return calibrated_model()


@pytest.fixture(scope="module")
def grid():
    return paper_search_grid()


class TestExtremesRecoverPaperMethods:
    def test_g1_equals_experiment_parallel(self, model, grid):
        result, _ = simulate_hybrid_search(grid, model, 32, 1)
        assert result.elapsed_seconds == pytest.approx(
            experiment_parallel_search_time(model, grid, 32)
        )

    def test_g_equals_n_close_to_data_parallel(self, model, grid):
        """g = n serialises the trials on all GPUs; it differs from the
        pure data-parallel path only by the per-trial Tune overhead and
        the once-per-search Ray cluster startup."""
        result, _ = simulate_hybrid_search(grid, model, 32, 32)
        dp = data_parallel_search_time(model, grid, 32)
        nodes = model.cluster.nodes_for(32)
        extra = (
            len(grid) * model.params.tune_trial_overhead_s
            + nodes * model.params.startup_per_node_s
        )
        assert result.elapsed_seconds == pytest.approx(dp + extra, rel=1e-9)


class TestMechanics:
    def test_slots_are_floor_division(self, model, grid):
        result, _ = simulate_hybrid_search(grid, model, 32, 3)
        assert result.concurrent_slots == 10

    def test_timeline_has_all_trials(self, model, grid):
        result, tl = simulate_hybrid_search(grid, model, 16, 4)
        assert len(tl.events) == len(grid)
        assert tl.makespan() <= result.elapsed_seconds

    def test_utilization_bounds(self, model, grid):
        for g in (1, 4, 16):
            result, _ = simulate_hybrid_search(grid, model, 16, g)
            assert 0.0 < result.mean_gpu_utilization <= 1.0

    def test_seeded_jitter(self, model, grid):
        a, _ = simulate_hybrid_search(grid, model, 16, 2, seed=1)
        b, _ = simulate_hybrid_search(grid, model, 16, 2, seed=1)
        c, _ = simulate_hybrid_search(grid, model, 16, 2, seed=2)
        assert a.elapsed_seconds == b.elapsed_seconds
        assert a.elapsed_seconds != c.elapsed_seconds

    def test_validation(self, model, grid):
        with pytest.raises(ValueError):
            simulate_hybrid_search(grid, model, 16, 0)
        with pytest.raises(ValueError):
            simulate_hybrid_search(grid, model, 16, 17)
        with pytest.raises(ValueError):
            simulate_hybrid_search(grid, model, 64, 2)


class TestSweep:
    def test_sweep_includes_extremes(self, model, grid):
        results = best_gpus_per_trial(grid, model, 32)
        assert 1 in results and 32 in results

    def test_interior_optimum_at_32_gpus(self, model, grid):
        """20 trials on 32 GPUs: some 1 < g < 32 must beat both
        extremes (the E14 headline)."""
        results = best_gpus_per_trial(grid, model, 32)
        best_g = min(results, key=lambda g: results[g].elapsed_seconds)
        assert 1 < best_g < 32

    def test_g1_optimal_when_trials_oversubscribe_gpus(self, model, grid):
        """With 20 trials on 4 GPUs every GPU stays busy for many
        rounds, so larger g only adds sync overhead -- g = 1 wins.
        (At 8 GPUs the tail imbalance already lets g = 2 win, which is
        the E14 point: the optimum moves with the trial/GPU ratio.)"""
        results = best_gpus_per_trial(grid, model, 4, candidates=(1, 2, 4))
        best_g = min(results, key=lambda g: results[g].elapsed_seconds)
        assert best_g == 1

    def test_custom_candidates(self, model, grid):
        results = best_gpus_per_trial(grid, model, 16, candidates=(1, 16))
        assert set(results) == {1, 16}


class TestRunnerIntegration:
    def test_runner_simulates_hybrid(self):
        from repro.core.runner import DistMISRunner

        runner = DistMISRunner()
        run = runner.simulate("hybrid", 32, gpus_per_trial=8)
        ep = runner.simulate("experiment_parallel", 32)
        assert run.method == "hybrid[g=8]"
        assert run.elapsed_seconds < ep.elapsed_seconds

    def test_runner_hybrid_default_is_one_node(self):
        from repro.core.runner import DistMISRunner

        runner = DistMISRunner()
        run = runner.simulate("hybrid", 32)
        assert run.method == "hybrid[g=4]"  # MareNostrum node = 4 GPUs
