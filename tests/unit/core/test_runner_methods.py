"""DistMISRunner, distribution methods, results and profiling tests."""

import pytest

from repro.core import (
    ExperimentSettings,
    HyperparameterSpace,
    profile_online_vs_offline,
)
from repro.core.results import ComparisonReport, MethodSeries
from repro.core.runner import DistMISRunner
from repro.core.simulated import (
    placement_case,
    simulate_data_parallel_search as dp_simulate,
    simulate_experiment_parallel_search as ep_simulate,
)
from repro.perf import (
    calibrated_model,
    data_parallel_search_time,
    experiment_parallel_search_time,
    paper_search_grid,
)


def tiny_runner(epochs=2):
    return DistMISRunner(
        space=HyperparameterSpace({"learning_rate": [1e-2, 1e-3]}),
        settings=ExperimentSettings(num_subjects=6, volume_shape=(16, 16, 16),
                                    epochs=epochs, base_filters=2, depth=2),
    )


class TestPlacementCase:
    def test_trichotomy(self):
        assert placement_case(1) == "sequential"
        assert placement_case(3) == "mirrored"
        assert placement_case(5) == "ray_sgd"
        with pytest.raises(ValueError):
            placement_case(0)


class TestSimulatedBackend:
    @pytest.fixture(scope="class")
    def model(self):
        return calibrated_model()

    @pytest.fixture(scope="class")
    def grid(self):
        return paper_search_grid()

    def test_dp_simulator_matches_analytic(self, model, grid):
        for n in (1, 4, 12, 32):
            sim, _ = dp_simulate(grid, model, n, seed=n)
            assert sim == data_parallel_search_time(model, grid, n, seed=n)

    def test_ep_simulator_matches_analytic(self, model, grid):
        """The simulated search's elapsed time is, bit for bit, the
        greedy-FIFO makespan that prices Table I."""
        for n in (1, 2, 8, 16, 32):
            sim, _ = ep_simulate(grid, model, n, seed=n)
            assert sim == experiment_parallel_search_time(
                model, grid, n, seed=n)

    def test_dp_timeline_spans_all_gpus(self, model, grid):
        _, tl = dp_simulate(grid, model, 8)
        assert len(tl.resources()) == 8
        assert len(tl.events) == len(grid) * 8

    def test_ep_timeline_one_span_per_trial(self, model, grid):
        _, tl = ep_simulate(grid, model, 8)
        assert len(tl.events) == len(grid)
        assert len(tl.resources()) <= 8
        # trials are packed: the pool keeps every GPU busy early on
        assert tl.mean_utilization() > 0.5

    def test_oversized_request_rejected(self, model, grid):
        with pytest.raises(ValueError):
            dp_simulate(grid, model, 64)
        with pytest.raises(ValueError):
            ep_simulate(grid, model, 64)

    def test_zero_gpus_rejected(self, model, grid):
        with pytest.raises(ValueError, match="num_gpus must be >= 1"):
            dp_simulate(grid, model, 0)
        with pytest.raises(ValueError, match="num_gpus must be >= 1"):
            ep_simulate(grid, model, 0)

    def test_runner_simulate_and_comparison(self):
        runner = tiny_runner()
        run = runner.simulate("experiment_parallel", 8, seed=1)
        assert run.elapsed_seconds > 0
        report = runner.simulate_comparison(gpu_counts=(1, 4, 32), num_runs=2)
        rows = report.table_rows()
        assert rows[0]["num_gpus"] == 1
        assert rows[-1]["ep_speedup"] > rows[-1]["dp_speedup"]

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            tiny_runner().simulate("model_parallel", 4)


class TestInProcessBackend:
    def test_data_parallel_search(self):
        runner = tiny_runner()
        result = runner.run_inprocess("data_parallel", num_gpus=2)
        assert len(result.outcomes) == 2
        best = result.best()
        assert best.val_dice == max(o.val_dice for o in result.outcomes)

    def test_experiment_parallel_search(self):
        runner = tiny_runner()
        result = runner.run_inprocess("experiment_parallel")
        assert len(result.outcomes) == 2
        assert result.analysis is not None
        assert result.analysis.best_trial("val_dice") is not None

    def test_experiment_parallel_multi_gpu_rejected(self):
        with pytest.raises(ValueError, match="simulate"):
            tiny_runner().run_inprocess("experiment_parallel", num_gpus=4)


class TestResults:
    def test_method_series_stats(self):
        s = MethodSeries("dp", [1, 2], runs=[[100.0, 110.0], [60.0, 50.0]])
        assert s.mean() == [105.0, 55.0]
        assert s.minimum() == [100.0, 50.0]
        assert s.maximum() == [110.0, 60.0]
        assert s.speedups()[1] == pytest.approx(105.0 / 55.0)

    def test_report_render(self):
        dp = MethodSeries("dp", [1, 2], runs=[[100.0], [60.0]])
        ep = MethodSeries("ep", [1, 2], runs=[[100.0], [52.0]])
        rep = ComparisonReport(dp, ep)
        text = rep.render_table()
        assert "Speedup" in text
        fig = rep.render_figure_series()
        assert "Fig 4a" in fig and "Fig 4b" in fig
        gaps = rep.crossover_gap()
        assert gaps[1][1] > 0

    def test_mismatched_counts_rejected(self):
        dp = MethodSeries("dp", [1, 2], runs=[[1.0], [1.0]])
        ep = MethodSeries("ep", [1, 4], runs=[[1.0], [1.0]])
        with pytest.raises(ValueError):
            ComparisonReport(dp, ep)


class TestProfiling:
    def test_offline_beats_online(self, tmp_path):
        """E5/C3: reading pre-binarised records is faster per epoch than
        re-running decode + transform, and NIfTI decode or the transform
        is the online bottleneck."""
        rep = profile_online_vs_offline(
            num_subjects=4, volume_shape=(32, 32, 16), epochs=2,
            workdir=tmp_path,
        )
        assert rep.offline_epoch_s < rep.online_epoch_s
        assert rep.speedup_per_epoch() > 1.0
        assert rep.bottleneck() in ("nifti_decode", "transform")
        # The one-off binarisation must pay for itself within the
        # paper's 250-epoch budget (at full 240x240x155 volumes it
        # amortises in a handful of epochs; tiny test volumes make the
        # record write relatively more expensive).
        assert rep.epochs_to_amortize < 250
        text = rep.render()
        assert "speed-up" in text

    def test_stage_rows_are_what_an_online_epoch_pays(self, tmp_path):
        """Only the per-epoch stages become rows: every subject of every
        split is decoded and transformed once per online epoch; the
        one-off NIfTI write and binarisation, and the offline gather,
        are not rows."""
        rep = profile_online_vs_offline(
            num_subjects=4, volume_shape=(16, 16, 16), epochs=2,
            workdir=tmp_path,
        )
        assert {stage for stage, _, _ in rep.stages} == {"nifti_decode",
                                                         "transform"}
        assert all(n == 4 * 2 for _, _, n in rep.stages)

    def test_default_hub_is_left_alone(self, tmp_path):
        """E5 times its stages on a private hub, so a live process-wide
        hub gains no ``pipeline_stage_*`` rows from it."""
        from repro.telemetry import TelemetryHub, set_hub

        hub = TelemetryHub()
        set_hub(hub)
        try:
            profile_online_vs_offline(
                num_subjects=3, volume_shape=(16, 16, 16), epochs=1,
                workdir=tmp_path,
            )
        finally:
            set_hub(None)
        assert not [r for r in hub.metrics.samples()
                    if r["name"].startswith("pipeline_stage_")]
