"""Integration: paper-scale simulated comparisons (Table I / Fig 4)."""

import json

import pytest

from repro.core.runner import DistMISRunner
from repro.perf import (
    TABLE1_DP_SPEEDUPS,
    TABLE1_EP_SPEEDUPS,
)


@pytest.fixture(scope="module")
def report():
    return DistMISRunner().simulate_comparison(
        gpu_counts=(1, 2, 4, 8, 12, 16, 32), num_runs=3, base_seed=0
    )


class TestComparisonReport:
    def test_all_rows_present(self, report):
        rows = report.table_rows()
        assert [r["num_gpus"] for r in rows] == [1, 2, 4, 8, 12, 16, 32]

    def test_speedups_track_paper(self, report):
        for row in report.table_rows():
            n = row["num_gpus"]
            assert row["dp_speedup"] == pytest.approx(
                TABLE1_DP_SPEEDUPS[n], rel=0.2
            ), f"dp at {n}"
            assert row["ep_speedup"] == pytest.approx(
                TABLE1_EP_SPEEDUPS[n], rel=0.2
            ), f"ep at {n}"

    def test_gap_widens_with_scale(self, report):
        gaps = dict(report.crossover_gap())
        assert gaps[32] > gaps[2]
        assert gaps[32] > 1.0

    def test_min_max_band_brackets_mean(self, report):
        """Fig 4a's error bars: min <= mean <= max per point."""
        for series in (report.dp, report.ep):
            for lo, m, hi in zip(series.minimum(), series.mean(),
                                 series.maximum()):
                assert lo <= m <= hi
                assert lo < hi  # three jittered runs genuinely differ

    def test_renderings_nonempty(self, report):
        assert len(report.render_table().splitlines()) == 10
        assert "x1" in report.render_figure_series().replace(" ", "")


class TestTimelineConsistency:
    def test_experiment_parallel_trace_accounts_all_trials(self):
        runner = DistMISRunner()
        run = runner.simulate("experiment_parallel", 16, seed=2)
        assert len(run.timeline.events) == len(runner.sim_trials)
        # Every span ends by the reported elapsed time.
        assert run.timeline.makespan() <= run.elapsed_seconds + 1e-6

    @pytest.mark.parametrize("method,num_gpus,gpus_per_trial", [
        ("data_parallel", 8, None),
        ("experiment_parallel", 8, None),
        ("hybrid", 32, 8),
    ])
    def test_data_parallel_trace_serialises_trials(self, method, num_gpus,
                                                   gpus_per_trial):
        runner = DistMISRunner()
        run = runner.simulate(method, num_gpus, seed=2,
                              gpus_per_trial=gpus_per_trial)
        # On any lane, spans must not overlap (a GPU -- or a hybrid
        # trial slot -- runs one trial at a time).
        lanes = {}
        for ev in run.timeline.events:
            lanes.setdefault(ev.resource, []).append((ev.start, ev.end))
        for spans in lanes.values():
            spans.sort()
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert s2 >= e1 - 1e-9


class TestSimulatedRunDir:
    @pytest.mark.parametrize("argv", [
        ["data_parallel", "8"],
        ["experiment_parallel", "8"],
        ["hybrid", "32", "--gpus-per-trial", "8"],
        ["experiment_parallel", "8", "--failures", "mtbf=43200,repair=600"],
    ], ids=["data_parallel", "experiment_parallel", "hybrid", "failures"])
    def test_trace_meets_viewer_contract(self, tmp_path, capsys, argv):
        """A simulate run directory's merged trace (driver spans plus the
        simulated timeline under its own pid) passes the lint gate."""
        from repro.cli import main

        from .test_request_tracing import _load_trace_validator

        run_dir = tmp_path / "run"
        assert main(["simulate", *argv, "--telemetry", str(run_dir)]) == 0
        events = json.loads((run_dir / "trace.json").read_text())
        assert {e["pid"] for e in events if e["ph"] == "X"} == {0, 1}
        assert _load_trace_validator()(events, where="trace.json") == []
