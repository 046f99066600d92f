"""Formatting / small-API tests for the speed-up report types."""

import pytest

from repro.core.results import MethodSeries
from repro.perf import SpeedupRow, SpeedupTable, calibrated_model


class TestSpeedupRow:
    def test_formatted_tuple(self):
        row = SpeedupRow(num_gpus=4, dp_seconds=3661.0, ep_seconds=1830.5,
                         dp_speedup=3.127, ep_speedup=3.6449)
        n, dp_t, dp_s, ep_t, ep_s = row.formatted()
        assert n == 4
        assert dp_t == "1:01:01"
        assert dp_s == "3.13"
        assert ep_t == "0:30:30"  # banker's rounding: 1830.5 -> 1830
        assert ep_s == "3.64"


class TestMethodSeriesRow:
    def test_row_dict(self):
        s = MethodSeries("dp", [1, 4], runs=[[100.0, 120.0], [30.0, 50.0]])
        row = s.row(1)
        assert row["num_gpus"] == 4
        assert row["mean_s"] == 40.0
        assert row["min_s"] == 30.0
        assert row["max_s"] == 50.0
        assert row["speedup"] == pytest.approx(110.0 / 40.0)


class TestSpeedupTableCustomisation:
    def test_custom_gpu_counts(self):
        table = SpeedupTable(calibrated_model(), gpu_counts=(1, 2))
        rows = table.compute()
        assert [r.num_gpus for r in rows] == [1, 2]
        assert rows[0].dp_speedup == pytest.approx(1.0)

    def test_render_accepts_precomputed_rows(self):
        table = SpeedupTable(calibrated_model(), gpu_counts=(1,))
        rows = table.compute()
        assert table.render(rows).count("\n") == 3
