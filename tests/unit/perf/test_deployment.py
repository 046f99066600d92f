"""Data-deployment cost model tests (the Fig 1 deployment stage)."""


import pytest

from repro.cluster import ETHERNET_10G, INFINIBAND_EDR
from repro.perf import (
    GIB,
    PAPER_DATASET_BYTES,
    DatasetFootprint,
    plan_deployment,
    staging_time,
)


class TestFootprint:
    def test_paper_dataset_size(self):
        """484 subjects of 5 full-volume float32 channels ~ 79 GiB."""
        fp = DatasetFootprint()
        assert fp.total_bytes == PAPER_DATASET_BYTES
        assert 70 < fp.gib < 90

    def test_validation(self):
        with pytest.raises(ValueError):
            DatasetFootprint(total_bytes=0)


class TestStaging:
    FP = DatasetFootprint(total_bytes=10 * 10**9)  # 10 GB

    def test_single_node_free(self):
        assert staging_time(self.FP, 1, INFINIBAND_EDR) == 0.0

    def test_tree_is_logarithmic(self):
        t2 = staging_time(self.FP, 2, INFINIBAND_EDR)
        t8 = staging_time(self.FP, 8, INFINIBAND_EDR)
        assert t8 == pytest.approx(3 * t2)  # log2(8) = 3 hops

    def test_sequential_is_linear(self):
        t8 = staging_time(self.FP, 8, INFINIBAND_EDR, tree=False)
        t2 = staging_time(self.FP, 2, INFINIBAND_EDR, tree=False)
        assert t8 == pytest.approx(7 * t2)

    def test_tree_rounds_a_partial_level_up(self):
        """5 nodes need as many broadcast rounds as 8: ceil(log2 5) = 3."""
        t2 = staging_time(self.FP, 2, INFINIBAND_EDR)
        assert staging_time(self.FP, 5, INFINIBAND_EDR) == pytest.approx(3 * t2)

    def test_tree_beats_sequential(self):
        assert staging_time(self.FP, 8, INFINIBAND_EDR) < \
            staging_time(self.FP, 8, INFINIBAND_EDR, tree=False)

    def test_fabric_matters(self):
        assert staging_time(self.FP, 4, ETHERNET_10G) > \
            staging_time(self.FP, 4, INFINIBAND_EDR)

    def test_paper_scale_staging_is_minutes(self):
        """63 GiB to 8 nodes over IB: ~minutes, amortised over a 44 h
        run -- why deployment does not appear in Table I."""
        t = staging_time(DatasetFootprint(), 8, INFINIBAND_EDR)
        assert 10 < t < 3600

    def test_validation(self):
        with pytest.raises(ValueError):
            staging_time(self.FP, 0, INFINIBAND_EDR)


class TestPlan:
    FP = DatasetFootprint(total_bytes=10 * 10**9)

    def test_shared_fs_no_upfront(self):
        plan = plan_deployment(self.FP, 8, INFINIBAND_EDR,
                               strategy="shared_fs")
        assert plan.upfront_seconds == 0.0
        assert plan.per_epoch_read_seconds > 0

    def test_staging_pays_off_over_epochs(self):
        shared = plan_deployment(self.FP, 8, INFINIBAND_EDR,
                                 strategy="shared_fs")
        staged = plan_deployment(self.FP, 8, INFINIBAND_EDR,
                                 strategy="stage_to_nodes")
        assert staged.total_seconds(0) > shared.total_seconds(0)
        assert staged.total_seconds(250) < shared.total_seconds(250)

    def test_staged_upfront_is_tree_staging(self):
        plan = plan_deployment(self.FP, 8, ETHERNET_10G,
                               strategy="stage_to_nodes")
        assert plan.upfront_seconds == staging_time(self.FP, 8, ETHERNET_10G)

    def test_single_node_staging_always_wins(self):
        """One node copies nothing up front, then reads locally, faster
        than the shared filesystem: staged is cheaper at every length."""
        shared = plan_deployment(self.FP, 1, INFINIBAND_EDR,
                                 strategy="shared_fs")
        staged = plan_deployment(self.FP, 1, INFINIBAND_EDR,
                                 strategy="stage_to_nodes")
        assert staged.upfront_seconds == 0.0
        for epochs in (1, 10, 250):
            assert staged.total_seconds(epochs) < shared.total_seconds(epochs)

    def test_breakeven_is_finite(self):
        shared = plan_deployment(self.FP, 8, INFINIBAND_EDR,
                                 strategy="shared_fs")
        staged = plan_deployment(self.FP, 8, INFINIBAND_EDR,
                                 strategy="stage_to_nodes")
        saved = shared.per_epoch_read_seconds - staged.per_epoch_read_seconds
        breakeven = staged.upfront_seconds / saved
        assert 0 < breakeven < 250

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_deployment(self.FP, 4, INFINIBAND_EDR, strategy="torrent")
        with pytest.raises(ValueError):
            plan_deployment(self.FP, 4, INFINIBAND_EDR, local_read_gibs=0)
        plan = plan_deployment(self.FP, 4, INFINIBAND_EDR)
        with pytest.raises(ValueError):
            plan.total_seconds(-1)

    def test_units_round_trip_binary_gib(self):
        """Regression: read pricing uses the same binary-GiB unit as
        ``DatasetFootprint.gib`` -- an 8 GiB set at 2 GiB/s is exactly
        4 s/epoch (the old decimal-GB pricing gave ~7% less)."""
        fp = DatasetFootprint(total_bytes=8 * GIB)
        assert fp.gib == pytest.approx(8.0)
        plan = plan_deployment(fp, 4, INFINIBAND_EDR,
                               local_read_gibs=2.0, strategy="stage_to_nodes")
        assert plan.per_epoch_read_seconds == pytest.approx(fp.gib / 2.0)
        shared = plan_deployment(fp, 4, INFINIBAND_EDR,
                                 shared_read_gibs=0.5, strategy="shared_fs")
        assert shared.per_epoch_read_seconds == pytest.approx(fp.gib / 0.5)
