"""Collective cost models and exact ring all-reduce."""

import numpy as np
import pytest

from repro.cluster import (
    INFINIBAND_EDR,
    NVLINK2,
    LinkSpec,
    allreduce_time,
    hierarchical_allreduce_time,
    ring_allreduce,
    ring_allreduce_time,
    transfer_time,
)

rng = np.random.default_rng(17)
MB = 1_000_000


class TestLinkModel:
    def test_alpha_beta(self):
        link = LinkSpec("test", latency_s=1e-6, bandwidth_gbs=10.0)
        assert transfer_time(0, link) == pytest.approx(1e-6)
        assert transfer_time(10 * MB, link) == pytest.approx(1e-6 + 1e-3)

    def test_negative_bytes(self):
        with pytest.raises(ValueError):
            transfer_time(-1, NVLINK2)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LinkSpec("bad", latency_s=-1, bandwidth_gbs=1)
        with pytest.raises(ValueError):
            LinkSpec("bad", latency_s=0, bandwidth_gbs=0)


class TestCostModels:
    def test_single_gpu_is_free(self):
        assert ring_allreduce_time(MB, 1, NVLINK2) == 0.0
        assert allreduce_time(MB, 1, 4, NVLINK2, INFINIBAND_EDR) == 0.0

    def test_ring_bandwidth_term_saturates(self):
        """Ring moves 2(n-1)/n of the buffer: the bandwidth term tends to
        2x buffer time as n grows, so large-n time stays bounded when
        latency is negligible."""
        quiet = LinkSpec("quiet", latency_s=0.0, bandwidth_gbs=10.0)
        t64 = ring_allreduce_time(100 * MB, 64, quiet)
        t128 = ring_allreduce_time(100 * MB, 128, quiet)
        limit = 2 * 100 * MB / quiet.bandwidth_bytes_per_s
        assert t64 < t128 < limit * 1.01

    def test_hierarchical_structure(self):
        """Hierarchical = intra ring + inter ring + intra rebroadcast."""
        got = hierarchical_allreduce_time(MB, 4, 8, NVLINK2, INFINIBAND_EDR)
        intra = ring_allreduce_time(MB, 4, NVLINK2)
        inter = ring_allreduce_time(MB, 8, INFINIBAND_EDR)
        assert got == pytest.approx(intra * 1.5 + inter)

    def test_hierarchical_degenerates_to_one_ring(self):
        """One node is the intra-node ring alone; one GPU per node is
        the fabric ring alone."""
        assert hierarchical_allreduce_time(
            MB, 4, 1, NVLINK2, INFINIBAND_EDR
        ) == ring_allreduce_time(MB, 4, NVLINK2)
        assert hierarchical_allreduce_time(
            MB, 1, 8, NVLINK2, INFINIBAND_EDR
        ) == ring_allreduce_time(MB, 8, INFINIBAND_EDR)

    def test_hierarchical_beats_flat_fabric_ring(self):
        """8 GPUs in 2 nodes of 4: reducing over NVLink first leaves the
        fabric a 2-rank ring, cheaper than one 8-rank ring over it."""
        flat = ring_allreduce_time(100 * MB, 8, INFINIBAND_EDR)
        hier = hierarchical_allreduce_time(100 * MB, 4, 2, NVLINK2,
                                           INFINIBAND_EDR)
        assert hier < flat

    def test_ring_latency_term_dominates_tiny_messages(self):
        """A 64-byte buffer costs 2(n-1) link latencies: linear in the
        ring size."""
        for n in (2, 8, 32):
            t = ring_allreduce_time(64, n, INFINIBAND_EDR)
            assert t == pytest.approx(2 * (n - 1) * INFINIBAND_EDR.latency_s,
                                      rel=1e-2)

    def test_partial_last_node_is_a_full_ring_member(self):
        """6 GPUs at 4 per node occupy 2 nodes: priced as 2 full nodes."""
        assert allreduce_time(MB, 6, 4, NVLINK2, INFINIBAND_EDR) == \
            pytest.approx(hierarchical_allreduce_time(MB, 4, 2, NVLINK2,
                                                      INFINIBAND_EDR))

    def test_dispatch_three_cases(self):
        """Section III-B2: 1 GPU free; <=M intra-node only; >M pays IB."""
        t1 = allreduce_time(MB, 1, 4, NVLINK2, INFINIBAND_EDR)
        t4 = allreduce_time(MB, 4, 4, NVLINK2, INFINIBAND_EDR)
        t8 = allreduce_time(MB, 8, 4, NVLINK2, INFINIBAND_EDR)
        assert t1 == 0.0
        assert t4 == ring_allreduce_time(MB, 4, NVLINK2)
        assert t8 > t4  # crossing the node boundary costs extra
        assert t8 == pytest.approx(
            hierarchical_allreduce_time(MB, 4, 2, NVLINK2, INFINIBAND_EDR)
        )

    def test_monotone_in_bytes(self):
        times = [
            allreduce_time(b, 8, 4, NVLINK2, INFINIBAND_EDR)
            for b in (MB, 10 * MB, 100 * MB)
        ]
        assert times[0] < times[1] < times[2]

    def test_validation(self):
        with pytest.raises(ValueError):
            ring_allreduce_time(MB, 0, NVLINK2)
        with pytest.raises(ValueError):
            allreduce_time(MB, 0, 4, NVLINK2, INFINIBAND_EDR)

    @pytest.mark.parametrize("gpus_per_node,num_nodes", [(0, 2), (4, 0)])
    def test_hierarchical_validation(self, gpus_per_node, num_nodes):
        with pytest.raises(ValueError):
            hierarchical_allreduce_time(MB, gpus_per_node, num_nodes,
                                        NVLINK2, INFINIBAND_EDR)


class TestExactRingAllReduce:
    def test_result_is_sum_everywhere(self):
        bufs = [rng.normal(size=(5, 3)) for _ in range(7)]
        out = ring_allreduce(bufs)
        expect = sum(bufs)
        for o in out:
            np.testing.assert_allclose(o, expect, atol=1e-12)

    def test_average_mode(self):
        bufs = [np.full(4, float(i)) for i in range(4)]
        out = ring_allreduce(bufs, average=True)
        np.testing.assert_allclose(out[0], 1.5)

    def test_single_buffer_identity(self):
        b = rng.normal(size=6)
        (out,) = ring_allreduce([b])
        np.testing.assert_allclose(out, b)

    def test_inputs_unmodified(self):
        bufs = [rng.normal(size=4) for _ in range(3)]
        copies = [b.copy() for b in bufs]
        ring_allreduce(bufs)
        for b, c in zip(bufs, copies):
            np.testing.assert_array_equal(b, c)

    def test_buffer_smaller_than_ring(self):
        """More ranks than elements still reduces correctly (empty
        chunks are legal)."""
        bufs = [np.array([float(i)]) for i in range(5)]
        out = ring_allreduce(bufs)
        for o in out:
            np.testing.assert_allclose(o, [10.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ring_allreduce([np.zeros(3), np.zeros(4)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ring_allreduce([])
