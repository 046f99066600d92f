"""Property-based tests on records, collectives, scheduling, failures."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cluster import FailureModel, ring_allreduce, run_with_failures
from repro.data.records import decode_example, encode_example
from repro.data.splits import split_indices
from repro.perf import fifo_schedule, lpt_schedule, makespan_lower_bound

SMALL = {"max_examples": 40, "deadline": None}


class TestRecordRoundtrip:
    @settings(**SMALL)
    @given(
        arrs=st.dictionaries(
            keys=st.text(
                alphabet=st.characters(min_codepoint=97, max_codepoint=122),
                min_size=1, max_size=8,
            ),
            values=arrays(
                dtype=st.sampled_from(
                    [np.float32, np.float64, np.uint8, np.int32]
                ),
                shape=st.lists(st.integers(0, 4), min_size=0, max_size=3)
                .map(tuple),
                elements=st.integers(0, 100),
            ),
            max_size=4,
        )
    )
    def test_encode_decode_identity(self, arrs):
        back = decode_example(encode_example(arrs))
        assert set(back) == set(arrs)
        for k in arrs:
            np.testing.assert_array_equal(back[k], arrs[k])
            assert back[k].dtype == arrs[k].dtype
            assert back[k].shape == arrs[k].shape


class TestAllReduceProperties:
    @settings(**SMALL)
    @given(
        n=st.integers(1, 8),
        size=st.integers(1, 40),
        seed=st.integers(0, 1000),
    )
    def test_sum_invariant_any_topology(self, n, size, seed):
        rng = np.random.default_rng(seed)
        bufs = [rng.normal(size=size) for _ in range(n)]
        out = ring_allreduce(bufs)
        expect = np.sum(bufs, axis=0)
        for o in out:
            np.testing.assert_allclose(o, expect, atol=1e-10)


class TestSchedulingProperties:
    durations = st.lists(st.floats(0.1, 100.0, allow_nan=False),
                         min_size=1, max_size=30)

    @settings(**SMALL)
    @given(d=durations, n=st.integers(1, 8))
    def test_makespan_bounds(self, d, n):
        lb = makespan_lower_bound(d, n)
        fifo = fifo_schedule(d, n).makespan
        lpt = lpt_schedule(d, n).makespan
        assert lb - 1e-9 <= lpt <= sum(d) + 1e-9
        assert lb - 1e-9 <= fifo <= sum(d) + 1e-9
        # Graham bound: greedy list scheduling <= 2 OPT <= 2 LB * 2
        assert fifo <= 2 * lb + 1e-9

    @settings(**SMALL)
    @given(d=durations, n=st.integers(1, 8))
    def test_all_work_conserved(self, d, n):
        r = fifo_schedule(d, n)
        loads = r.worker_loads(n)
        assert abs(sum(loads) - sum(d)) < 1e-6
        # no trial starts before its worker frees
        per_worker: dict[int, list] = {}
        for w, s, e in r.assignments:
            per_worker.setdefault(w, []).append((s, e))
        for spans in per_worker.values():
            spans.sort()
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert s2 >= e1 - 1e-9  # no overlap on one GPU

    @settings(**SMALL)
    @given(d=durations, n=st.integers(1, 8))
    def test_event_simulator_agrees_with_analytic_fifo(self, d, n):
        """Without failures, the failure event loop places every trial
        exactly where the analytic greedy FIFO schedule does."""
        res = run_with_failures(d, n, FailureModel(mtbf_s=1e15))
        assert res.num_failures == 0
        spans = {int(e.name.split("_")[1]): (e.start, e.end)
                 for e in res.timeline.events}
        assert sorted(spans) == list(range(len(d)))
        for i, (_, start, end) in enumerate(fifo_schedule(d, n).assignments):
            assert abs(spans[i][0] - start) < 1e-9
            assert abs(spans[i][1] - end) < 1e-9


class TestSplitProperties:
    @settings(**SMALL)
    @given(n=st.integers(3, 600), seed=st.integers(0, 99))
    def test_split_partitions(self, n, seed):
        s = split_indices(n, seed=seed)
        combined = list(s.train) + list(s.val) + list(s.test)
        assert sorted(combined) == list(range(n))
        assert all(c >= 1 for c in s.sizes)


class TestStragglerProperties:
    @settings(**SMALL)
    @given(n=st.integers(1, 64), sigma=st.floats(0.0, 0.5, allow_nan=False))
    def test_factor_at_least_one(self, n, sigma):
        from repro.perf import expected_max_factor

        f = expected_max_factor(n, sigma)
        assert f >= 1.0
        if n > 1 and sigma > 0.01:
            assert f > 1.0
