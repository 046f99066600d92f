"""Micro-batcher unit tests: pure logic under synthetic monotonic time."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import BatchKey, MicroBatcher

KEY = BatchKey(strategy="full_volume", shape=(1, 8, 8, 8),
               dtype="float64")
KEY_SW = BatchKey(strategy="sliding_window", shape=(1, 64, 64, 64),
                  dtype="float64")


class TestMicroBatcher:
    def test_full_batch_releases_immediately(self):
        mb = MicroBatcher(max_batch=3, max_delay_s=10.0)
        for i in range(3):
            mb.add(f"r{i}", KEY, now=0.0)
        # deadline far away: size alone triggers the release
        assert mb.due(now=0.0) == [(KEY, ["r0", "r1", "r2"])]
        assert mb.depth() == 0

    def test_partial_batch_waits_for_deadline(self):
        mb = MicroBatcher(max_batch=4, max_delay_s=0.01)
        mb.add("r0", KEY, now=0.0)
        mb.add("r1", KEY, now=0.002)
        assert mb.due(now=0.005) == []          # oldest only 5 ms old
        assert mb.depth() == 2
        # the *oldest* arrival sets the deadline, not the newest
        assert mb.due(now=0.01) == [(KEY, ["r0", "r1"])]
        assert mb.depth() == 0

    def test_overfull_group_splits_and_keeps_remainder(self):
        mb = MicroBatcher(max_batch=2, max_delay_s=10.0)
        for i in range(5):
            mb.add(f"r{i}", KEY, now=0.0)
        assert mb.due(now=0.0) == [(KEY, ["r0", "r1"]),
                                   (KEY, ["r2", "r3"])]
        assert mb.depth() == 1                  # r4 waits for company
        assert mb.due(now=10.0) == [(KEY, ["r4"])]

    def test_incompatible_requests_never_share_a_batch(self):
        mb = MicroBatcher(max_batch=2, max_delay_s=0.0)
        mb.add("small", KEY, now=0.0)
        mb.add("large", KEY_SW, now=0.0)
        other_dtype = BatchKey(strategy="full_volume",
                               shape=(1, 8, 8, 8), dtype="float32")
        mb.add("f32", other_dtype, now=0.0)
        released = dict(mb.due(now=1.0))
        assert released == {KEY: ["small"], KEY_SW: ["large"],
                            other_dtype: ["f32"]}

    def test_next_deadline_tracks_oldest_pending(self):
        mb = MicroBatcher(max_batch=4, max_delay_s=0.01)
        assert mb.next_deadline() is None
        mb.add("r0", KEY, now=5.0)
        mb.add("r1", KEY_SW, now=4.0)
        assert mb.next_deadline() == pytest.approx(4.01)
        mb.due(now=4.02)                        # flushes the sliding group
        assert mb.next_deadline() == pytest.approx(5.01)

    def test_flush_releases_everything(self):
        mb = MicroBatcher(max_batch=8, max_delay_s=100.0)
        mb.add("r0", KEY, now=0.0)
        mb.add("r1", KEY_SW, now=0.0)
        assert dict(mb.flush()) == {KEY: ["r0"], KEY_SW: ["r1"]}
        assert mb.depth() == 0
        assert mb.flush() == []

    def test_validation(self):
        with pytest.raises(ValueError):
            MicroBatcher(max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(max_delay_s=-1.0)
        mb = MicroBatcher()
        with pytest.raises(ValueError):
            mb.add("r0", KEY, now=0.0, weight=0.0)

    def test_next_deadline_full_group_is_due_now(self):
        """ISSUE 10 satellite: a group already at max_batch must report
        a deadline at (or before) its oldest arrival, never ``oldest +
        max_delay_s`` -- a caller sleeping until the returned instant
        would stall an immediately-releasable batch."""
        mb = MicroBatcher(max_batch=2, max_delay_s=10.0)
        mb.add("r0", KEY, now=3.0)
        assert mb.next_deadline() == pytest.approx(13.0)  # partial
        mb.add("r1", KEY, now=4.0)
        assert mb.next_deadline() == pytest.approx(3.0)   # full: due now
        assert mb.due(now=3.0) == [(KEY, ["r0", "r1"])]


class TestWeightedFairness:
    def test_small_request_not_blocked_by_large_chunk_fanout(self):
        """A one-item request admitted behind a large request's chunk
        backlog is released within ~one batch, not after all of it --
        the scatter-gather head-of-line-blocking fix."""
        mb = MicroBatcher(max_batch=4, max_delay_s=0.0)
        for ci in range(20):
            mb.add(f"big#c{ci}", KEY, now=0.0, request_id="big")
        mb.add("small", KEY, now=0.001, request_id="small")
        released = [rid for _, batch in mb.due(now=1.0)
                    for rid in batch]
        assert released.index("small") <= mb.max_batch

    def test_weights_scale_release_share(self):
        """weight=4 vs weight=1 on one key: the first full batch gives
        the heavy request ~4x the slots (stride scheduling)."""
        mb = MicroBatcher(max_batch=5, max_delay_s=0.0)
        for i in range(10):
            mb.add(f"hi#{i}", KEY, now=0.0, request_id="hi", weight=4.0)
            mb.add(f"lo#{i}", KEY, now=0.0, request_id="lo", weight=1.0)
        (key, first), *_ = mb.due(now=1.0)
        owners = [item.split("#")[0] for item in first]
        assert owners.count("hi") == 4
        assert owners.count("lo") == 1

    def test_single_item_requests_degenerate_to_fifo(self):
        mb = MicroBatcher(max_batch=3, max_delay_s=0.0)
        for i in range(7):
            mb.add(f"r{i}", KEY, now=float(i))
        released = [rid for _, batch in mb.due(now=100.0)
                    for rid in batch]
        assert released == [f"r{i}" for i in range(7)]

    def test_due_limit_caps_released_batches(self):
        """Dispatch credits: due(limit=n) releases at most n batches;
        the remainder keeps accumulating in the batcher."""
        mb = MicroBatcher(max_batch=2, max_delay_s=0.0)
        for i in range(8):
            mb.add(f"r{i}", KEY, now=0.0)
        assert len(mb.due(now=1.0, limit=2)) == 2
        assert mb.depth() == 4
        assert len(mb.due(now=1.0, limit=None)) == 2
        assert mb.depth() == 0

    @settings(max_examples=40, deadline=None)
    @given(
        adds=st.lists(
            st.tuples(st.integers(0, 3),     # key index (3: chunks)
                      st.integers(0, 3)),    # request group within key
            min_size=1, max_size=40),
        max_batch=st.integers(1, 5),
        max_delay=st.sampled_from([0.0, 2.5, 1e9]),
        idle=st.lists(st.integers(0, 3), min_size=1, max_size=40),
    )
    def test_arrival_order_per_request_is_preserved(self, adds, max_batch,
                                                    max_delay, idle):
        """Property (ISSUE 10 satellite): however multi-key adds
        interleave with due(idle=...) calls, the released stream (due
        then a final flush) keeps each request's items in arrival
        order, every admitted item is released exactly once, items
        never jump between batch keys, and a patch-chunk item always
        leaves as a batch of one."""
        keys = [BatchKey(strategy="full_volume", shape=(1, 4, 4, 4),
                         dtype=f"dt{k}") for k in range(3)]
        keys.append(BatchKey(strategy="sw_chunks", shape=(1, 4, 4, 4),
                             dtype="dt0"))
        mb = MicroBatcher(max_batch=max_batch, max_delay_s=max_delay)
        admitted = []
        released = []
        for i, (ki, grp) in enumerate(adds):
            item = f"k{ki}g{grp}#{i}"
            mb.add(item, keys[ki], now=float(i),
                   request_id=f"k{ki}g{grp}")
            admitted.append((item, keys[ki]))
            released += mb.due(now=float(i), idle=idle[i % len(idle)])
        released += mb.flush()
        assert mb.depth() == 0
        seen = [(item, key) for key, batch in released
                for item in batch]
        # exactly-once, and each item under its own key
        assert sorted(i for i, _ in seen) == sorted(i for i, _ in admitted)
        assert dict(seen) == dict(admitted)
        assert all(len(batch) <= max_batch for _, batch in released)
        assert all(len(batch) == 1 for key, batch in released
                   if key.strategy == "sw_chunks")
        # per-request arrival order: the trailing #i index is admission
        # order, so within one request id it must be increasing
        per_request: dict = {}
        for item, _ in seen:
            rid, idx = item.split("#")
            per_request.setdefault(rid, []).append(int(idx))
        for order in per_request.values():
            assert order == sorted(order)


class TestWorkConserving:
    """due(idle=k): a replica with nothing to do never waits for the
    deadline, and full or deadline-due batches fill it first."""

    def test_idle_zero_keeps_deadline_contract(self):
        mb = MicroBatcher(max_batch=2, max_delay_s=1.0)
        mb.add("f0", KEY, now=0.0)
        mb.add("f1", KEY, now=0.0)
        mb.add("f2", KEY, now=0.0)              # overflow: partial
        mb.add("late", KEY_SW, now=0.0)         # partial, past deadline
        other = BatchKey(strategy="full_volume", shape=(1, 8, 8, 8),
                         dtype="float32")
        mb.add("fresh", other, now=1.5)         # partial, not yet due
        # exactly the batches that are full or past their deadline
        assert mb.due(now=1.5, idle=0) == [(KEY, ["f0", "f1"]),
                                           (KEY, ["f2"]),
                                           (KEY_SW, ["late"])]
        assert mb.depth() == 1
        assert mb.due(now=1.5, idle=0) == []
        assert mb.due(now=2.5, idle=0) == [(other, ["fresh"])]

    def test_idle_releases_at_most_k_early_groups(self):
        mb = MicroBatcher(max_batch=4, max_delay_s=10.0)
        keys = [BatchKey(strategy="full_volume", shape=(1, 4, 4, 4),
                         dtype=f"dt{k}") for k in range(3)]
        for k, key in enumerate(keys):
            mb.add(f"r{k}", key, now=float(k))
        # oldest (fair tie-break by arrival) first, two of three
        assert mb.due(now=3.0, idle=2) == [(keys[0], ["r0"]),
                                           (keys[1], ["r1"])]
        assert mb.depth() == 1
        assert mb.due(now=3.0, idle=0) == []
        assert mb.due(now=3.0, idle=5) == [(keys[2], ["r2"])]

    def test_due_batch_uses_up_an_idle_slot(self):
        """Full and deadline-due batches leave first and count against
        ``idle``: with one idle replica only the full batch leaves,
        though the older partial request ranks ahead of it in fair
        order."""
        mb = MicroBatcher(max_batch=2, max_delay_s=10.0)
        mb.add("big#0", KEY_SW, now=1.0, request_id="big")
        mb.add("big#1", KEY_SW, now=1.0, request_id="big")
        mb.add("small", KEY, now=0.0)           # older, partial
        assert mb.due(now=1.0, idle=1) == [(KEY_SW, ["big#0", "big#1"])]
        assert mb.depth() == 1
        mb.add("big#2", KEY_SW, now=1.0, request_id="big")
        mb.add("big#3", KEY_SW, now=1.0, request_id="big")
        # two idle: the full batch takes one, the partial the other
        assert mb.due(now=1.0, idle=2) == [(KEY_SW, ["big#2", "big#3"]),
                                           (KEY, ["small"])]

    def test_limit_still_caps_the_total(self):
        mb = MicroBatcher(max_batch=4, max_delay_s=10.0)
        keys = [BatchKey(strategy="full_volume", shape=(1, 4, 4, 4),
                         dtype=f"dt{k}") for k in range(4)]
        for k, key in enumerate(keys):
            mb.add(f"r{k}", key, now=0.0)
        assert len(mb.due(now=0.0, limit=1, idle=3)) == 1
        assert mb.depth() == 3
        assert len(mb.due(now=0.0, limit=None, idle=3)) == 3
        assert mb.depth() == 0

    def test_fresh_request_outranks_served_chunk_group(self):
        """Among early groups the weighted-fair order still decides: a
        fresh small request goes ahead of the leftover chunks of a
        large request that already used release slots, though those
        chunks arrived first."""
        mb = MicroBatcher(max_batch=4, max_delay_s=10.0)
        for ci in range(6):
            mb.add(f"big#c{ci}", KEY_SW, now=0.0, request_id="big")
        assert mb.due(now=0.0) == [
            (KEY_SW, [f"big#c{ci}" for ci in range(4)])]
        mb.add("small", KEY, now=0.001)
        assert mb.due(now=0.002, idle=1) == [(KEY, ["small"])]
        assert mb.depth() == 2
        assert mb.due(now=0.002, idle=1) == [
            (KEY_SW, ["big#c4", "big#c5"])]
