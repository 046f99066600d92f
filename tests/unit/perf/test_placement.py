"""Placement / makespan policy tests."""

import pytest

from repro.perf import fifo_schedule, lpt_schedule, makespan_lower_bound


class TestFIFO:
    def test_single_worker_serialises(self):
        r = fifo_schedule([1, 2, 3], 1)
        assert r.makespan == 6.0
        assert [a[0] for a in r.assignments] == [0, 0, 0]

    def test_greedy_earliest_available(self):
        # workers: w0 gets 3, w1 gets 2; trial 2 goes to w1 (free at 2)
        r = fifo_schedule([3, 2, 4], 2)
        assert r.assignments[2][0] == 1
        assert r.assignments[2][1] == 2.0
        assert r.makespan == 6.0

    def test_enough_workers_is_max(self):
        assert fifo_schedule([5, 1, 2], 3).makespan == 5.0

    def test_per_trial_overhead_added(self):
        r = fifo_schedule([1.0, 1.0], 1, per_trial_overhead=0.5)
        assert r.makespan == 3.0

    def test_empty(self):
        assert fifo_schedule([], 4).makespan == 0.0

    def test_worker_loads(self):
        r = fifo_schedule([3, 2, 4, 1], 2)
        loads = r.worker_loads(2)
        assert sum(loads) == 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            fifo_schedule([1], 0)
        with pytest.raises(ValueError):
            fifo_schedule([-1], 2)


class TestLPT:
    def test_sorts_longest_first(self):
        # A long job submitted last ruins FIFO; LPT schedules it first.
        bad_order = [1, 1, 1, 1, 6]
        assert lpt_schedule(bad_order, 2).makespan == 6.0
        assert fifo_schedule(bad_order, 2).makespan == 8.0

    def test_lpt_within_4_3_of_lower_bound(self):
        durations = [5, 4, 3, 3, 3]
        lb = makespan_lower_bound(durations, 2)  # 9
        got = lpt_schedule(durations, 2).makespan
        assert lb <= got <= (4 / 3) * lb + 1e-9

    def test_lpt_never_worse_than_fifo_here(self):
        cases = [
            ([8, 7, 6, 5, 4, 3], 3),
            ([10, 1, 1, 1, 1, 1, 1, 1, 1, 1], 2),
            ([2, 2, 2, 2], 4),
        ]
        for durations, n in cases:
            assert lpt_schedule(durations, n).makespan <= \
                fifo_schedule(durations, n).makespan + 1e-12

    def test_assignments_in_input_order(self):
        r = lpt_schedule([1, 9, 2], 2)
        # assignments indexed by input position despite sorted execution
        assert r.assignments[1][2] - r.assignments[1][1] == 9.0


class TestLowerBound:
    def test_both_bounds(self):
        assert makespan_lower_bound([5, 1, 1], 4) == 5.0       # longest trial
        assert makespan_lower_bound([2, 2, 2, 2], 2) == 4.0    # total / workers

    def test_schedules_respect_bound(self):
        durations = [3.0, 1.5, 4.2, 2.7, 0.9, 5.1]
        for n in (1, 2, 3, 6):
            lb = makespan_lower_bound(durations, n)
            assert fifo_schedule(durations, n).makespan >= lb - 1e-12
            assert lpt_schedule(durations, n).makespan >= lb - 1e-12

    def test_overhead_in_bound(self):
        assert makespan_lower_bound([1.0], 1, per_trial_overhead=0.5) == 1.5

    def test_empty(self):
        assert makespan_lower_bound([], 3) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            makespan_lower_bound([1], 0)
