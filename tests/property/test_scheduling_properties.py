"""Property-based tests on hybrid makespans and failure injection."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.failures import FailureModel, run_with_failures
from repro.perf import fifo_schedule, makespan_lower_bound

SMALL = {"max_examples": 30, "deadline": None}


class TestFailureProperties:
    @settings(**SMALL)
    @given(
        durations=st.lists(st.floats(1.0, 50.0), min_size=1, max_size=10),
        workers=st.integers(1, 6),
        seed=st.integers(0, 50),
    )
    def test_failures_respect_work_conservation(self, durations, workers, seed):
        """Failures cannot beat the work/longest-trial lower bound.

        (They CAN beat the healthy greedy-FIFO makespan: a failed trial
        re-queues at the back, and Graham's list-scheduling anomaly
        means reordering sometimes packs better -- hypothesis found
        exactly that counterexample, so the honest invariant is the
        bound, not the healthy schedule.)
        """
        flaky = run_with_failures(
            durations, workers,
            FailureModel(mtbf_s=40.0, repair_s=5.0), seed=seed,
        )
        lb = makespan_lower_bound(durations, workers)
        assert flaky.makespan >= lb - 1e-9
        assert flaky.wasted_seconds >= 0
        if flaky.num_failures == 0:
            healthy = fifo_schedule(durations, workers).makespan
            assert flaky.makespan == healthy  # no anomaly without failures

    @settings(**SMALL)
    @given(
        durations=st.lists(st.floats(1.0, 50.0), min_size=1, max_size=8),
        workers=st.integers(1, 4),
        seed=st.integers(0, 50),
    )
    def test_every_trial_completes_exactly_once(self, durations, workers, seed):
        res = run_with_failures(
            durations, workers, FailureModel(mtbf_s=30.0, repair_s=2.0),
            seed=seed,
        )
        done = [e.name for e in res.timeline.events if e.category == "train"]
        assert sorted(done) == sorted(
            f"trial_{i:02d}" for i in range(len(durations))
        )


class TestHybridProperties:
    @settings(**SMALL)
    @given(num_gpus=st.integers(1, 32), g=st.integers(1, 8))
    def test_hybrid_respects_makespan_bound(self, num_gpus, g):
        from repro.core.simulated import simulate_hybrid_search
        from repro.perf import calibrated_model, paper_search_grid

        if g > num_gpus:
            return
        model = calibrated_model()
        grid = paper_search_grid()[:6]  # keep the property cheap
        # seed=None -> expected (jitter-free) durations match the bound
        result, _ = simulate_hybrid_search(grid, model, num_gpus, g,
                                           seed=None)
        durations = [model.trial_time(c, g) for c in grid]
        slots = num_gpus // g
        lb = makespan_lower_bound(durations, slots)
        assert result.elapsed_seconds >= lb - 1e-6
