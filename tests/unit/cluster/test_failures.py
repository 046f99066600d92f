"""Failure injection tests."""

import numpy as np
import pytest

from repro.cluster import FailureModel, run_with_failures
from repro.cluster.failures import expected_slowdown
from repro.fault_tolerance import RetryPolicy
from repro.perf import fifo_schedule


class TestFailureModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            FailureModel(mtbf_s=0)
        with pytest.raises(ValueError):
            FailureModel(mtbf_s=10, repair_s=-1)


class TestRunWithFailures:
    DURATIONS = [100.0, 80.0, 120.0, 60.0]

    def test_no_failures_matches_fifo(self):
        model = FailureModel(mtbf_s=1e12)  # failures effectively never
        res = run_with_failures(self.DURATIONS, 2, model, seed=0)
        assert res.num_failures == 0
        assert res.wasted_seconds == 0.0
        assert res.makespan == pytest.approx(
            fifo_schedule(self.DURATIONS, 2).makespan
        )

    def test_failures_extend_makespan(self):
        healthy = run_with_failures(
            self.DURATIONS, 2, FailureModel(mtbf_s=1e12), seed=0
        )
        flaky = run_with_failures(
            self.DURATIONS, 2, FailureModel(mtbf_s=150.0, repair_s=30.0),
            seed=0,
        )
        assert flaky.num_failures > 0
        assert flaky.makespan > healthy.makespan
        assert flaky.wasted_seconds > 0

    def test_all_trials_eventually_finish(self):
        res = run_with_failures(
            [50.0] * 6, 3, FailureModel(mtbf_s=80.0, repair_s=5.0), seed=1
        )
        finished = [e for e in res.timeline.events if e.category == "train"]
        assert len(finished) == 6

    def test_attempts_run_on_their_own_gpu_lane(self):
        """One lane per GPU: a lane's spans never overlap, so the
        utilisation is the GPUs' busy share, not the union of trials."""
        res = run_with_failures(
            [100.0, 80.0, 120.0, 60.0, 90.0, 70.0], 3,
            FailureModel(mtbf_s=100.0, repair_s=10.0), seed=4, num_epochs=10,
        )
        assert res.num_failures > 0
        lanes = res.timeline.resources()
        assert set(lanes) <= {"gpu0", "gpu1", "gpu2"}
        for lane in lanes:
            spans = sorted((e.start, e.end) for e in res.timeline.events
                           if e.resource == lane)
            for (_, e1), (s2, _) in zip(spans, spans[1:]):
                assert s2 >= e1
        assert res.timeline.mean_utilization() < 1.0

    def test_seeded_reproducible(self):
        m = FailureModel(mtbf_s=100.0, repair_s=10.0)
        a = run_with_failures(self.DURATIONS, 2, m, seed=5)
        b = run_with_failures(self.DURATIONS, 2, m, seed=5)
        assert a.makespan == b.makespan
        assert a.num_failures == b.num_failures

    def test_validation(self):
        with pytest.raises(ValueError):
            run_with_failures([1.0], 0, FailureModel(mtbf_s=10))
        with pytest.raises(ValueError):
            run_with_failures([-1.0], 1, FailureModel(mtbf_s=10))

    def test_expected_slowdown_pins_run_with_failures(self):
        """The analytic slowdown must match the simulator itself (not
        just a hand-rolled Monte-Carlo): default semantics are
        restart-from-scratch, exactly the formula's assumption."""
        model = FailureModel(mtbf_s=200.0, repair_s=20.0)
        d = 100.0
        ratios = [
            run_with_failures([d], 1, model, seed=s).makespan / d
            for s in range(600)
        ]
        assert expected_slowdown(d, model) == pytest.approx(
            float(np.mean(ratios)), rel=0.1
        )

    def test_expected_slowdown_analytic(self):
        """Monte-Carlo completion time matches the renewal formula."""
        model = FailureModel(mtbf_s=200.0, repair_s=20.0)
        d = 100.0
        rng = np.random.default_rng(0)
        samples = []
        for _ in range(4000):
            t = 0.0
            while True:
                f = rng.exponential(model.mtbf_s)
                if f >= d:
                    t += d
                    break
                t += f + model.repair_s
            samples.append(t)
        mc = np.mean(samples) / d
        assert expected_slowdown(d, model) == pytest.approx(mc, rel=0.05)


class TestEpochCheckpointsAndRetryPolicy:
    """The reworked run_with_failures: discrete per-epoch checkpoints,
    RetryPolicy semantics, and per-trial retry records."""

    def test_kept_work_snaps_to_epoch_boundaries(self):
        res = run_with_failures(
            [100.0], 1, FailureModel(mtbf_s=40.0, repair_s=5.0),
            seed=2, num_epochs=10,
        )
        assert res.num_failures > 0
        for rec in res.retries:
            assert rec.kept_work_s % 10.0 == pytest.approx(0.0, abs=1e-9)
            if rec.kept_work_s > 0:
                assert rec.resumed_epoch == int(round(rec.kept_work_s / 10.0))
            else:
                assert rec.resumed_epoch is None
            assert rec.lost_work_s >= 0.0

    def test_finished_trial_records_resume_epoch(self):
        res = run_with_failures(
            [100.0], 1, FailureModel(mtbf_s=40.0, repair_s=5.0),
            seed=2, num_epochs=10,
        )
        (train,) = [e for e in res.timeline.events if e.category == "train"]
        last_resume = res.retries[-1].resumed_epoch
        assert train.meta["resumed_epoch"] == last_resume
        assert train.meta["attempt"] == len(res.retries)

    def test_scratch_discards_all_progress(self):
        res = run_with_failures(
            [100.0], 1, FailureModel(mtbf_s=60.0, repair_s=5.0),
            seed=2, num_epochs=10,
            retry_policy=RetryPolicy(max_retries=10**6, resume="scratch"),
        )
        assert res.num_failures > 0
        assert all(r.kept_work_s == 0.0 for r in res.retries)
        assert all(r.resumed_epoch is None for r in res.retries)
        assert res.wasted_seconds == pytest.approx(
            sum(r.lost_work_s for r in res.retries)
        )

    def test_checkpoint_resume_no_slower_than_scratch(self):
        m = FailureModel(mtbf_s=60.0, repair_s=10.0)
        kw = dict(seed=2, num_epochs=20)
        ckpt = run_with_failures(
            [100.0], 1, m,
            retry_policy=RetryPolicy(max_retries=10**6), **kw,
        )
        scratch = run_with_failures(
            [100.0], 1, m,
            retry_policy=RetryPolicy(max_retries=10**6, resume="scratch"),
            **kw,
        )
        assert ckpt.num_failures > 0
        assert ckpt.makespan <= scratch.makespan + 1e-9

    def test_max_retries_abandons_trial(self):
        res = run_with_failures(
            [1000.0], 1, FailureModel(mtbf_s=5.0, repair_s=1.0),
            seed=0, num_epochs=10,
            retry_policy=RetryPolicy(max_retries=2),
        )
        assert res.num_abandoned == 1
        assert not [e for e in res.timeline.events if e.category == "train"]
        abandoned = [e for e in res.timeline.events
                     if e.category == "abandoned"]
        assert len(abandoned) == 1
        assert len(res.retries) == 3  # max_attempts failed attempts
        assert res.attempts() == {"trial_00": 3}

    def test_retries_reproducible_by_seed(self):
        m = FailureModel(mtbf_s=80.0, repair_s=5.0)
        kw = dict(seed=9, num_epochs=10)
        a = run_with_failures([100.0, 80.0], 2, m, **kw)
        b = run_with_failures([100.0, 80.0], 2, m, **kw)
        assert a.retries == b.retries  # RetryRecord is a frozen dataclass
        assert a.makespan == b.makespan

    def test_retry_records_in_chrome_trace(self):
        res = run_with_failures(
            [100.0], 1, FailureModel(mtbf_s=30.0, repair_s=5.0),
            seed=2, num_epochs=10,
        )
        assert res.num_failures > 0
        trace = res.timeline.to_chrome_trace()
        fails = [e for e in trace if e["cat"] == "failure"]
        assert len(fails) == res.num_failures
        for e in fails:
            assert "attempt" in e["args"]
            assert "kept_work_s" in e["args"]
            assert "lost_work_s" in e["args"]

    def test_num_epochs_validation(self):
        with pytest.raises(ValueError):
            run_with_failures([1.0, 2.0], 1, FailureModel(mtbf_s=10),
                              num_epochs=[5])
        with pytest.raises(ValueError):
            run_with_failures([1.0], 1, FailureModel(mtbf_s=10),
                              num_epochs=0)


class TestPaperGridPinned:
    """Exact outcomes of the shipped call (paper grid, seed-1 jitter,
    Tune overhead, per-epoch checkpoints), so a rewrite of the placement
    loop cannot move a single failure time or resume epoch."""

    EXPECTED = {
        (8, "default"): (
            25316.584603354906, 5, 92.47919819296794, 0,
            [("trial_04", 0, 4983.640089413918, 206),
             ("trial_08", 0, 6867.260782184236, 54),
             ("trial_15", 0, 15677.304425044435, 136),
             ("trial_11", 0, 15928.626722388157, 245),
             ("trial_13", 0, 18266.99788435986, 233)],
        ),
        (8, "scratch"): (
            28495.974603890965, 5, 30803.97029605179, 0,
            [("trial_04", 0, 4983.640089413918, None),
             ("trial_08", 0, 6867.260782184236, None),
             ("trial_15", 0, 15677.304425044435, None),
             ("trial_11", 0, 15928.626722388157, None),
             ("trial_13", 0, 18266.99788435986, None)],
        ),
        (32, "default"): (
            10803.681021517092, 5, 92.47919819296794, 0,
            [("trial_08", 0, 1283.6206927703176, 54),
             ("trial_04", 0, 4983.640089413918, 206),
             ("trial_15", 0, 5562.467331219228, 136),
             ("trial_13", 0, 9012.23615636147, 233),
             ("trial_11", 0, 9962.006026286856, 245)],
        ),
        (32, "scratch"): (
            20713.609912861168, 5, 30803.97029605179, 0,
            [("trial_08", 0, 1283.6206927703176, None),
             ("trial_04", 0, 4983.640089413918, None),
             ("trial_15", 0, 5562.467331219228, None),
             ("trial_13", 0, 9012.23615636147, None),
             ("trial_11", 0, 9962.006026286856, None)],
        ),
    }

    @pytest.mark.parametrize("key", sorted(EXPECTED))
    def test_paper_grid_outcome_is_pinned(self, key):
        from repro.perf import calibrated_model, paper_search_grid, trial_durations

        num_gpus, policy = key
        m = calibrated_model()
        grid = paper_search_grid()
        res = run_with_failures(
            trial_durations(m, grid, 1, 1), num_gpus,
            FailureModel(mtbf_s=43200.0, repair_s=600.0), seed=1,
            per_trial_overhead=m.params.tune_trial_overhead_s,
            num_epochs=[c.epochs for c in grid],
            retry_policy=(RetryPolicy(max_retries=1, resume="scratch")
                          if policy == "scratch" else None),
        )
        got = (res.makespan, res.num_failures, res.wasted_seconds,
               res.num_abandoned,
               [(r.trial, r.attempt, r.failed_at_s, r.resumed_epoch)
                for r in res.retries])
        assert got == self.EXPECTED[key]
