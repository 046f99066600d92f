"""Fault tolerance in the trial runner: retry policies, checkpoint
resume, fault injection, and the scheduler rollback hooks."""

from pathlib import Path

import numpy as np
import pytest

from repro.fault_tolerance import (
    CheckpointHandle,
    FaultInjector,
    RetryPolicy,
)
from repro.raysim import GridSearch, TrialStatus, tune_run
from repro.raysim.tune import ASHAScheduler, Trial
from repro.telemetry import TelemetryHub


class TestRetryPolicy:
    def test_defaults(self):
        p = RetryPolicy()
        assert p.max_retries == 0
        assert p.max_attempts == 1
        assert p.resume == "checkpoint"

    def test_backoff_schedule(self):
        p = RetryPolicy(max_retries=3, backoff_s=2.0, backoff_factor=3.0)
        assert p.delay(0) == 0.0
        assert p.delay(1) == pytest.approx(2.0)
        assert p.delay(2) == pytest.approx(6.0)
        assert p.delay(3) == pytest.approx(18.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(resume="sometimes")
        with pytest.raises(ValueError):
            RetryPolicy(backoff_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)


class TestFaultInjector:
    def test_crashes_at_configured_epoch_then_lets_progress(self):
        reports = []

        def trainable(config, reporter):
            for e in range(5):
                reporter(epoch=e, score=float(e))
                reports.append(e)
            return None

        injector = FaultInjector(crash_epochs=(2,)).wrap(trainable)
        analysis = tune_run(injector, GridSearch({"a": [1]}),
                            retry_policy=RetryPolicy(max_retries=1))
        assert injector.faults_injected == 1
        assert analysis.trials[0].status is TrialStatus.TERMINATED
        # the crashed report never lands; the retry re-runs everything
        assert reports == [0, 1, 0, 1, 2, 3, 4]

    def test_exhausted_crash_list_without_retries_errors(self):
        def trainable(config, reporter):
            reporter(epoch=0, score=0.0)
            return None

        injector = FaultInjector(trainable, crash_epochs=(0,))
        analysis = tune_run(injector, GridSearch({"a": [1]}))
        trial = analysis.trials[0]
        assert trial.status is TrialStatus.ERROR
        assert "InjectedFault" in trial.error

    def test_random_faults_seeded_reproducible(self):
        def run_once():
            def trainable(config, reporter):
                for e in range(20):
                    reporter(epoch=e, score=0.0)
                return None

            injector = FaultInjector(trainable, p_crash=0.3, seed=7)
            tune_run(injector, GridSearch({"a": [1]}),
                     retry_policy=RetryPolicy(max_retries=50))
            return injector.faults_injected

        assert run_once() == run_once()

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultInjector(p_crash=1.0)
        with pytest.raises(ValueError):
            FaultInjector()(({}), None)


def _checkpointing_trainable(ckpt_dir: Path, epochs: int = 6,
                             starts: list | None = None):
    """Deterministic toy training: per-epoch re-seeded RNG walks a scalar
    state, checkpointed to disk every epoch -- so a checkpoint-resumed
    run is bit-identical to an uninterrupted one."""

    def trainable(config, reporter):
        resume = reporter.resume_from
        if resume is not None and resume.path:
            state = float(np.load(resume.path))
            start = resume.epoch + 1
        else:
            state, start = 0.0, 0
        if starts is not None:
            starts.append(start)
        for epoch in range(start, epochs):
            rng = np.random.default_rng(1_000 + epoch)
            state = 0.9 * state + rng.standard_normal()
            path = ckpt_dir / f"ck_{epoch:02d}.npy"
            np.save(path, np.asarray(state))
            reporter(epoch=epoch, score=state, checkpoint=str(path))
        return {"score": state}

    return trainable


class TestCheckpointResume:
    EPOCHS = 6

    def _run(self, tmp_path, name, injector=None, policy=None):
        d = tmp_path / name
        d.mkdir()
        starts: list[int] = []
        trainable = _checkpointing_trainable(d, self.EPOCHS, starts)
        runnable = injector.wrap(trainable) if injector else trainable
        analysis = tune_run(runnable, GridSearch({"a": [1]}),
                            retry_policy=policy)
        return analysis.trials[0], starts

    def test_resumed_run_bit_identical_to_uninjected(self, tmp_path):
        baseline, base_starts = self._run(tmp_path, "base")
        trial, starts = self._run(
            tmp_path, "injected",
            injector=FaultInjector(crash_epochs=(3,)),
            policy=RetryPolicy(max_retries=2, resume="checkpoint"),
        )
        assert base_starts == [0]
        # crash while reporting epoch 3 -> last durable checkpoint is
        # epoch 2 -> the retry starts at epoch 3
        assert starts == [0, 3]
        assert trial.status is TrialStatus.TERMINATED
        assert trial.retries == 1
        assert trial.restored_epoch == 2
        # same number of epochs, no duplicated rows
        assert [r["epoch"] for r in trial.results] == list(range(self.EPOCHS))
        assert [r["epoch"] for r in baseline.results] == list(range(self.EPOCHS))
        # bit-identical metrics, epoch by epoch, and final
        for a, b in zip(trial.results, baseline.results):
            assert a["score"] == b["score"]
        assert trial.final["score"] == baseline.final["score"]

    def test_scratch_retrains_from_epoch_zero(self, tmp_path):
        baseline, _ = self._run(tmp_path, "base")
        trial, starts = self._run(
            tmp_path, "scratch",
            injector=FaultInjector(crash_epochs=(3,)),
            policy=RetryPolicy(max_retries=1, resume="scratch"),
        )
        assert starts == [0, 0]
        assert trial.restored_epoch is None
        assert [r["epoch"] for r in trial.results] == list(range(self.EPOCHS))
        assert trial.final["score"] == baseline.final["score"]

    def test_no_published_checkpoint_falls_back_to_scratch(self):
        starts = []

        def trainable(config, reporter):
            starts.append(getattr(reporter.resume_from, "epoch", None))
            raise RuntimeError("crash before any checkpoint")

        analysis = tune_run(
            trainable, GridSearch({"a": [1]}),
            retry_policy=RetryPolicy(max_retries=1, resume="checkpoint"),
        )
        trial = analysis.trials[0]
        assert starts == [None, None]
        assert trial.restored_epoch is None
        assert trial.status is TrialStatus.ERROR

    def test_retry_and_restore_counters(self, tmp_path):
        hub = TelemetryHub()
        d = tmp_path / "ck"
        d.mkdir()
        trainable = _checkpointing_trainable(d, self.EPOCHS)
        tune_run(FaultInjector(trainable, crash_epochs=(3,)),
                 GridSearch({"a": [1]}),
                 retry_policy=RetryPolicy(max_retries=2),
                 telemetry=hub)
        assert hub.metrics.get("tune_retries_total").value == 1.0
        assert hub.metrics.get("tune_restores_total").value == 1.0

    def test_reporter_checkpoint_key_not_recorded_as_metric(self):
        def trainable(config, reporter):
            reporter(epoch=0, score=1.0, checkpoint="/tmp/ck.npz")
            return None

        analysis = tune_run(trainable, GridSearch({"a": [1]}))
        (row,) = analysis.trials[0].results
        assert "checkpoint" not in row

    def test_checkpoint_handle_equality_ignores_meta(self):
        a = CheckpointHandle(epoch=3, path="x", meta={"k": 1})
        b = CheckpointHandle(epoch=3, path="x", meta={"k": 2})
        assert a == b


class TestASHARungMatching:
    """Regression: rungs must trigger on *crossing* (t >= rung time),
    not exact equality -- trials reporting every k epochs used to skip
    every rung and never be early-stopped."""

    def test_sparse_reporting_still_hits_rungs(self):
        asha = ASHAScheduler("dice", grace_period=2, reduction_factor=2,
                             max_t=16)  # rungs at t = 2, 4, 8

        def trainable(config, reporter):
            for e in (3, 6, 9, 12):  # never lands exactly on a rung
                if not reporter(epoch=e, dice=config["q"]):
                    return None

        analysis = tune_run(trainable,
                            GridSearch({"q": [0.9, 0.8, 0.2, 0.1]}),
                            scheduler=asha, metric="dice")
        by_q = {t.config["q"]: t for t in analysis.trials}
        assert by_q[0.1].status is TrialStatus.STOPPED
        assert by_q[0.9].status is TrialStatus.TERMINATED

    def test_one_report_can_cross_several_rungs(self):
        asha = ASHAScheduler("dice", grace_period=1, reduction_factor=2,
                             max_t=8)  # rungs at t = 1, 2, 4
        trial = Trial("t0", {})
        asha.on_result(trial, {"epoch": 5, "dice": 0.4})
        assert asha._rungs == {0: [0.4], 1: [0.4], 2: [0.4]}

    def test_non_integer_time_attr(self):
        asha = ASHAScheduler("dice", time_attr="t", grace_period=1,
                             reduction_factor=2, max_t=4)  # rungs 1, 2
        trial = Trial("t0", {})
        asha.on_result(trial, {"t": 2.5, "dice": 0.4})
        assert asha._rungs == {0: [0.4], 1: [0.4]}

    def test_each_rung_recorded_once(self):
        asha = ASHAScheduler("dice", grace_period=1, reduction_factor=2,
                             max_t=4)
        trial = Trial("t0", {})
        asha.on_result(trial, {"epoch": 1, "dice": 0.5})
        asha.on_result(trial, {"epoch": 3, "dice": 0.6})
        assert asha._rungs == {0: [0.5], 1: [0.6]}


class TestASHARetryRollback:
    """Regression: a crashed attempt's rung records used to linger and
    skew the cutoff for every later trial."""

    def test_scratch_retry_rolls_back_rung_records(self):
        asha = ASHAScheduler("dice", grace_period=1, reduction_factor=2,
                             max_t=4)
        attempts = {"n": 0}

        def trainable(config, reporter):
            attempts["n"] += 1
            if attempts["n"] == 1:
                reporter(epoch=1, dice=1.0)  # lost with the crash
                raise RuntimeError("crash")
            for e in range(1, 4):
                if not reporter(epoch=e, dice=0.1):
                    return None

        tune_run(trainable, GridSearch({"a": [1]}), scheduler=asha,
                 retry_policy=RetryPolicy(max_retries=1, resume="scratch"))
        assert asha._rungs[0] == [0.1]
        assert asha._rungs[1] == [0.1]

    def test_stale_crash_results_do_not_stop_later_trials(self):
        asha = ASHAScheduler("dice", grace_period=1, reduction_factor=2,
                             max_t=4)
        attempts = {"n": 0}

        def trainable(config, reporter):
            if config["q"] == "flaky":
                attempts["n"] += 1
                if attempts["n"] == 1:
                    reporter(epoch=1, dice=0.9)
                    raise RuntimeError("crash")
                dice = 0.1
            else:
                dice = 0.5
            for e in range(1, 5):
                if not reporter(epoch=e, dice=dice):
                    return None

        analysis = tune_run(
            trainable, GridSearch({"q": ["flaky", "steady"]}),
            scheduler=asha,
            retry_policy=RetryPolicy(max_retries=1, resume="scratch"),
        )
        steady = next(t for t in analysis.trials
                      if t.config["q"] == "steady")
        # without the rollback the crashed 0.9 raises the rung cutoff
        # above 0.5 and stops the steady trial
        assert steady.status is TrialStatus.TERMINATED

    def test_checkpoint_retry_keeps_durable_entries(self):
        asha = ASHAScheduler("dice", grace_period=1, reduction_factor=2,
                             max_t=8)  # rungs 1, 2, 4
        trial = Trial("t0", {})
        asha.on_result(trial, {"epoch": 1, "dice": 0.5})
        asha.on_result(trial, {"epoch": 2, "dice": 0.6})
        asha.on_result(trial, {"epoch": 4, "dice": 0.7})
        asha.on_trial_retry(trial, keep_up_to=2)
        # epochs <= 2 came from checkpointed progress and stay
        assert asha._rungs == {0: [0.5], 1: [0.6], 2: []}

    def test_retry_of_unseen_trial_is_a_noop(self):
        asha = ASHAScheduler("dice")
        asha.on_trial_retry(Trial("never_reported", {}), keep_up_to=None)
        assert asha._rungs == {}
