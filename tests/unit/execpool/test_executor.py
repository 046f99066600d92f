"""Process-pool trial executor tests.

Cheap picklable trainables at module level (the pool ships them to the
workers), 2-worker pools, trial budgets of a few epochs -- the goal is
driver semantics (streaming, stops, retries, shutdown), not throughput.
"""

import numpy as np
import pytest

from repro.execpool import (
    ProcessPoolTrialExecutor,
    SharedArrayStore,
    TrialExecutionError,
    run_trials_parallel,
)
from repro.fault_tolerance import RetryPolicy
from repro.raysim.search import GridSearch
from repro.raysim.tune import FIFOScheduler, TrialScheduler, TrialStatus, \
    tune_run
from repro.telemetry import TelemetryHub


def quadratic_trainable(config, reporter):
    score = -(config["x"] - 3.0) ** 2
    for epoch in range(3):
        if not reporter(epoch=epoch, score=score + epoch * 0.1):
            return None
    return {"score": score + 0.2, "x": config["x"]}


def slow_trainable(config, reporter):
    import time

    for epoch in range(100):
        if not reporter(epoch=epoch, score=float(epoch)):
            return None
        time.sleep(0.05)  # leave the async stop time to arrive
    return {"score": 100.0}


def crash_then_succeed(config, reporter):
    if reporter.attempt < config.get("crashes", 1):
        raise RuntimeError("synthetic worker crash")
    reporter(epoch=0, score=1.0)
    return {"score": 1.0, "attempt": reporter.attempt}


def checkpoint_then_crash(config, reporter):
    """Publishes ``checkpoint=`` every epoch; attempt 0 crashes at epoch 2,
    the retry resumes after the last checkpointed epoch."""
    resume = reporter.resume_from
    for epoch in range(0 if resume is None else resume.epoch + 1, 4):
        if reporter.attempt == 0 and epoch == 2:
            raise RuntimeError("synthetic crash at epoch 2")
        reporter(epoch=epoch, score=config["x"] * epoch,
                 checkpoint=f"ck_{epoch}")
    return {"score": config["x"] * 3}


def always_crash(config, reporter):
    raise RuntimeError("hopeless")


def shared_sum_factory(handle):
    att = handle.attach()

    def trainable(config, reporter):
        reporter(epoch=0, score=0.0)
        return {"total": float(att["values"].sum()) + config["bias"]}

    return trainable


class StopAfterFirstReport(FIFOScheduler):
    """Stops every trial at its first report -- exercises the
    asynchronous stop broadcast."""

    def on_result(self, trial, result):
        return TrialScheduler.STOP


class TestPool:
    def test_runs_trials_and_streams_results(self):
        configs = [{"x": 1.0}, {"x": 3.0}, {"x": 5.0}]
        with ProcessPoolTrialExecutor(quadratic_trainable,
                                      max_workers=2) as pool:
            trials = run_trials_parallel(pool, configs,
                                         metric="score")
        assert [t.trial_id for t in trials] == [
            "trial_0000", "trial_0001", "trial_0002"]
        assert all(t.status is TrialStatus.TERMINATED for t in trials)
        assert [len(t.results) for t in trials] == [3, 3, 3]
        assert trials[1].final["score"] == pytest.approx(0.2)
        assert trials[0].final["x"] == 1.0

    def test_scheduler_stop_broadcast(self):
        with ProcessPoolTrialExecutor(slow_trainable,
                                      max_workers=2) as pool:
            trials = run_trials_parallel(pool, [{"x": 0.0}, {"x": 1.0}],
                                         scheduler=StopAfterFirstReport(),
                                         metric="score")
        assert all(t.status is TrialStatus.STOPPED for t in trials)
        # stopped at (or shortly after) the first report, never the
        # full budget
        assert all(len(t.results) < 100 for t in trials)

    def test_retry_resubmits_crashed_attempt(self):
        with ProcessPoolTrialExecutor(crash_then_succeed,
                                      max_workers=2) as pool:
            trials = run_trials_parallel(
                pool, [{"crashes": 1}],
                retry_policy=RetryPolicy(max_retries=1, resume="scratch"),
                metric="score")
        (t,) = trials
        assert t.status is TrialStatus.TERMINATED
        assert t.retries == 1
        assert t.final["attempt"] == 1
        # the crashed attempt's rows were discarded on restart
        assert [r["epoch"] for r in t.results] == [0]

    def test_retries_exhausted_marks_error(self):
        with ProcessPoolTrialExecutor(always_crash, max_workers=1) as pool:
            trials = run_trials_parallel(
                pool, [{}], retry_policy=RetryPolicy(max_retries=1))
        (t,) = trials
        assert t.status is TrialStatus.ERROR
        assert "hopeless" in t.error
        assert t.retries == 1

    def test_raise_on_error(self):
        with ProcessPoolTrialExecutor(always_crash, max_workers=1) as pool:
            with pytest.raises(TrialExecutionError, match="hopeless"):
                run_trials_parallel(pool, [{}], raise_on_error=True)

    def test_add_worker_scales_up_and_serves_tasks(self):
        with ProcessPoolTrialExecutor(quadratic_trainable,
                                      max_workers=1) as pool:
            assert pool.worker_count() == 1
            wid = pool.add_worker()
            assert wid == 1
            assert pool.worker_count() == 2
            trials = run_trials_parallel(pool, [{"x": float(i)}
                                                for i in range(4)],
                                         metric="score")
            assert all(t.status is TrialStatus.TERMINATED for t in trials)

    def test_retire_worker_drains_then_exits(self):
        with ProcessPoolTrialExecutor(quadratic_trainable,
                                      max_workers=2) as pool:
            pool.retire_worker(1)
            pool.retire_worker(1)          # idempotent
            # the retiring worker announces itself then exits
            deadline = 10.0
            import time as _time

            t0 = _time.monotonic()
            retired = False
            while _time.monotonic() - t0 < deadline:
                kind, *payload = pool.next_message(timeout=deadline)
                if kind == "retired":
                    assert payload[0] == 1
                    retired = True
                    break
            assert retired
            t0 = _time.monotonic()
            while pool._procs[1].is_alive():
                assert _time.monotonic() - t0 < deadline
                _time.sleep(0.01)
            # a retired worker is a drain, not a failure
            assert pool.dead_workers() == []
            assert pool.worker_count() == 1
            # the surviving worker still serves the queue
            trials = run_trials_parallel(pool, [{"x": 2.0}],
                                         metric="score")
            assert trials[0].status is TrialStatus.TERMINATED

    def test_short_next_message_timeout_returns_on_time(self):
        """A short timeout on an idle pool returns at the timeout, not
        after a whole liveness-poll slice (0.2 s)."""
        import time as _time

        with ProcessPoolTrialExecutor(quadratic_trainable, max_workers=1,
                                      heartbeat_s=60.0) as pool:
            t0 = _time.monotonic()
            with pytest.raises(TimeoutError):
                pool.next_message(timeout=0.02)
            assert _time.monotonic() - t0 < 0.15

    def test_retire_validates_worker_id(self):
        with ProcessPoolTrialExecutor(quadratic_trainable,
                                      max_workers=1) as pool:
            with pytest.raises(ValueError):
                pool.retire_worker(7)

    def test_requires_exactly_one_trainable(self):
        with pytest.raises(ValueError):
            ProcessPoolTrialExecutor()
        with pytest.raises(ValueError):
            ProcessPoolTrialExecutor(
                quadratic_trainable, trainable_factory=shared_sum_factory)

    def test_submit_after_shutdown_rejected(self):
        pool = ProcessPoolTrialExecutor(quadratic_trainable, max_workers=1)
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.submit("trial_0000", {"x": 0.0})
        pool.shutdown()  # idempotent

    def test_factory_attaches_shared_memory(self):
        """The per-worker factory runs in the worker and serves every
        trial from the attached (not copied) parent arrays."""
        values = np.arange(10, dtype=np.float64)
        with SharedArrayStore({"values": values}) as store:
            with ProcessPoolTrialExecutor(
                    trainable_factory=shared_sum_factory,
                    factory_kwargs={"handle": store.handle},
                    max_workers=2) as pool:
                trials = run_trials_parallel(
                    pool, [{"bias": 0.0}, {"bias": 1.0}], metric="total")
        totals = sorted(t.final["total"] for t in trials)
        assert totals == [45.0, 46.0]


def _serial_and_pooled(trainable, axes, **kw):
    """The same search run by serial ``tune_run`` and on a 2-worker pool,
    each path reporting into its own hub."""
    hubs = (TelemetryHub(), TelemetryHub())
    serial = tune_run(trainable, GridSearch(axes), telemetry=hubs[0], **kw)
    with ProcessPoolTrialExecutor(trainable, max_workers=2,
                                  telemetry=hubs[1]) as pool:
        pooled = tune_run(None, GridSearch(axes), telemetry=hubs[1],
                          executor=pool, **kw)
    return (serial, pooled), hubs


def _lifecycle_counters(hub) -> dict:
    names = {"tune_trials_total", "tune_trials_started_total",
             "tune_retries_total", "tune_restores_total",
             "scheduler_decisions_total"}
    return {(s["name"], tuple(sorted(s["labels"].items()))): s["value"]
            for s in hub.metrics.samples() if s["name"] in names}


class TestTuneRunIntegration:
    def test_process_executor_matches_serial(self):
        (serial, parallel), _ = _serial_and_pooled(
            quadratic_trainable, {"x": [0.0, 2.0, 3.0, 4.0]},
            metric="score")
        for a, b in zip(serial.trials, parallel.trials):
            assert a.config == b.config
            assert a.final == b.final
            assert a.results == b.results
        assert (serial.best_trial("score").config
                == parallel.best_trial("score").config)

    def test_serial_reporter_has_attempt(self):
        """One reporter contract: a trainable that reads
        ``reporter.attempt`` retries the same way on both paths."""
        (serial, pooled), _ = _serial_and_pooled(
            crash_then_succeed, {"crashes": [1]}, metric="score",
            retry_policy=RetryPolicy(max_retries=1, resume="scratch"))
        (trial,) = serial.trials
        assert trial.error is None
        assert trial.status is TrialStatus.TERMINATED
        assert trial.final == {"score": 1.0, "attempt": 1}
        (other,) = pooled.trials
        assert (trial.status, trial.retries, trial.results, trial.final) \
            == (other.status, other.retries, other.results, other.final)

    def test_lifecycle_counters_match_serial(self):
        (serial, pooled), hubs = _serial_and_pooled(
            checkpoint_then_crash, {"x": [1.0, 2.0]}, metric="score",
            retry_policy=RetryPolicy(max_retries=1))
        for a, b in zip(serial.trials, pooled.trials):
            assert a.restored_epoch == b.restored_epoch == 1
            assert a.results == b.results
            assert [r["epoch"] for r in a.results] == [0, 1, 2, 3]
        counters = _lifecycle_counters(hubs[0])
        assert counters == _lifecycle_counters(hubs[1])
        assert counters[("tune_retries_total", ())] == 2
        assert counters[("tune_restores_total", ())] == 2
        assert counters[("tune_trials_total",
                         (("status", "terminated"),))] == 2

    def test_rejects_unknown_executor(self):
        for executor in ("threads", "process", "serial"):
            with pytest.raises(ValueError):
                tune_run(quadratic_trainable, GridSearch({"x": [0.0]}),
                         metric="score", executor=executor)
