"""Process-pool trial execution: real multi-core experiment parallelism.

The paper's claim C1 is that *experiment parallelism* scales because
trials are self-contained (Ray Tune places each configuration on its own
worker, no cross-trial synchronisation).  This module is that execution
backend for the in-process reproduction: a pool of **persistent warm
worker processes** over ``multiprocessing``, fed from a work queue, with
as-completed result streaming back to the driver -- so a 4-trial search
on a 4-core host really runs on 4 cores instead of simulating it.

Protocol (all messages flow over one result queue, as-completed):

* ``("started", trial_id, worker_id, attempt)`` -- a worker picked the
  task up;
* ``("report", trial_id, attempt, metrics, checkpoint)`` -- one
  per-epoch reporter call, streamed live so the driver's scheduler
  (ASHA & co) reacts while the trial is still running;
* ``("telemetry", frame)`` -- a worker's span/metric frame (profiled
  runs only), queued *before* the terminal message so per-producer FIFO
  ordering lands it first;
* ``("heartbeat", payload)`` -- rate-limited liveness frames
  (worker id, pid, idle/busy state, current trial, cumulative busy
  seconds): idle workers beat from their task-queue poll loop, busy
  workers piggyback a beat on every reporter call.  The driver's
  :class:`~repro.telemetry.live.WorkerHealthBoard` folds these in and
  flags a worker whose beats stop arriving;
* ``("retired", worker_id, stats)`` -- a worker finished draining after
  :meth:`ProcessPoolTrialExecutor.retire_worker` and exited; paired
  with :meth:`ProcessPoolTrialExecutor.add_worker` this gives drivers
  (the ``repro.serve`` autoscaler) dynamic pool sizing;
* ``("done", trial_id, attempt, final, stopped, stats)`` /
  ``("error", trial_id, attempt, message, stats)`` -- terminal.

Heartbeating is cooperative: a trainable that computes for minutes
between reporter calls emits no busy beats, so drivers pair the
heartbeat window with the authoritative ``Process.is_alive`` check
(:meth:`ProcessPoolTrialExecutor.dead_workers`) before declaring a
worker lost.

Early stopping is **asynchronous** (exactly like Ray Tune's ASHA): the
driver broadcasts a stop for a trial on its control channel and the
worker notices at its next reporter call, so a trial may run a short way
past the decision.  Retries are driven from the parent: a crashed
attempt is resubmitted under the shared
:class:`repro.fault_tolerance.RetryPolicy`, carrying the last
checkpoint handle streamed by the crashed attempt so the worker resumes
instead of restarting.  The trial lifecycle itself -- trial ids,
report recording and checkpoint capture, the retry rollback, finishing
and the ``tune_*`` counters -- lives in one place,
:class:`repro.raysim.tune.TrialLifecycle`, which the serial loop of
:func:`repro.raysim.tune.tune_run` uses too; this module keeps only
message dispatch, attempt stamps, dead-worker fail-over and the pool's
gauges.

Trainables run *in the worker*, so they must be reconstructable there:
either a picklable ``(config, reporter) -> final`` callable, or a
picklable ``trainable_factory(**factory_kwargs)`` called once per worker
at startup -- the hook used to attach shared-memory datasets
(:mod:`repro.execpool.sharedmem`) before the first task arrives.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
import time
from typing import Callable

from ..fault_tolerance import CheckpointHandle, RetryPolicy

__all__ = ["ProcessPoolTrialExecutor", "TrialExecutionError",
           "run_trials_parallel"]


class TrialExecutionError(RuntimeError):
    """A trial failed in a worker with no retries left (raised only when
    the driver runs with ``raise_on_error``)."""


# Placed in a worker's stop_requests set when the driver asks it to
# drain-then-retire; never collides with trial ids ("trial_NNNN"...).
_RETIRE_SENTINEL = "__retire__"


def _default_start_method() -> str:
    # fork keeps warm start cheap (no re-import) and inherits the
    # already-built factory arguments; fall back to spawn elsewhere.
    return "fork" if "fork" in multiprocessing.get_all_start_methods() \
        else "spawn"


class _WorkerReporter:
    """The worker-side twin of :class:`repro.raysim.tune.Reporter`.

    Streams every reported row to the driver, mirrors the checkpoint
    capture contract (``checkpoint=...`` keyword, ``resume_from`` /
    ``last_checkpoint`` attributes), and polls the worker's control
    channel for asynchronous stop requests.
    """

    def __init__(self, trial_id: str, attempt: int, result_q, control_q,
                 stop_requests: set,
                 resume_from: CheckpointHandle | None = None,
                 heartbeat=None):
        self.trial_id = trial_id
        self.attempt = attempt
        self.stopped = False
        self.resume_from = resume_from
        self.last_checkpoint = resume_from
        self._result_q = result_q
        self._control_q = control_q
        self._stop_requests = stop_requests
        self._heartbeat = heartbeat
        self._n_results = 0

    def _drain_control(self) -> None:
        while True:
            try:
                kind, trial_id = self._control_q.get_nowait()
            except queue_mod.Empty:
                return
            if kind == "stop":
                self._stop_requests.add(trial_id)
            elif kind == "retire":
                # drain-then-retire: never interrupts the running trial,
                # the worker loop acts on the sentinel after it finishes
                self._stop_requests.add(_RETIRE_SENTINEL)

    def __call__(self, **metrics) -> bool:
        checkpoint = metrics.pop("checkpoint", None)
        self._n_results += 1
        if checkpoint is not None:
            epoch = metrics.get("epoch", self._n_results - 1)
            self.last_checkpoint = CheckpointHandle(epoch=epoch,
                                                    path=str(checkpoint))
        self._result_q.put(("report", self.trial_id, self.attempt,
                            dict(metrics),
                            None if checkpoint is None else str(checkpoint)))
        if self._heartbeat is not None:
            self._heartbeat("busy", self.trial_id)
        self._drain_control()
        if self.trial_id in self._stop_requests:
            self.stopped = True
            return False
        return True


def _worker_stats(worker_id: int, busy_s: float) -> dict:
    try:
        import resource

        max_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except Exception:
        max_rss_kb = 0
    return {"worker_id": worker_id, "pid": os.getpid(),
            "busy_seconds": busy_s, "max_rss_kb": int(max_rss_kb)}


def _worker_main(worker_id: int, task_q, result_q, control_q,
                 trainable, trainable_factory, factory_kwargs,
                 profile: bool = False, heartbeat_s: float = 1.0) -> None:
    """Persistent worker loop: build the trainable once, then serve
    tasks until the ``None`` shutdown sentinel arrives.

    With ``profile`` the worker installs a fresh process-local
    :class:`~repro.telemetry.TelemetryHub` (so instrumented code picked
    up via ``get_hub()`` records here instead of into the forked copy of
    the driver's hub) and streams a telemetry frame -- incremental spans
    plus cumulative metric samples, see
    :func:`repro.telemetry.aggregate.capture_frame` -- before every
    terminal message; per-producer FIFO ordering guarantees the driver
    ingests the frame before it retires the trial.
    """
    from ..raysim.tune import StopTrial

    worker_hub = None
    span_cursor = 0
    if profile:
        from ..telemetry import TelemetryHub, set_hub

        worker_hub = TelemetryHub()
        set_hub(worker_hub)
    if trainable is None:
        trainable = trainable_factory(**(factory_kwargs or {}))

    def send_frame() -> None:
        nonlocal span_cursor
        if worker_hub is None:
            return
        from ..telemetry.aggregate import capture_frame

        frame, span_cursor = capture_frame(worker_hub, worker_id,
                                           since=span_cursor)
        result_q.put(("telemetry", frame))

    stop_requests: set = set()
    busy_s = 0.0
    last_beat = -heartbeat_s  # first beat goes out immediately

    def beat(state: str, trial_id=None, force: bool = False) -> None:
        """Rate-limited liveness frame on the result queue."""
        nonlocal last_beat
        now = time.monotonic()
        if not force and now - last_beat < heartbeat_s:
            return
        last_beat = now
        result_q.put(("heartbeat", {
            "worker_id": worker_id, "pid": os.getpid(), "state": state,
            "trial_id": trial_id, "busy_seconds": busy_s,
        }))

    def drain_idle_control() -> None:
        """Notice retire requests while no reporter is polling."""
        while True:
            try:
                kind, payload = control_q.get_nowait()
            except queue_mod.Empty:
                return
            if kind == "stop":
                stop_requests.add(payload)
            elif kind == "retire":
                stop_requests.add(_RETIRE_SENTINEL)

    while True:
        drain_idle_control()
        if _RETIRE_SENTINEL in stop_requests:
            # drain-then-retire: the current task (if any) already
            # finished; anything still queued is picked up by peers
            result_q.put(("retired", worker_id,
                          _worker_stats(worker_id, busy_s)))
            return
        try:
            task = task_q.get(timeout=heartbeat_s)
        except queue_mod.Empty:
            beat("idle", force=True)
            continue
        if task is None:
            return
        trial_id, config, attempt, resume_from = task
        result_q.put(("started", trial_id, worker_id, attempt))
        beat("busy", trial_id, force=True)
        reporter = _WorkerReporter(trial_id, attempt, result_q, control_q,
                                   stop_requests, resume_from=resume_from,
                                   heartbeat=beat)
        t0 = time.perf_counter()
        try:
            final = trainable(dict(config), reporter)
        except StopTrial:
            busy_s += time.perf_counter() - t0
            send_frame()
            result_q.put(("done", trial_id, attempt, None, True,
                          _worker_stats(worker_id, busy_s)))
        except BaseException as exc:
            busy_s += time.perf_counter() - t0
            send_frame()
            result_q.put(("error", trial_id, attempt,
                          f"{type(exc).__name__}: {exc}",
                          _worker_stats(worker_id, busy_s)))
        else:
            busy_s += time.perf_counter() - t0
            send_frame()
            result_q.put(("done", trial_id, attempt, final,
                          reporter.stopped,
                          _worker_stats(worker_id, busy_s)))
        beat("idle", force=True)  # publish final busy_seconds promptly


class ProcessPoolTrialExecutor:
    """Persistent warm worker processes executing trials from a queue.

    >>> pool = ProcessPoolTrialExecutor(trainable=my_fn, max_workers=4)
    >>> pool.submit("trial_0000", {"lr": 1e-3})
    >>> kind, *payload = pool.next_message()
    >>> pool.shutdown()

    Exactly one of ``trainable`` (a picklable callable run per task) or
    ``trainable_factory`` (+ ``factory_kwargs``, called once per worker
    at startup) must be given.  ``stop_trial`` broadcasts an
    asynchronous stop; ``shutdown`` drains (or cancels) pending work and
    joins the workers, escalating to ``terminate`` after ``grace_s``.
    """

    def __init__(self, trainable: Callable | None = None, *,
                 trainable_factory: Callable | None = None,
                 factory_kwargs: dict | None = None,
                 max_workers: int | None = None,
                 start_method: str | None = None,
                 telemetry=None,
                 heartbeat_s: float = 1.0,
                 worker_telemetry: bool | None = None):
        if (trainable is None) == (trainable_factory is None):
            raise ValueError(
                "pass exactly one of trainable / trainable_factory"
            )
        if max_workers is None:
            max_workers = max(1, (os.cpu_count() or 1))
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if telemetry is None:
            from ..telemetry import get_hub

            telemetry = get_hub()
        self.telemetry = telemetry
        self.max_workers = max_workers
        self.heartbeat_s = float(heartbeat_s)
        self._ctx = multiprocessing.get_context(
            start_method or _default_start_method())
        self._task_q = self._ctx.Queue()
        self._result_q = self._ctx.Queue()
        # Worker-side telemetry (a process-local hub + frames streamed
        # back over the result queue) follows the hub's profile flag by
        # default; ``worker_telemetry`` forces it on for drivers that
        # need worker spans without full profiling (request tracing).
        self._profile = (bool(getattr(telemetry, "profile", False))
                         or bool(worker_telemetry))
        self._worker_args = (trainable, trainable_factory, factory_kwargs)
        self._control_qs = []
        self._procs = []
        self._retiring: set[int] = set()
        self._g_workers = telemetry.metrics.gauge(
            "execpool_workers", "worker processes in the trial pool")
        for _ in range(max_workers):
            self._spawn_worker()
        self._submitted = 0
        self._shut_down = False
        self._g_workers.set(self.worker_count())

    def _spawn_worker(self) -> int:
        """Start one more persistent worker; returns its worker id."""
        wid = len(self._procs)
        control_q = self._ctx.Queue()
        trainable, factory, factory_kwargs = self._worker_args
        p = self._ctx.Process(
            target=_worker_main,
            args=(wid, self._task_q, self._result_q, control_q,
                  trainable, factory, factory_kwargs, self._profile,
                  self.heartbeat_s),
            daemon=True, name=f"trial-worker-{wid}",
        )
        self._control_qs.append(control_q)
        self._procs.append(p)
        p.start()
        return wid

    # -- submission / streaming -------------------------------------------
    def submit(self, trial_id: str, config: dict, attempt: int = 0,
               resume_from: CheckpointHandle | None = None) -> None:
        if self._shut_down:
            raise RuntimeError("executor is shut down")
        self._task_q.put((trial_id, dict(config), attempt, resume_from))
        self._submitted += 1

    def next_message(self, timeout: float | None = None):
        """Block for the next worker message (as-completed streaming).

        Polls worker liveness underneath: if every worker died with work
        still outstanding this raises instead of blocking forever.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            # liveness is checked every 0.2 s; a short timeout caps the
            # slice so the call never oversleeps it
            block = 0.2 if deadline is None else min(
                0.2, max(0.0, deadline - time.monotonic()))
            try:
                return self._result_q.get(timeout=block)
            except queue_mod.Empty:
                if deadline is not None and time.monotonic() >= deadline:
                    raise TimeoutError(
                        "no worker message within timeout") from None
                if not any(p.is_alive() for p in self._procs):
                    raise RuntimeError(
                        "all trial workers exited unexpectedly"
                    ) from None

    def poll_message(self):
        """Non-blocking :meth:`next_message`: the next queued worker
        message, or ``None`` if nothing is waiting right now.  The hook
        step-driven drivers (``repro.serve``) drain between their own
        deadline checks without inheriting the blocking poll's
        granularity."""
        try:
            return self._result_q.get_nowait()
        except queue_mod.Empty:
            return None

    def dead_workers(self) -> list[int]:
        """Workers whose process exited *unexpectedly* -- a worker asked
        to retire is draining by request and is never reported dead."""
        return [i for i, p in enumerate(self._procs)
                if not p.is_alive() and i not in self._retiring]

    def alive_workers(self) -> list[int]:
        """Ids of workers currently serving the task queue (alive and
        not retiring)."""
        return [i for i, p in enumerate(self._procs)
                if p.is_alive() and i not in self._retiring]

    def worker_count(self) -> int:
        """Workers currently serving the task queue (started, not dead,
        not retiring)."""
        return len(self.alive_workers())

    # -- dynamic pool sizing ------------------------------------------------
    def add_worker(self) -> int:
        """Scale up: start one more warm worker on the shared queues.

        The new worker builds its trainable from the same
        ``trainable_factory`` the pool started with and begins pulling
        from the task queue immediately; returns its worker id.
        """
        if self._shut_down:
            raise RuntimeError("executor is shut down")
        wid = self._spawn_worker()
        self._g_workers.set(self.worker_count())
        return wid

    def retire_worker(self, worker_id: int) -> None:
        """Scale down: ask one worker to drain-then-exit.

        The worker finishes the task it is running (a retire never
        interrupts work), emits a terminal ``("retired", worker_id,
        stats)`` message, and exits; tasks still queued are picked up by
        the remaining workers.  Idempotent.
        """
        if self._shut_down:
            raise RuntimeError("executor is shut down")
        if not 0 <= worker_id < len(self._procs):
            raise ValueError(f"no such worker {worker_id}")
        if worker_id in self._retiring:
            return
        self._retiring.add(worker_id)
        try:
            self._control_qs[worker_id].put(("retire", None))
        except (OSError, ValueError):
            pass
        self._g_workers.set(self.worker_count())

    def stop_trial(self, trial_id: str) -> None:
        """Broadcast an asynchronous stop; the owning worker notices at
        its next reporter call."""
        for q in self._control_qs:
            try:
                q.put(("stop", trial_id))
            except (OSError, ValueError):
                pass

    # -- lifecycle ---------------------------------------------------------
    def cancel_pending(self) -> int:
        """Drain tasks not yet picked up; returns how many were
        cancelled."""
        n = 0
        while True:
            try:
                self._task_q.get_nowait()
                n += 1
            except queue_mod.Empty:
                return n

    def shutdown(self, wait: bool = True, cancel_pending: bool = True,
                 grace_s: float = 5.0) -> None:
        if self._shut_down:
            return
        self._shut_down = True
        if cancel_pending:
            self.cancel_pending()
        for _ in self._procs:
            try:
                self._task_q.put(None)
            except (OSError, ValueError):
                pass
        if wait:
            deadline = time.monotonic() + grace_s
            for p in self._procs:
                p.join(timeout=max(0.0, deadline - time.monotonic()))
        for p in self._procs:
            if p.is_alive():
                p.terminate()
                p.join(timeout=1.0)
        for q in [self._task_q, self._result_q, *self._control_qs]:
            q.close()
            q.cancel_join_thread()

    def __enter__(self) -> "ProcessPoolTrialExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def run_trials_parallel(
    executor: ProcessPoolTrialExecutor,
    configs: list[dict],
    scheduler=None,
    retry_policy: RetryPolicy | None = None,
    metric: str | None = None,
    mode: str = "max",
    raise_on_error: bool = False,
    search_alg=None,
    telemetry=None,
    message_timeout: float | None = 600.0,
    progress=None,
):
    """Drive a batch of configurations through a process pool.

    The driver owns all trial state; workers only execute.  The trial
    lifecycle (ids, report recording, retry rollback, finishing,
    counters) is :class:`repro.raysim.tune.TrialLifecycle`, shared with
    the serial loop of :func:`~repro.raysim.tune.tune_run`; this
    function adds message dispatch, attempt stamps, dead-worker
    fail-over and the pool's own gauges.  Reports stream back
    as-completed, so the scheduler sees results in arrival order across
    concurrently running trials -- the asynchronous semantics ASHA is
    designed for.  Returns the ``Trial`` list in submission order.
    """
    from ..raysim.tune import Trial, TrialLifecycle, TrialScheduler, \
        TrialStatus
    from ..telemetry.spans import Span

    life = TrialLifecycle(scheduler, search_alg, retry_policy, metric, mode,
                          telemetry, progress)
    telemetry = life.telemetry
    m_tasks = telemetry.metrics.counter(
        "execpool_tasks_total", "trial attempts finished per worker",
        ("worker",))
    m_task_seconds = telemetry.metrics.histogram(
        "execpool_task_seconds", "wall-clock per trial attempt in a worker")
    m_reports = telemetry.metrics.counter(
        "execpool_reports_total", "per-epoch reports streamed from workers")
    g_queued = telemetry.metrics.gauge(
        "tune_trials_pending", "trials submitted but not yet running")
    live = getattr(telemetry, "live", None)

    by_id: dict[str, Trial] = {}
    attempt_t0: dict[str, float] = {}
    assignment: dict[str, int] = {}
    in_flight: dict = {}  # trial_id -> open Span, for the live table
    pending: set[str] = set()
    for config in configs:
        trial = life.new_trial(config)
        by_id[trial.trial_id] = trial
        pending.add(trial.trial_id)
        executor.submit(trial.trial_id, config)

    def current(tid: str, attempt: int) -> Trial | None:
        """The trial a worker message is about, or None when the message
        is stale: the trial finished, or this attempt was already failed
        over (``Trial.retries`` is the latest-submitted attempt)."""
        if tid in pending and attempt == by_id[tid].retries:
            return by_id[tid]
        return None

    def end_attempt(tid: str) -> None:
        if tid in attempt_t0:
            m_task_seconds.observe(time.perf_counter() - attempt_t0.pop(tid))

    def resubmit(trial: Trial, failed_attempt: int) -> bool:
        """Apply the retry policy to a crashed attempt; True if the
        trial was requeued."""
        retry, resume_from = life.prepare_retry(trial, failed_attempt)
        if retry:
            executor.submit(trial.trial_id, trial.config,
                            attempt=trial.retries, resume_from=resume_from)
        return retry

    def finish(trial: Trial, stats: dict | None, final=None) -> None:
        pending.discard(trial.trial_id)
        assignment.pop(trial.trial_id, None)
        in_flight.pop(trial.trial_id, None)
        life.finish(trial, final)
        worker_attr = {}
        if stats:
            worker = str(stats["worker_id"])
            worker_attr = {"worker": worker}
            m_tasks.labels(worker=worker).inc()
            telemetry.metrics.gauge(
                "execpool_worker_rss_kb", "worker peak resident set",
                ("worker",)).labels(worker=worker).set(stats["max_rss_kb"])
            telemetry.metrics.gauge(
                "execpool_worker_busy_seconds",
                "cumulative busy wall-clock per worker",
                ("worker",)).labels(worker=worker).set(
                    stats["busy_seconds"])
        telemetry.tracer.add_completed(
            trial.trial_id, trial.runtime_s, category="trial",
            **worker_attr,
            **{k: str(v) for k, v in trial.config.items()})

    first_error: str | None = None

    def fail_over_dead_workers() -> None:
        """Authoritative liveness check: any in-flight trial assigned to
        a worker whose process has exited is treated as a crashed
        attempt (resubmitted under the retry policy, else ERROR).
        Idempotent -- failing a trial over removes its assignment, so a
        re-scan of a still-dead worker is a no-op.
        """
        nonlocal first_error
        dead = executor.dead_workers()
        if not dead:
            return
        for wid in dead:
            if live is not None:
                live.on_worker_dead(wid)
            for tid, owner in list(assignment.items()):
                if owner != wid:
                    continue
                trial = by_id[tid]
                trial.error = f"worker {wid} process died mid-trial"
                assignment.pop(tid, None)
                end_attempt(tid)
                if resubmit(trial, trial.retries):
                    continue
                trial.status = TrialStatus.ERROR
                finish(trial, None)
                if first_error is None:
                    first_error = f"{tid}: {trial.error}"
        if live is not None:
            telemetry.live_tick(force=True)  # surface the stall now

    # With a live monitor attached the driver polls on a short timeout
    # so monitor ticks (snapshots, stall detection, alerts) keep flowing
    # while trials compute; message_timeout still bounds total silence.
    poll_s = None
    if live is not None:
        poll_s = min(getattr(live, "interval_s", 1.0),
                     getattr(executor, "heartbeat_s", 1.0))
        poll_s = max(0.05, poll_s / 2.0)
    last_msg_t = time.monotonic()
    while pending:
        g_queued.set(len(pending) - len(assignment))
        telemetry.live_tick()
        try:
            if poll_s is None:
                msg = executor.next_message(timeout=message_timeout)
            else:
                msg = executor.next_message(timeout=poll_s)
        except TimeoutError:
            if poll_s is None:
                raise
            fail_over_dead_workers()
            if raise_on_error and first_error is not None:
                break
            if message_timeout is not None and \
                    time.monotonic() - last_msg_t > message_timeout:
                raise
            continue
        except RuntimeError:
            # Every worker died: fail whatever is still outstanding.
            for wid in executor.dead_workers():
                if live is not None:
                    live.on_worker_dead(wid)
            for tid in sorted(pending):
                trial = by_id[tid]
                trial.status = TrialStatus.ERROR
                trial.error = "worker pool died"
                finish(trial, None)
            if live is not None:
                telemetry.live_tick(force=True)
            if raise_on_error:
                raise TrialExecutionError("worker pool died with "
                                          f"{len(life.trials)} trials "
                                          "pending")
            break
        last_msg_t = time.monotonic()
        kind = msg[0]
        if kind == "heartbeat":
            if live is not None:
                live.on_heartbeat(msg[1])
            continue
        if kind == "telemetry":
            # A worker's span/metric frame (streamed before its terminal
            # message): fold into the cross-process aggregate.
            telemetry.ingest_worker_frame(msg[1])
            continue
        if kind == "retired":
            continue  # an autoscaler-driven drain, not a failure
        # every remaining kind carries a trial id and an attempt stamp
        if kind == "started":
            _, tid, worker_id, attempt = msg
        else:
            _, tid, attempt, *payload = msg
        trial = current(tid, attempt)
        if trial is None:
            continue
        if kind == "started":
            trial.status = TrialStatus.RUNNING
            assignment[tid] = worker_id
            attempt_t0[tid] = time.perf_counter()
            in_flight[tid] = Span(name=tid, start=telemetry.tracer.now(),
                                  category="trial")
        elif kind == "report":
            metrics, checkpoint = payload
            m_reports.inc()
            if life.record(trial, metrics, checkpoint) == TrialScheduler.STOP:
                executor.stop_trial(tid)
        elif kind == "done":
            final, stopped, stats = payload
            end_attempt(tid)
            trial.status = (TrialStatus.STOPPED if stopped
                            else TrialStatus.TERMINATED)
            trial.error = None
            finish(trial, stats, final)
        elif kind == "error":
            message, stats = payload
            end_attempt(tid)
            trial.error = message
            if resubmit(trial, attempt):
                continue
            trial.status = TrialStatus.ERROR
            finish(trial, stats)
            if first_error is None:
                first_error = f"{tid}: {message}"
            if raise_on_error:
                break
        life.show_progress(in_flight)
    g_queued.set(0)
    trials = life.close()
    if raise_on_error and first_error is not None:
        executor.cancel_pending()
        raise TrialExecutionError(first_error)
    return trials
