"""Trial runner (the Ray Tune analogue).

The paper adapts its training loop to "the standard Ray API": a
*trainable* function taking a hyper-parameter dict, plus a *reporting
callback* delivering per-epoch results (Section III-B2); ``Tune.Run``
then executes the batch of experiments.  This module reproduces that
contract:

>>> def trainable(config, reporter):
...     for epoch in range(config["epochs"]):
...         dice = train_one_epoch(...)
...         if not reporter(epoch=epoch, dice=dice):
...             break                       # scheduler said stop (ASHA)
...     return {"dice": dice}
>>> analysis = tune_run(trainable, search_alg=GridSearch(space))
>>> analysis.best_trial("dice").config

``tune_run`` executes trials in-process (functional reproduction); the
*timing* of concurrent trial placement at cluster scale is what
``repro.core.simulated`` prices with the greedy FIFO schedule of
:mod:`repro.perf.speedup`.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field
from typing import Callable

from ..fault_tolerance import CheckpointHandle, RetryPolicy
from .search import SearchAlgorithm

__all__ = [
    "TrialStatus",
    "Trial",
    "TrialLifecycle",
    "Reporter",
    "TrialScheduler",
    "FIFOScheduler",
    "ASHAScheduler",
    "HyperbandScheduler",
    "ExperimentAnalysis",
    "tune_run",
    "StopTrial",
    "RetryPolicy",
    "CheckpointHandle",
]


class StopTrial(Exception):
    """Raisable from a trainable to end the trial early (counts as
    TERMINATED, not ERROR)."""


class TrialStatus(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    TERMINATED = "terminated"
    STOPPED = "stopped"   # early-stopped by a scheduler
    ERROR = "error"


@dataclass
class Trial:
    """One hyper-parameter configuration's lifecycle."""

    trial_id: str
    config: dict
    status: TrialStatus = TrialStatus.PENDING
    results: list[dict] = field(default_factory=list)
    final: dict | None = None
    error: str | None = None
    runtime_s: float = 0.0
    retries: int = 0
    # epoch the latest retry resumed from (None: never resumed)
    restored_epoch: int | None = None

    def last_result(self) -> dict | None:
        return self.results[-1] if self.results else None

    def best_metric(self, metric: str, mode: str = "max") -> float | None:
        vals = [r[metric] for r in self.results if metric in r]
        if self.final and metric in self.final:
            vals.append(self.final[metric])
        if not vals:
            return None
        return max(vals) if mode == "max" else min(vals)


class TrialScheduler:
    """Decides, per reported result, whether a trial continues."""

    CONTINUE = "continue"
    STOP = "stop"

    def on_result(self, trial: Trial, result: dict) -> str:
        return self.CONTINUE

    def on_trial_complete(self, trial: Trial) -> None:
        pass

    def on_trial_retry(self, trial: Trial,
                       keep_up_to: int | float | None = None) -> None:
        """A crashed attempt of ``trial`` is about to be retried.

        Stateful schedulers must discard whatever the crashed attempt
        reported after ``keep_up_to`` (in ``time_attr`` units; None =
        discard everything the trial ever contributed), otherwise lost
        results keep skewing cutoffs for later trials.
        """


class FIFOScheduler(TrialScheduler):
    """Run every trial to completion (the paper's setting: all 250-epoch
    experiments run fully)."""


class ASHAScheduler(TrialScheduler):
    """Asynchronous Successive Halving (Li et al.), the early-stopping
    scheduler Ray Tune pairs with grid/random search.

    A trial reaching rung ``r`` (time ``grace_period * reduction**r``)
    survives only if its metric is within the top ``1/reduction``
    fraction of everything seen at that rung so far.
    """

    def __init__(
        self,
        metric: str,
        mode: str = "max",
        time_attr: str = "epoch",
        grace_period: int = 10,
        reduction_factor: int = 3,
        max_t: int = 250,
    ):
        if mode not in ("max", "min"):
            raise ValueError("mode must be 'max' or 'min'")
        if grace_period < 1 or reduction_factor < 2 or max_t < grace_period:
            raise ValueError("invalid ASHA parameters")
        self.metric = metric
        self.mode = mode
        self.time_attr = time_attr
        self.grace = grace_period
        self.rf = reduction_factor
        self.max_t = max_t
        # rung level -> list of recorded metric values
        self._rungs: dict[int, list[float]] = {}
        # trial_id -> [(level, value, t)] it contributed, for retry rollback
        self._entries: dict[str, list[tuple[int, float, float]]] = {}
        r = 0
        t = grace_period
        self.rung_times = []
        while t < max_t:
            self.rung_times.append(t)
            r += 1
            t = grace_period * reduction_factor**r

    def on_result(self, trial: Trial, result: dict) -> str:
        if self.metric not in result or self.time_attr not in result:
            return self.CONTINUE
        t = result[self.time_attr]
        val = float(result[self.metric])
        # A rung is due once the trial has *crossed* it and has no record
        # at that level yet -- exact equality would let trials reporting
        # every k epochs (or with non-integer time_attr) skip rungs and
        # never be early-stopped.
        entries = self._entries.setdefault(trial.trial_id, [])
        recorded_levels = {level for level, _, _ in entries}
        for level, rung_t in enumerate(self.rung_times):
            if t >= rung_t and level not in recorded_levels:
                recorded = self._rungs.setdefault(level, [])
                recorded.append(val)
                entries.append((level, val, float(t)))
                recorded_levels.add(level)
                ordered = sorted(recorded, reverse=(self.mode == "max"))
                k = max(1, len(ordered) // self.rf)
                cutoff = ordered[k - 1]
                survives = (
                    val >= cutoff if self.mode == "max" else val <= cutoff
                )
                if not survives:
                    return self.STOP
        return self.CONTINUE

    def on_trial_retry(self, trial: Trial,
                       keep_up_to: int | float | None = None) -> None:
        """Roll the crashed attempt's rung records back so lost results
        stop skewing cutoffs.  Records at or before ``keep_up_to`` came
        from checkpointed (preserved) progress and stay."""
        entries = self._entries.get(trial.trial_id)
        if not entries:
            return
        kept: list[tuple[int, float, float]] = []
        for level, val, t in entries:
            if keep_up_to is not None and t <= keep_up_to:
                kept.append((level, val, t))
            else:
                self._rungs[level].remove(val)
        self._entries[trial.trial_id] = kept


class HyperbandScheduler(TrialScheduler):
    """Asynchronous Hyperband: trials are dealt round-robin into
    brackets, each bracket running successive halving with a different
    grace period -- aggressive early stopping for most trials while one
    bracket guards against "slow starters" (the standard Ray Tune
    ``HyperBandScheduler`` trade-off).
    """

    def __init__(
        self,
        metric: str,
        mode: str = "max",
        time_attr: str = "epoch",
        max_t: int = 250,
        reduction_factor: int = 3,
        num_brackets: int = 3,
    ):
        if num_brackets < 1:
            raise ValueError("num_brackets must be >= 1")
        self.metric, self.mode, self.time_attr = metric, mode, time_attr
        self.max_t = max_t
        self.brackets = []
        for b in range(num_brackets):
            grace = max(1, max_t // (reduction_factor ** (num_brackets - b)))
            self.brackets.append(
                ASHAScheduler(
                    metric, mode=mode, time_attr=time_attr,
                    grace_period=grace, reduction_factor=reduction_factor,
                    max_t=max_t,
                )
            )
        self._assignment: dict[str, int] = {}
        self._next = 0

    def bracket_of(self, trial: Trial) -> ASHAScheduler:
        idx = self._assignment.get(trial.trial_id)
        if idx is None:
            idx = self._next % len(self.brackets)
            self._assignment[trial.trial_id] = idx
            self._next += 1
        return self.brackets[idx]

    def on_result(self, trial: Trial, result: dict) -> str:
        return self.bracket_of(trial).on_result(trial, result)

    def on_trial_retry(self, trial: Trial,
                       keep_up_to: int | float | None = None) -> None:
        self.bracket_of(trial).on_trial_retry(trial, keep_up_to=keep_up_to)


class TrialLifecycle:
    """The trial lifecycle, written once for every execution loop.

    :func:`tune_run`'s serial loop and the process-pool driver
    :func:`repro.execpool.run_trials_parallel` keep only their own
    control flow (when a trial runs, how its reports arrive); creating
    trials, recording reports, preparing retries and finishing trials
    happen here, so scheduler feedback, checkpoint capture, the
    :class:`RetryPolicy` rollback and the ``tune_*`` counters mean the
    same thing on both paths.
    """

    def __init__(self, scheduler: TrialScheduler | None = None,
                 search_alg: SearchAlgorithm | None = None,
                 retry_policy: RetryPolicy | None = None,
                 metric: str | None = None, mode: str = "max",
                 telemetry=None, progress=None):
        if telemetry is None:
            from ..telemetry import get_hub

            telemetry = get_hub()
        self.scheduler = scheduler or FIFOScheduler()
        self.search_alg = search_alg
        self.retry_policy = retry_policy or RetryPolicy()
        self.metric, self.mode = metric, mode
        self.telemetry = telemetry
        self.progress = progress
        self.trials: list[Trial] = []
        # trial_id -> last checkpoint any attempt of the trial published
        self._checkpoints: dict[str, CheckpointHandle] = {}
        self._started_at: dict[str, float] = {}
        metrics = telemetry.metrics
        self._m_trials = metrics.counter(
            "tune_trials_total", "trials finished by terminal status",
            ("status",))
        self._m_started = metrics.counter(
            "tune_trials_started_total", "trials handed to the trainable")
        self._m_retries = metrics.counter(
            "tune_retries_total", "crashed trial attempts that were retried")
        self._m_restores = metrics.counter(
            "tune_restores_total", "retries that resumed from a checkpoint")
        self._m_decisions = metrics.counter(
            "scheduler_decisions_total",
            "per-report scheduler continue/stop decisions", ("decision",))
        self._m_nonfinite = metrics.counter(
            "trials_nonfinite_total",
            "reports carrying a non-finite metric value (NaN/inf loss)")

    def new_trial(self, config: dict) -> Trial:
        trial = Trial(trial_id=f"trial_{len(self.trials):04d}",
                      config=dict(config))
        self.trials.append(trial)
        self._m_started.inc()
        self._started_at[trial.trial_id] = time.perf_counter()
        return trial

    def last_checkpoint(self, trial: Trial) -> CheckpointHandle | None:
        return self._checkpoints.get(trial.trial_id)

    def record(self, trial: Trial, metrics: dict,
               checkpoint: str | None = None) -> str:
        """Record one report row; returns the scheduler's decision."""
        trial.results.append(dict(metrics))
        if any(isinstance(v, float) and not math.isfinite(v)
               for v in metrics.values()):
            self._m_nonfinite.inc()
        if checkpoint is not None:
            epoch = metrics.get("epoch", len(trial.results) - 1)
            self._checkpoints[trial.trial_id] = CheckpointHandle(
                epoch=epoch, path=str(checkpoint))
        decision = self.scheduler.on_result(trial, metrics)
        self._m_decisions.labels(decision=decision).inc()
        return decision

    def prepare_retry(self, trial: Trial, failed_attempt: int
                      ) -> tuple[bool, CheckpointHandle | None]:
        """Apply the retry policy to a crashed attempt.

        Returns ``(retry, resume_from)``: whether an attempt is left and,
        if so, the checkpoint the next attempt resumes from (None: start
        clean).  Rows after the checkpointed epoch are dropped and the
        scheduler rolls back what the crashed attempt contributed.
        """
        attempt = failed_attempt + 1
        if attempt >= self.retry_policy.max_attempts:
            return False, None
        self._m_retries.inc()
        delay = self.retry_policy.delay(attempt)
        if delay > 0:
            time.sleep(delay)
        trial.retries = attempt
        handle = self._checkpoints.get(trial.trial_id)
        if self.retry_policy.resume != "checkpoint" or handle is None:
            trial.restored_epoch = None
            trial.results.clear()
            self.scheduler.on_trial_retry(trial, keep_up_to=None)
            return True, None
        # keep rows from checkpointed (durable) epochs; the resumed
        # attempt re-reports everything after
        keep = handle.epoch
        trial.restored_epoch = keep
        trial.results = [r for r in trial.results
                         if r.get("epoch", keep + 1) <= keep]
        self.scheduler.on_trial_retry(trial, keep_up_to=keep)
        self._m_restores.inc()
        return True, handle

    def finish(self, trial: Trial, final=None) -> None:
        """Close a trial whose terminal ``status`` is already set."""
        trial.runtime_s = (time.perf_counter()
                           - self._started_at.pop(trial.trial_id))
        self._m_trials.labels(status=trial.status.value).inc()
        if isinstance(final, dict):
            trial.final = final
        self.scheduler.on_trial_complete(trial)
        if self.search_alg is not None and self.metric is not None:
            score = trial.best_metric(self.metric, self.mode)
            if score is not None:
                self.search_alg.observe(trial.config, score)

    def show_progress(self, in_flight=None) -> None:
        if self.progress is not None:
            self.progress.update(self.trials, in_flight=in_flight,
                                 now=self.telemetry.tracer.now())

    def close(self) -> list[Trial]:
        if self.progress is not None:
            self.progress.finish(self.trials)
        return self.trials


class Reporter:
    """The per-trial reporting callback handed to trainables.

    Calling it records a result row and returns True while the scheduler
    wants the trial to continue.  Fault-tolerance contract: a trainable
    that checkpoints passes ``checkpoint=<path>`` alongside its metrics
    (the key is captured into :attr:`last_checkpoint`, not stored as a
    metric), and on a resumed attempt reads :attr:`resume_from` -- the
    :class:`~repro.fault_tolerance.CheckpointHandle` of the last durable
    epoch -- to continue training instead of starting at epoch 0.
    :attr:`attempt` is the 0-based attempt number, as on the process
    pool's worker-side reporter.
    """

    def __init__(self, trial: Trial, lifecycle: TrialLifecycle,
                 attempt: int = 0,
                 resume_from: CheckpointHandle | None = None):
        self._trial = trial
        self._lifecycle = lifecycle
        self.attempt = attempt
        self.stopped = False
        self.resume_from = resume_from

    @property
    def trial_id(self) -> str:
        return self._trial.trial_id

    @property
    def last_checkpoint(self) -> CheckpointHandle | None:
        return self._lifecycle.last_checkpoint(self._trial)

    def __call__(self, **metrics) -> bool:
        checkpoint = metrics.pop("checkpoint", None)
        decision = self._lifecycle.record(self._trial, metrics, checkpoint)
        self._lifecycle.telemetry.live_tick()  # serial-path heartbeat
        if decision == TrialScheduler.STOP:
            self.stopped = True
            return False
        return True


class ExperimentAnalysis:
    """Results of a ``tune_run``: the trial set plus query helpers."""

    def __init__(self, trials: list[Trial]):
        self.trials = trials

    def best_trial(self, metric: str, mode: str = "max") -> Trial:
        scored = [
            (t, t.best_metric(metric, mode))
            for t in self.trials
            if t.best_metric(metric, mode) is not None
        ]
        if not scored:
            raise ValueError(f"no trial reported metric {metric!r}")
        key = (lambda tv: tv[1]) if mode == "min" else (lambda tv: -tv[1])
        return min(scored, key=key)[0]

    def best_config(self, metric: str, mode: str = "max") -> dict:
        return self.best_trial(metric, mode).config

    def results_table(self, metric: str, mode: str = "max") -> list[dict]:
        rows = []
        for t in self.trials:
            rows.append(
                {
                    "trial_id": t.trial_id,
                    "status": t.status.value,
                    "config": dict(t.config),
                    metric: t.best_metric(metric, mode),
                    "epochs_run": len(t.results),
                }
            )
        return rows

    def num_errors(self) -> int:
        return sum(1 for t in self.trials if t.status is TrialStatus.ERROR)


def tune_run(
    trainable: Callable[[dict, Reporter], dict | None],
    search_alg: SearchAlgorithm,
    scheduler: TrialScheduler | None = None,
    metric: str | None = None,
    mode: str = "max",
    raise_on_error: bool = False,
    retry_policy: RetryPolicy | None = None,
    telemetry=None,
    executor=None,
    progress=None,
) -> ExperimentAnalysis:
    """Execute every configuration the search algorithm proposes.

    The trainable receives ``(config, reporter)`` and may return a final
    metrics dict.  Adaptive search algorithms are fed each trial's best
    ``metric`` via :meth:`SearchAlgorithm.observe`.

    Execution backend: by default (``executor=None``) trials run
    sequentially in this process.  Passing a
    :class:`repro.execpool.ProcessPoolTrialExecutor` runs them on its
    worker processes (true multi-core experiment parallelism) through
    :func:`repro.execpool.run_trials_parallel`: *its* configured
    trainable runs in the workers and the ``trainable`` argument is
    ignored, the configuration stream is materialised up front (so
    adaptive search algorithms see observations only as trials finish,
    Ray Tune's concurrent semantics), and scheduler stops are
    asynchronous.  The caller keeps ownership of the pool and must shut
    it down.  Both loops share one :class:`TrialLifecycle`.

    Fault tolerance: a crashed attempt is re-run under ``retry_policy``.
    With ``resume="checkpoint"`` (the default) the retry's reporter
    carries ``resume_from`` -- the last checkpoint handle the crashed
    attempt published -- so a :class:`CheckpointManager`-equipped
    trainable continues from its last epoch instead of epoch 0; results
    after the checkpointed epoch are dropped, and the scheduler's
    :meth:`~TrialScheduler.on_trial_retry` rolls back the matching rung
    records so lost work cannot skew ASHA cutoffs.  Without a published
    checkpoint (or with ``resume="scratch"``) the retry starts clean.
    Only the final attempt's status is recorded, with the attempt count
    in ``Trial.retries`` and the resume point in
    ``Trial.restored_epoch``.  ``telemetry`` (default: the process hub)
    receives one span per trial, trial-status counters, and the
    ``tune_retries_total`` / ``tune_restores_total`` counters.
    ``progress`` (a :class:`repro.telemetry.profiler.ProgressReporter`)
    renders a live trial table as results arrive.
    """
    if executor is not None:
        from ..execpool import ProcessPoolTrialExecutor, run_trials_parallel

        if not isinstance(executor, ProcessPoolTrialExecutor):
            raise ValueError(
                f"executor must be None or a ProcessPoolTrialExecutor, "
                f"got {executor!r}")
        return ExperimentAnalysis(run_trials_parallel(
            executor, list(search_alg.configurations()),
            scheduler=scheduler, retry_policy=retry_policy,
            metric=metric, mode=mode, raise_on_error=raise_on_error,
            search_alg=search_alg, telemetry=telemetry, progress=progress,
        ))
    life = TrialLifecycle(scheduler, search_alg, retry_policy, metric, mode,
                          telemetry, progress)
    # NB: configurations() must stay lazy -- adaptive algorithms (TPE)
    # propose each config from the observations fed back so far.
    for config in search_alg.configurations():
        trial = life.new_trial(config)
        trial.status = TrialStatus.RUNNING
        final, attempt, resume_from = None, 0, None
        with life.telemetry.tracer.span(
                trial.trial_id, category="trial",
                **{k: str(v) for k, v in config.items()}):
            while True:
                reporter = Reporter(trial, life, attempt, resume_from)
                try:
                    final = trainable(dict(config), reporter)
                except StopTrial:
                    trial.status = TrialStatus.STOPPED
                    break
                except Exception as exc:
                    if raise_on_error:
                        raise
                    trial.status = TrialStatus.ERROR
                    trial.error = f"{type(exc).__name__}: {exc}"
                    retry, resume_from = life.prepare_retry(trial, attempt)
                    if not retry:
                        break
                    attempt += 1
                else:
                    trial.status = (TrialStatus.STOPPED if reporter.stopped
                                    else TrialStatus.TERMINATED)
                    trial.error = None
                    break
        life.finish(trial, final)
        life.show_progress()
    return ExperimentAnalysis(life.close())
