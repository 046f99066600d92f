"""Unified fault tolerance: retry policies, checkpoint handles, injection.

A 44-hour search on a shared cluster *will* lose GPUs (preemption, ECC
errors, node reboots -- Section V of the paper runs on exactly such a
machine).  This module is the shared vocabulary every execution backend
speaks:

* :class:`RetryPolicy` -- how many times a crashed trial is re-run,
  with what backoff, and whether it resumes from its last checkpoint or
  restarts from scratch.  Accepted by :func:`repro.raysim.tune.tune_run`
  (in-process execution, serial or process pool) and
  :func:`repro.cluster.failures.run_with_failures` (the paper-scale
  failure event loop), so laptop-scale tests and paper-scale pricing
  share one semantics.  In-process, the policy is applied in one place,
  :meth:`repro.raysim.tune.TrialLifecycle.prepare_retry`, for both the
  serial loop and the process-pool driver.
* :class:`CheckpointHandle` -- an opaque (epoch, path) pair a trainable
  publishes through its reporter (``reporter(epoch=..., checkpoint=...)``)
  and receives back as ``reporter.resume_from`` after a crash.
* :class:`FaultInjector` -- wraps an in-process trainable and
  deterministically raises :class:`InjectedFault` at configured epochs
  (or probabilistically with a seeded RNG), so the retry/resume path is
  testable end-to-end without an actual flaky machine.

Sits below both ``repro.raysim`` and ``repro.cluster`` in the import
graph; depends only on NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "RetryPolicy",
    "CheckpointHandle",
    "FaultInjector",
    "InjectedFault",
]

RESUME_MODES = ("checkpoint", "scratch")


@dataclass(frozen=True)
class RetryPolicy:
    """What happens after a trial attempt crashes.

    ``max_retries`` further attempts are made (0 = fail fast).  With
    ``resume="checkpoint"`` the next attempt receives the last
    :class:`CheckpointHandle` the trial published and continues from
    that epoch; ``"scratch"`` always restarts from epoch 0 (and a
    checkpoint-mode retry falls back to scratch when the crashed attempt
    never published a checkpoint).  ``backoff_s`` is the wait before
    retry ``k`` (1-based), growing by ``backoff_factor`` per attempt --
    real seconds in-process; the simulated failure loop does not model
    it.
    """

    max_retries: int = 0
    resume: str = "checkpoint"
    backoff_s: float = 0.0
    backoff_factor: float = 2.0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.resume not in RESUME_MODES:
            raise ValueError(f"resume must be one of {RESUME_MODES}")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")

    def delay(self, attempt: int) -> float:
        """Backoff before ``attempt`` (attempt 1 = first retry)."""
        if attempt < 1:
            return 0.0
        return self.backoff_s * self.backoff_factor ** (attempt - 1)

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1


@dataclass(frozen=True)
class CheckpointHandle:
    """Pointer to a trial's last durable state: *what epoch* finished
    and *where* its checkpoint lives (``path`` may be None for purely
    simulated checkpoints, where only the epoch matters)."""

    epoch: int
    path: str | None = None
    meta: dict = field(default_factory=dict, compare=False)


class InjectedFault(RuntimeError):
    """The crash a :class:`FaultInjector` raises (a stand-in for a GPU
    ECC error / preemption inside the trainable)."""


class FaultInjector:
    """Deterministic, seeded crash injection around a trainable.

    Wraps the ``(config, reporter)`` contract: the injected reporter
    raises :class:`InjectedFault` when the trainable reports the
    configured epoch -- *before* the result row (and any checkpoint) is
    recorded, exactly like a crash mid-epoch.  The n-th injected fault
    fires when ``time_attr == crash_epochs[n]``; once the list is
    exhausted no further deterministic faults fire, so a retried trial
    makes progress.  ``p_crash`` adds seeded per-report random faults on
    top (a Bernoulli draw per reported epoch).

    >>> injector = FaultInjector(crash_epochs=(3,))
    >>> analysis = tune_run(injector.wrap(trainable), search,
    ...                     retry_policy=RetryPolicy(max_retries=1))
    >>> injector.faults_injected
    1
    """

    def __init__(
        self,
        trainable: Callable | None = None,
        crash_epochs: Sequence[int] = (),
        p_crash: float = 0.0,
        seed: int = 0,
        time_attr: str = "epoch",
    ):
        if not 0.0 <= p_crash < 1.0:
            raise ValueError("p_crash must be in [0, 1)")
        self._trainable = trainable
        self.crash_epochs = list(crash_epochs)
        self.p_crash = p_crash
        self.time_attr = time_attr
        self.faults_injected = 0
        self._rng = np.random.default_rng(seed)

    def wrap(self, trainable: Callable) -> "FaultInjector":
        """Bind (or rebind) the trainable; returns self for chaining."""
        self._trainable = trainable
        return self

    def _maybe_crash(self, metrics: dict) -> None:
        t = metrics.get(self.time_attr)
        if t is None:
            return
        if (self.faults_injected < len(self.crash_epochs)
                and t == self.crash_epochs[self.faults_injected]):
            self.faults_injected += 1
            raise InjectedFault(
                f"injected fault #{self.faults_injected} at "
                f"{self.time_attr}={t}"
            )
        if self.p_crash > 0.0 and self._rng.random() < self.p_crash:
            self.faults_injected += 1
            raise InjectedFault(
                f"injected random fault at {self.time_attr}={t}"
            )

    def __call__(self, config: dict, reporter):
        if self._trainable is None:
            raise ValueError("FaultInjector has no trainable; pass one to "
                             "the constructor or call .wrap(trainable)")
        return self._trainable(config, _InjectingReporter(self, reporter))


class _InjectingReporter:
    """Reporter proxy that consults the injector before every report.

    Forwards everything else (``resume_from``, ``last_checkpoint``,
    ``trial_id``...) to the wrapped reporter, so trainables cannot tell
    they are being sabotaged.
    """

    def __init__(self, injector: FaultInjector, reporter):
        self._injector = injector
        self._reporter = reporter

    def __call__(self, **metrics):
        self._injector._maybe_crash(metrics)
        return self._reporter(**metrics)

    def __getattr__(self, name):
        return getattr(self._reporter, name)
