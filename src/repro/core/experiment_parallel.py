"""The search driver both of the paper's distribution methods run on.

Fig 1 distributes one grid search two ways: data parallelism trains
each configuration on all ``n`` GPUs in turn; experiment parallelism
(``Ray.Tune``) places each configuration on its own GPU, so no gradient
synchronisation or data shuffling crosses trials -- the property that
buys the extra speed-up at scale (Section IV-C).  Apart from placement
they differ only in replicas per trial.

:func:`run_search_inprocess` -- the Tune-analogue trial runner -- really
trains every configuration on ``num_replicas`` virtual GPUs at laptop
scale, serially or (1-replica trials) on a process pool.  The same
searches priced at paper scale, with or without GPU failures, are in
:mod:`repro.core.simulated`.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

from ..fault_tolerance import FaultInjector, RetryPolicy
from ..raysim.tune import ExperimentAnalysis, TrialScheduler, tune_run
from .checkpoint import CheckpointManager
from .config import ExperimentSettings, HyperparameterSpace
from .pipeline import MISPipeline, TrialOutcome, train_trial

__all__ = ["SearchResult", "run_search_inprocess"]


@dataclass
class SearchResult:
    """One finished search, either method: outcomes plus the analysis.

    ``num_gpus`` is the width the search ran at: the pool's worker
    count on the process executor, the replicas per trial serially.
    """

    num_gpus: int
    outcomes: list[TrialOutcome] = field(default_factory=list)
    analysis: ExperimentAnalysis | None = None
    elapsed_seconds: float = 0.0

    def best(self, key: str = "val_dice") -> TrialOutcome:
        if not self.outcomes:
            raise ValueError("empty search result")
        return max(self.outcomes, key=lambda o: getattr(o, key))


def _search_trainable(settings: ExperimentSettings,
                      pipeline: MISPipeline | None = None, handle=None,
                      checkpoint_dir: str | Path | None = None,
                      telemetry=None, num_replicas: int = 1):
    """Build the trial trainable both executors run.

    Serially it trains from the caller's ``pipeline``.  As the process
    pool's ``trainable_factory`` it runs *inside* each worker, once,
    before the first task: it attaches the parent's shared-memory split
    arrays (``handle``; zero-copy -- the worker maps the parent's pages
    instead of re-decoding the records) and serves every trial from
    :meth:`MISPipeline.from_arrays` over those views.  Module-level so the
    reference pickles under any multiprocessing start method.  The
    trainable ships its :class:`TrialOutcome` inside the final dict.
    """
    if handle is not None:
        pipeline = MISPipeline.from_arrays(settings, handle.attach())
    managers: dict[str, CheckpointManager] = {}

    def trainable(config: dict, reporter):
        manager = None
        if checkpoint_dir is not None:
            trial_id = getattr(reporter, "trial_id", "trial")
            manager = managers.get(trial_id)
            if manager is None:
                manager = CheckpointManager(Path(checkpoint_dir) / trial_id)
                managers[trial_id] = manager
        outcome = train_trial(config, settings, pipeline,
                              num_replicas=num_replicas, reporter=reporter,
                              checkpoint_manager=manager,
                              telemetry=telemetry)
        return {"val_dice": outcome.val_dice,
                "test_dice": outcome.test_dice,
                "outcome": outcome}

    return trainable


def run_search_inprocess(
    space: HyperparameterSpace,
    settings: ExperimentSettings,
    pipeline: MISPipeline | None = None,
    scheduler: TrialScheduler | None = None,
    retry_policy: RetryPolicy | None = None,
    checkpoint_dir: str | Path | None = None,
    fault_injector: FaultInjector | None = None,
    telemetry=None,
    executor: str = "serial",
    max_workers: int | None = None,
    progress=None,
    num_replicas: int = 1,
) -> SearchResult:
    """Run the search through the Tune-analogue runner: every trial
    trains on ``num_replicas`` virtual GPUs (data parallelism when
    ``> 1``).  Concurrent placement affects wall-clock, not results, so
    executing single-replica trials serially *or* on a process pool is
    result-identical.

    ``executor="process"`` distributes the trials over ``max_workers``
    persistent worker processes (true multi-core parallelism, claim C1
    executed rather than simulated): the parent binarises and decodes
    the splits once, publishes them into shared memory, and each worker
    attaches zero-copy.  Per-trial metrics are bit-identical to the
    serial path.  ``fault_injector`` (an in-parent stateful wrapper) is
    only supported serially; ``retry_policy`` and ``checkpoint_dir``
    work with both backends.

    Fault tolerance: ``checkpoint_dir`` gives every trial its own
    :class:`CheckpointManager` under ``checkpoint_dir/<trial_id>``
    (managers persist across retries of the same trial), and
    ``retry_policy`` re-runs crashed trials -- resuming from the last
    per-epoch checkpoint when both are set.  ``fault_injector`` wraps
    the trainable for end-to-end crash testing; with retries or an
    injector configured, crashes are recorded on the trial instead of
    raised.
    """
    import time

    if executor not in ("serial", "process"):
        raise ValueError(
            f"executor must be 'serial' or 'process', got {executor!r}"
        )
    if executor == "process" and num_replicas != 1:
        raise ValueError(
            "the process executor runs single-replica trials; a "
            "data-parallel trial forks its own replicas, so run "
            "num_replicas > 1 with the serial executor"
        )
    if executor == "process" and fault_injector is not None:
        raise ValueError(
            "fault_injector is in-parent state and is not supported "
            "with executor='process'; use the serial executor"
        )
    if telemetry is None:
        from ..telemetry import get_hub

        telemetry = get_hub()
    pipeline = pipeline or MISPipeline(settings, telemetry=telemetry)
    t0 = time.perf_counter()
    with ExitStack() as stack:
        pool = trainable = None
        if executor == "process":
            from ..execpool import ProcessPoolTrialExecutor, SharedArrayStore

            # Binarise once, decode once, publish once: workers attach.
            store = stack.enter_context(
                SharedArrayStore(pipeline.split_arrays()))
            telemetry.metrics.gauge(
                "execpool_shared_dataset_bytes",
                "shared-memory bytes holding the binarised splits (one "
                "copy, all workers)").set(store.nbytes)
            pool = stack.enter_context(ProcessPoolTrialExecutor(
                trainable_factory=_search_trainable,
                factory_kwargs={"settings": settings,
                                "handle": store.handle,
                                "checkpoint_dir": checkpoint_dir},
                max_workers=max_workers, telemetry=telemetry))
        else:
            trainable = _search_trainable(settings, pipeline,
                                          checkpoint_dir=checkpoint_dir,
                                          telemetry=telemetry,
                                          num_replicas=num_replicas)
            if fault_injector is not None:
                trainable = fault_injector.wrap(trainable)
        analysis = tune_run(
            trainable,
            search_alg=space,
            scheduler=scheduler,
            metric="val_dice",
            raise_on_error=retry_policy is None and fault_injector is None,
            retry_policy=retry_policy,
            telemetry=telemetry,
            executor=pool,
            progress=progress,
        )
    # Lift each TrialOutcome out of the trial's final dict, so
    # trial.final holds only the metrics.
    outcomes: list[TrialOutcome] = [
        trial.final.pop("outcome") for trial in analysis.trials
        if trial.final and "outcome" in trial.final]
    return SearchResult(
        num_gpus=num_replicas if pool is None else pool.max_workers,
        outcomes=outcomes, analysis=analysis,
        elapsed_seconds=time.perf_counter() - t0,
    )
