"""Experiment-parallel distribution of the search (method 2, Ray Tune).

The paper's second architecture (Fig 1, bottom): ``Ray.Cluster`` is
launched over the available resources, then ``Ray.Tune`` places each
hyper-parameter configuration on its own GPU; runs are self-contained,
so no gradient synchronisation or data shuffling crosses trials -- the
property that buys the extra speed-up at scale (Section IV-C).

Backends:

* :func:`run_search_inprocess` -- the Tune-analogue trial runner really
  trains every configuration (1 virtual GPU each) at laptop scale;
* :func:`simulate_search` -- paper-scale: Ray Tune's greedy FIFO
  placement (:func:`repro.raysim.scheduler.fifo_schedule`) of the
  calibrated per-trial durations over a GPU pool, producing the
  makespan Table I reports and a per-GPU timeline;
* :func:`simulate_search_with_failures` -- the same FIFO placement
  under GPU failures and repairs, priced by the failure event loop
  (:func:`repro.cluster.failures.run_with_failures`).
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

from ..cluster.failures import FailureModel, FailureRunResult, run_with_failures
from ..cluster.trace import Timeline
from ..fault_tolerance import FaultInjector, RetryPolicy
from ..perf.costs import StepCostModel, TrialConfig
from ..perf.speedup import experiment_parallel_placement, trial_durations
from ..raysim.search import GridSearch
from ..raysim.tune import ExperimentAnalysis, TrialScheduler, tune_run
from .checkpoint import CheckpointManager
from .config import ExperimentSettings, HyperparameterSpace
from .pipeline import MISPipeline, TrialOutcome, train_trial

__all__ = ["ExperimentParallelSearchResult", "run_search_inprocess",
           "simulate_search", "simulate_search_with_failures"]


@dataclass
class ExperimentParallelSearchResult:
    num_gpus: int
    outcomes: list[TrialOutcome] = field(default_factory=list)
    analysis: ExperimentAnalysis | None = None
    elapsed_seconds: float = 0.0
    timeline: Timeline | None = None

    def best(self, key: str = "val_dice") -> TrialOutcome:
        if not self.outcomes:
            raise ValueError("empty search result")
        return max(self.outcomes, key=lambda o: getattr(o, key))


def _search_trainable(settings: ExperimentSettings,
                      pipeline: MISPipeline | None = None, handle=None,
                      checkpoint_dir: str | Path | None = None,
                      telemetry=None):
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
                              num_replicas=1, reporter=reporter,
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
) -> ExperimentParallelSearchResult:
    """Run the search through the Tune-analogue runner: every trial is a
    single-replica training (concurrent placement affects wall-clock,
    not results, so executing them serially *or* on a process pool is
    result-identical).

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
                                          telemetry=telemetry)
            if fault_injector is not None:
                trainable = fault_injector.wrap(trainable)
        analysis = tune_run(
            trainable,
            search_alg=GridSearch(space.axes),
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
    return ExperimentParallelSearchResult(
        num_gpus=1 if pool is None else pool.max_workers,
        outcomes=outcomes, analysis=analysis,
        elapsed_seconds=time.perf_counter() - t0,
    )


def simulate_search(
    trials: list[TrialConfig],
    model: StepCostModel,
    num_gpus: int,
    seed: int | None = None,
    telemetry=None,
) -> tuple[float, Timeline]:
    """Paper-scale simulation of Ray Tune's placement.

    Trials are placed FIFO, each on the earliest free one of
    ``num_gpus`` GPUs for ``tune_overhead + duration``; the elapsed time
    is the makespan plus the Ray cluster spin-up over the hosting nodes
    -- :func:`repro.perf.experiment_parallel_search_time`, with one
    timeline span per trial on the GPU that ran it.
    """
    elapsed, placement, _ = experiment_parallel_placement(
        model, trials, num_gpus, seed=seed, telemetry=telemetry)
    timeline = Timeline()
    for idx, (cfg, (worker, start, end)) in enumerate(
            zip(trials, placement.assignments)):
        timeline.record(
            name=f"trial_{idx:02d}", start=start, end=end,
            resource=str(model.cluster.device(worker)), category="train",
            loss=cfg.loss, lr=cfg.learning_rate,
            base_filters=cfg.base_filters,
        )
    return elapsed, timeline


def simulate_search_with_failures(
    trials: list[TrialConfig],
    model: StepCostModel,
    num_gpus: int,
    failure_model: FailureModel,
    retry_policy: RetryPolicy | None = None,
    seed: int | None = None,
    telemetry=None,
) -> tuple[float, FailureRunResult]:
    """Paper-scale experiment-parallel placement under failures.

    Same calibrated per-trial durations and Ray Tune FIFO placement as
    :func:`simulate_search`, but executed through
    :func:`repro.cluster.failures.run_with_failures` with per-epoch
    checkpoint granularity (each trial's ``epochs``) and the shared
    :class:`RetryPolicy` semantics.  Returns ``(elapsed, result)`` where
    ``elapsed`` includes the cluster spin-up and ``result`` carries the
    failure count, wasted seconds, per-trial retry records and the
    timeline (failures included) for the Chrome trace.
    """
    if num_gpus < 1:
        raise ValueError("num_gpus must be >= 1")
    if num_gpus > model.cluster.total_gpus:
        raise ValueError(
            f"{num_gpus} GPUs requested, cluster has {model.cluster.total_gpus}"
        )
    if telemetry is None:
        from ..telemetry import get_hub

        telemetry = get_hub()
    result = run_with_failures(
        trial_durations(model, trials, 1, seed), num_gpus, failure_model,
        seed=0 if seed is None else seed,
        per_trial_overhead=model.params.tune_trial_overhead_s,
        num_epochs=[cfg.epochs for cfg in trials],
        retry_policy=retry_policy,
    )
    telemetry.metrics.counter(
        "sim_failures_total", "injected simulator failures",
        ("method",)).labels(method="experiment_parallel").inc(
            result.num_failures)
    telemetry.metrics.counter(
        "sim_wasted_seconds_total", "simulated compute lost to failures",
        ("method",)).labels(method="experiment_parallel").inc(
            result.wasted_seconds)
    nodes = model.cluster.nodes_for(num_gpus)
    cluster_startup = (
        model.params.startup_per_node_s * nodes if num_gpus > 1 else 0.0
    )
    return result.makespan + cluster_startup, result
