"""``run_search`` -- the hyperparameter search, executed in-process.

Really trains the search at laptop scale with exact distribution
semantics (claims C2/C4), by either method, through one driver.  It
lives on the executed side, so ``distmis search`` -- and every trial
worker or data-parallel replica it forks -- loads no simulator module;
:meth:`repro.core.runner.DistMISRunner.run_inprocess` delegates here.
"""

from __future__ import annotations

from . import experiment_parallel
from .config import ExperimentSettings, HyperparameterSpace
from .pipeline import MISPipeline

__all__ = ["METHODS", "check_method", "check_search", "run_search"]

METHODS = ("data_parallel", "experiment_parallel")


def check_method(method: str) -> None:
    """Raise ``ValueError`` unless ``method`` is one of :data:`METHODS`."""
    if method not in METHODS:
        raise ValueError(
            f"unknown method {method!r}; expected one of {METHODS}"
        )


def check_search(method: str, num_gpus: int = 1,
                 executor: str = "serial",
                 max_workers: int | None = None) -> int:
    """Validate a method's placement and return its replicas per trial:
    ``num_gpus`` for data parallelism (serial executor only), ``1`` for
    experiment parallelism (``num_gpus > 1`` needs the process
    executor, whose pool it sizes: a different ``max_workers`` is a
    conflict).  Raises ``ValueError`` on any other combination."""
    check_method(method)
    if method == "data_parallel":
        if executor != "serial":
            raise ValueError(
                "the process executor parallelises independent trials; "
                "data_parallel trains one trial at a time "
                "(use method='experiment_parallel')")
        return num_gpus
    if num_gpus != 1 and executor == "serial":
        raise ValueError(
            "in-process experiment parallelism executes trials as 1-GPU "
            "runs; use simulate() for multi-GPU timing or "
            "executor='process' for real multi-core execution")
    if num_gpus > 1 and max_workers not in (None, num_gpus):
        raise ValueError(
            f"{num_gpus} GPUs run {num_gpus} trial workers; "
            f"max_workers={max_workers} conflicts (pass one of the two)")
    return 1


def run_search(method: str, space: HyperparameterSpace,
               settings: ExperimentSettings, num_gpus: int = 1,
               executor: str = "serial", max_workers: int | None = None,
               progress=None, pipeline: MISPipeline | None = None,
               telemetry=None):
    """Execute the search for real at the configured laptop scale.

    Both methods run through one driver,
    :func:`~repro.core.experiment_parallel.run_search_inprocess`; the
    method only sets the replicas per trial and the executors allowed
    (:func:`check_search`).  ``executor="process"`` runs experiment
    parallelism's independent trials on ``num_gpus`` worker processes
    when ``num_gpus > 1``, else on ``max_workers`` (default: every
    core), result-identical to the serial executor.

    With a live telemetry hub (default: the process-wide one) the run
    emits per-step / per-epoch metrics and nested spans, and finishes
    by writing the run directory (manifest, metrics JSONL + Prometheus
    text, merged Chrome trace) when the hub has one configured.
    ``progress`` (a :class:`~repro.telemetry.ProgressReporter`) renders
    a live Tune-style trial table while the search runs.
    """
    num_replicas = check_search(method, num_gpus, executor, max_workers)
    if executor == "process" and num_gpus > 1:
        max_workers = num_gpus
    if telemetry is None:
        from ..telemetry import get_hub

        telemetry = get_hub()
    with telemetry.tracer.span(f"run_inprocess[{method}]", category="run",
                               num_gpus=num_gpus):
        result = experiment_parallel.run_search_inprocess(
            space, settings, pipeline=pipeline, telemetry=telemetry,
            executor=executor, max_workers=max_workers,
            progress=progress, num_replicas=num_replicas,
        )
    best = result.best()
    telemetry.finalize_run(
        kind=f"inprocess/{method}",
        config={"space": space.axes, "num_gpus": result.num_gpus,
                "executor": executor, "max_workers": max_workers,
                "epochs": settings.epochs},
        seed=settings.seed,
        final_metrics={
            "best_val_dice": best.val_dice,
            "best_test_dice": best.test_dice,
            "best_config": best.config,
            "elapsed_seconds": result.elapsed_seconds,
            "num_trials": len(result.outcomes),
        },
    )
    return result
