"""``run_search`` -- the hyperparameter search, executed in-process.

Really trains the search at laptop scale with exact distribution
semantics (claims C2/C4), by either method.  It lives on the executed
side, so ``distmis search`` -- and every trial worker or data-parallel
replica it forks -- loads no simulator module;
:meth:`repro.core.runner.DistMISRunner.run_inprocess` delegates here.
"""

from __future__ import annotations

from . import data_parallel, experiment_parallel
from .config import ExperimentSettings, HyperparameterSpace
from .pipeline import MISPipeline

__all__ = ["METHODS", "check_method", "run_search"]

METHODS = ("data_parallel", "experiment_parallel")


def check_method(method: str) -> None:
    """Raise ``ValueError`` unless ``method`` is one of :data:`METHODS`."""
    if method not in METHODS:
        raise ValueError(
            f"unknown method {method!r}; expected one of {METHODS}"
        )


def run_search(method: str, space: HyperparameterSpace,
               settings: ExperimentSettings, num_gpus: int = 1,
               executor: str = "serial", max_workers: int | None = None,
               progress=None, pipeline: MISPipeline | None = None,
               telemetry=None):
    """Execute the search for real at the configured laptop scale.

    For ``method="experiment_parallel"``, ``executor="process"`` runs
    the independent trials on ``max_workers`` worker processes (true
    multi-core experiment parallelism, result-identical to the serial
    executor); trials remain 1-virtual-GPU runs either way.

    With a live telemetry hub (default: the process-wide one) the run
    emits per-step / per-epoch metrics and nested spans, and finishes
    by writing the run directory (manifest, metrics JSONL + Prometheus
    text, merged Chrome trace) when the hub has one configured.
    ``progress`` (a :class:`~repro.telemetry.ProgressReporter`) renders
    a live Tune-style trial table while the search runs.
    """
    check_method(method)
    if telemetry is None:
        from ..telemetry import get_hub

        telemetry = get_hub()
    pipeline = pipeline or MISPipeline(settings, telemetry=telemetry)
    with telemetry.tracer.span(f"run_inprocess[{method}]", category="run",
                               num_gpus=num_gpus):
        if method == "data_parallel":
            if executor != "serial":
                raise ValueError(
                    "the process executor parallelises independent "
                    "trials; data_parallel trains one trial at a "
                    "time (use method='experiment_parallel')"
                )
            result = data_parallel.run_search_inprocess(
                space, settings, num_gpus, pipeline=pipeline,
                telemetry=telemetry,
            )
        else:
            if num_gpus != 1 and executor == "serial":
                # Trials are independent 1-GPU runs; concurrency changes
                # wall-clock only, which the simulated backend prices
                # (or the process executor executes).
                raise ValueError(
                    "in-process experiment parallelism executes "
                    "trials as 1-GPU runs; use simulate() for "
                    "multi-GPU timing or executor='process' for "
                    "real multi-core execution"
                )
            result = experiment_parallel.run_search_inprocess(
                space, settings, pipeline=pipeline, telemetry=telemetry,
                executor=executor, max_workers=max_workers,
                progress=progress,
            )
    best = result.best()
    telemetry.finalize_run(
        kind=f"inprocess/{method}",
        config={"space": space.axes, "num_gpus": num_gpus,
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
