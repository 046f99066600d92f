#!/usr/bin/env python3
"""Experiment-parallel hyper-parameter tuning (the paper's method 2).

Runs a real grid search through the Ray-Tune-analogue trial runner at
laptop scale, then re-runs it under ASHA early stopping to show the
epochs an adaptive scheduler saves on top of the paper's FIFO setup.

Run:  python examples/hyperparameter_search.py
"""

from repro.core import ExperimentSettings, HyperparameterSpace
from repro.core.experiment_parallel import run_search_inprocess
from repro.core.runner import DistMISRunner
from repro.raysim import ASHAScheduler


def main() -> None:
    space = HyperparameterSpace(
        {
            "learning_rate": [3e-3, 1e-3, 1e-6],
            "loss": ["dice", "quadratic_dice"],
        }
    )
    settings = ExperimentSettings(
        num_subjects=10, volume_shape=(16, 16, 16), epochs=8,
        base_filters=2, depth=2, seed=0,
    )
    print(f"search space: {len(space)} configurations "
          "(the cross-product of the options, Section III-B2)\n")

    runner = DistMISRunner(space=space, settings=settings)
    result = runner.run_inprocess("experiment_parallel")

    print(f"{'trial':<10} {'lr':>8} {'loss':<16} {'val DSC':>8} {'status'}")
    for trial in result.analysis.trials:
        dsc = trial.best_metric("val_dice") or 0.0
        print(f"{trial.trial_id:<10} {trial.config['learning_rate']:>8.0e} "
              f"{trial.config['loss']:<16} {dsc:>8.3f} {trial.status.value}")
    best = result.analysis.best_trial("val_dice")
    print(f"\nbest configuration: {best.config} "
          f"(val DSC {best.best_metric('val_dice'):.3f})")

    # -- the same search under ASHA early stopping --------------------------
    print("\nre-running under ASHA (grace 2, reduction 2)...")
    asha = ASHAScheduler("val_dice", grace_period=2, reduction_factor=2,
                         max_t=settings.epochs, time_attr="epoch")
    pruned = run_search_inprocess(space, settings,
                                  pipeline=runner.pipeline, scheduler=asha)
    full_epochs = sum(len(t.results) for t in result.analysis.trials)
    asha_epochs = sum(len(t.results) for t in pruned.analysis.trials)
    print(f"epochs run: FIFO {full_epochs}, ASHA {asha_epochs} "
          f"({100 * (1 - asha_epochs / full_epochs):.0f}% saved)")
    print(f"ASHA winner: {pruned.analysis.best_config('val_dice')}")


if __name__ == "__main__":
    main()
