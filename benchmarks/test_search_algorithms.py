"""E24 -- search-algorithm comparison on a synthetic quality landscape.

The paper uses exhaustive grid search (the cross-product of the
options).  This bench compares the provided alternatives -- random
search and the TPE-lite adaptive sampler -- on a synthetic quality
model shaped like the real problem (a learning-rate sweet spot, small
effects from the loss variant and width): how much of the landscape
each algorithm must evaluate to find a near-optimal configuration.
Synthetic landscape: an illustration of the framework's search stack,
not a paper claim.
"""

import numpy as np
from conftest import once

from repro.raysim import GridSearch, RandomSearch, TPELite, tune_run

SPACE = {
    "learning_rate": [1e-2, 5e-3, 1e-3, 5e-4, 1e-4, 5e-5, 1e-5, 5e-6],
    "loss": ["dice", "quadratic_dice"],
    "base_filters": [8, 11],
}
OPTIMUM = 0.89


def quality(config: dict, rng: np.random.Generator) -> float:
    lr = config["learning_rate"]
    q = OPTIMUM - 0.1 * abs(np.log10(lr) + 4.0)
    if config["loss"] == "quadratic_dice":
        q -= 0.01
    if config["base_filters"] == 11:
        q += 0.005
    return float(q + rng.normal(0, 0.003))


def _run_all():
    out = {}
    for name, alg in (
        ("grid (paper)", GridSearch(SPACE)),
        ("random-16", RandomSearch(SPACE, num_samples=16, seed=0)),
        ("tpe-16", TPELite(SPACE, num_samples=16, startup_trials=6, seed=0)),
    ):
        rng = np.random.default_rng(1)

        def trainable(config, reporter):
            reporter(val_dice=quality(config, rng))
            return None

        analysis = tune_run(trainable, alg, metric="val_dice")
        best = analysis.best_trial("val_dice")
        out[name] = {
            "trials": len(analysis.trials),
            "best": best.best_metric("val_dice"),
            "best_lr": best.config["learning_rate"],
        }
    return out


def test_search_algorithm_comparison(benchmark):
    results = once(benchmark, _run_all)

    print("\n=== E24: search algorithms on the synthetic landscape ===")
    print(f"{'algorithm':<14} {'trials':>7} {'best dice':>10} {'best lr':>9}")
    for name, r in results.items():
        print(f"{name:<14} {r['trials']:>7} {r['best']:>10.4f} "
              f"{r['best_lr']:>9.0e}")

    grid = results["grid (paper)"]
    assert grid["trials"] == 32
    assert grid["best_lr"] == 1e-4  # exhaustive search nails the optimum
    # The 16-trial budgets land within a whisker of the exhaustive best.
    for name in ("random-16", "tpe-16"):
        assert results[name]["trials"] == 16
        assert results[name]["best"] > grid["best"] - 0.02
    # TPE's adaptive sampling should do at least as well as random here.
    assert results["tpe-16"]["best"] >= results["random-16"]["best"] - 0.01
