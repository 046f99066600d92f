#!/usr/bin/env python3
"""Data-parallel training on virtual GPUs (the paper's method 1).

Demonstrates, with real training, the exact semantics Section III-B2's
MirroredStrategy / Ray SGD stack provides: batch sharding across
replicas, ring all-reduce of the gradients, the LR x #GPUs scaling rule
-- and the bit-exactness of sharding at a fixed global batch.

Run:  python examples/data_parallel_training.py
"""


from repro.core import ExperimentSettings, MISPipeline, train_trial
from repro.core.simulated import placement_case
from repro.nn import linear_scaling_rule


def main() -> None:
    config = {"learning_rate": 3e-3, "loss": "dice"}

    print("Section III-B2 placement cases:")
    for n in (1, 2, 4, 8, 32):
        lr = linear_scaling_rule(1e-4, n)
        print(f"  n={n:<3} -> {placement_case(n):<11} "
              f"global batch {2 * n:<3} initial LR {lr:.1e}")

    # -- exact sharding demo: one device batch-4 vs two replicas batch-2 -----
    def make(batch_per_replica):
        return ExperimentSettings(
            num_subjects=12, volume_shape=(16, 16, 16), epochs=5,
            base_filters=2, depth=2, seed=3, use_batchnorm=False,
            scale_learning_rate=False, batch_per_replica=batch_per_replica,
        )

    s1, s2 = make(4), make(2)
    pipeline = MISPipeline(s1)
    print("\ntraining the same configuration two ways "
          "(fixed global batch of 4):")
    single = train_trial(config, s1, pipeline, num_replicas=1)
    sharded = train_trial(config, s2, pipeline, num_replicas=2)
    print(f"{'epoch':>5} {'1 GPU loss':>14} {'2-GPU loss':>14} {'delta':>10}")
    for r1, r2 in zip(single.history, sharded.history):
        print(f"{r1.epoch:>5} {r1.train_loss:>14.10f} "
              f"{r2.train_loss:>14.10f} {abs(r1.train_loss - r2.train_loss):>10.1e}")
    print(f"\ntest DSC: single {single.test_dice:.6f}   "
          f"sharded {sharded.test_dice:.6f}")
    assert abs(single.test_dice - sharded.test_dice) < 1e-9
    print("=> gradient sharding + ring all-reduce is exact "
          "(the paper's dice-invariance claim, Section IV-C)")

    # -- the deployed recipe: batch and LR grow with the replica count --------
    print("\nthe deployed recipe (global batch = 2 x #GPUs, LR scaled):")
    deployed = ExperimentSettings(
        num_subjects=12, volume_shape=(16, 16, 16), epochs=15,
        base_filters=4, depth=2, seed=3,
    )
    for n in (1, 2):
        out = train_trial(config, deployed, pipeline, num_replicas=n)
        print(f"  {n} replica(s): global batch {2 * n}, "
              f"LR {out.history[0].lr:.1e}, "
              f"val DSC {out.val_dice:.3f}")


if __name__ == "__main__":
    main()
