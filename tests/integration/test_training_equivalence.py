"""Integration: distribution does not change the model (claim C2).

The paper's Section IV-C validates that its pipeline modifications and
distribution strategies keep the Dice score unchanged.  Here the claim
is *proved* at reduced scale: full trials run under every distribution
mode and the resulting models are compared.
"""

import pytest

from repro.core import ExperimentSettings, MISPipeline, train_trial
from repro.nn.dtypes import use_compute_dtype

from ..float32_bounds import sharding_atol


def make_settings(batch_per_replica: int, **kw) -> ExperimentSettings:
    """12 subjects -> 8 training volumes, so a global batch of 4 divides
    every epoch evenly and replica counts can be compared exactly."""
    defaults = dict(
        num_subjects=12, volume_shape=(16, 16, 16), epochs=3,
        base_filters=2, depth=2, seed=3, use_batchnorm=False,
        scale_learning_rate=False,  # isolate sharding from the LR rule
        batch_per_replica=batch_per_replica,
    )
    defaults.update(kw)
    return ExperimentSettings(**defaults)


CONFIG = {"learning_rate": 3e-3, "loss": "dice"}
#: optimizer steps of a make_settings trial: 3 epochs x (8 volumes / 4)
TRIAL_STEPS = 6


class TestDistributionInvariance:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_full_trial_identical_at_fixed_global_batch(self, tmp_path,
                                                        dtype):
        """Global batch 4 as one device's batch-of-4 vs two devices'
        batch-of-2 shards: identical epoch histories and dice.  (The
        paper's *deployed* recipe instead grows the global batch with
        #GPUs and rescales the LR -- statistically, not bitwise,
        equivalent; this test pins the sharding math itself.)"""
        s1 = make_settings(batch_per_replica=4)
        s2 = make_settings(batch_per_replica=2)
        pipe = MISPipeline(s1, record_dir=tmp_path)
        with use_compute_dtype(dtype):
            out1 = train_trial(CONFIG, s1, pipe, num_replicas=1)
            out2 = train_trial(CONFIG, s2, pipe, num_replicas=2)

        def tol(value):
            return sharding_atol(dtype, 1e-9, TRIAL_STEPS, value)

        for r1, r2 in zip(out1.history, out2.history):
            assert r1.train_loss == pytest.approx(r2.train_loss,
                                                  abs=tol(r1.train_loss))
            assert r1.val_dice == pytest.approx(r2.val_dice,
                                                abs=tol(r1.val_dice))
        assert out1.test_dice == pytest.approx(out2.test_dice,
                                               abs=tol(out1.test_dice))

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_four_way_sharding_identical(self, tmp_path, dtype):
        s1 = make_settings(batch_per_replica=4)
        s4 = make_settings(batch_per_replica=1)
        pipe = MISPipeline(s1, record_dir=tmp_path)
        with use_compute_dtype(dtype):
            out1 = train_trial(CONFIG, s1, pipe, num_replicas=1)
            out4 = train_trial(CONFIG, s4, pipe, num_replicas=4)
        loss1 = out1.history[-1].train_loss
        assert loss1 == pytest.approx(
            out4.history[-1].train_loss,
            abs=sharding_atol(dtype, 1e-9, TRIAL_STEPS, loss1)
        )
        assert out1.test_dice == pytest.approx(
            out4.test_dice,
            abs=sharding_atol(dtype, 1e-9, TRIAL_STEPS, out1.test_dice))

    def test_sync_batchnorm_trial_equivalence(self, tmp_path):
        """With BN + the sync reducer, distribution remains exact."""
        s1 = make_settings(batch_per_replica=4, epochs=2,
                           use_batchnorm=True, sync_batchnorm=True)
        s2 = make_settings(batch_per_replica=2, epochs=2,
                           use_batchnorm=True, sync_batchnorm=True)
        pipe = MISPipeline(s1, record_dir=tmp_path)
        out1 = train_trial(CONFIG, s1, pipe, num_replicas=1)
        out2 = train_trial(CONFIG, s2, pipe, num_replicas=2)
        for r1, r2 in zip(out1.history, out2.history):
            assert r1.train_loss == pytest.approx(r2.train_loss, abs=1e-7)
        assert out1.test_dice == pytest.approx(out2.test_dice, abs=1e-6)

    def test_experiment_vs_data_parallel_same_model(self, tmp_path):
        """A configuration trained as 'one experiment-parallel trial'
        (1 GPU) equals the same configuration trained data-parallel at
        the same global batch -- the distribution method is about
        *time*, not results."""
        s1 = make_settings(batch_per_replica=4)
        s2 = make_settings(batch_per_replica=2)
        pipe = MISPipeline(s1, record_dir=tmp_path)
        ep = train_trial(CONFIG, s1, pipe, num_replicas=1)
        dp = train_trial(CONFIG, s2, pipe, num_replicas=2)
        assert ep.val_dice == pytest.approx(dp.val_dice, abs=1e-9)

    def test_rerun_reproducible(self, tmp_path):
        s = make_settings(batch_per_replica=2)
        pipe = MISPipeline(s, record_dir=tmp_path)
        a = train_trial(CONFIG, s, pipe, num_replicas=2)
        b = train_trial(CONFIG, s, pipe, num_replicas=2)
        assert [r.train_loss for r in a.history] == [
            r.train_loss for r in b.history
        ]
