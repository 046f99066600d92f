"""Integration: crash-resume of the real training pipeline.

The acceptance bar for the fault-tolerance layer: a trial crashed
mid-search by a :class:`FaultInjector` and retried under
``RetryPolicy(resume="checkpoint")`` must end with the *same* final
metrics as an uninjected run -- bit-identical, because training
re-seeds shuffling per epoch and the checkpoint restores model +
optimizer exactly -- while ``resume="scratch"`` re-trains from epoch 0.
Every contract holds at float64 and at float32, the dtype
``distmis search`` ships.
"""

import numpy as np
import pytest

from repro.core import ExperimentSettings, HyperparameterSpace
from repro.core.experiment_parallel import run_search_inprocess
from repro.core.pipeline import MISPipeline
from repro.fault_tolerance import FaultInjector, RetryPolicy
from repro.nn.dtypes import use_compute_dtype
from repro.raysim import TrialStatus

SETTINGS = ExperimentSettings(
    num_subjects=6, volume_shape=(16, 16, 16), epochs=3,
    base_filters=2, depth=2, seed=0,
)
SPACE = HyperparameterSpace({"learning_rate": [3e-3]})


@pytest.fixture(scope="module")
def pipeline():
    return MISPipeline(SETTINGS)


@pytest.fixture(scope="module", params=["float64", "float32"])
def dtype(request):
    """The compute dtype every test in this module trains at."""
    with use_compute_dtype(request.param):
        yield request.param


@pytest.fixture(scope="module")
def baseline(pipeline, dtype):
    return run_search_inprocess(SPACE, SETTINGS, pipeline=pipeline)


class TestCheckpointResumeEndToEnd:
    def test_resumed_trial_matches_uninjected_run(self, tmp_path, pipeline,
                                                  baseline):
        injector = FaultInjector(crash_epochs=(1,))
        result = run_search_inprocess(
            SPACE, SETTINGS, pipeline=pipeline,
            retry_policy=RetryPolicy(max_retries=1, resume="checkpoint"),
            checkpoint_dir=tmp_path / "ckpts",
            fault_injector=injector,
        )
        assert injector.faults_injected == 1
        trial = result.analysis.trials[0]
        assert trial.status is TrialStatus.TERMINATED
        assert trial.retries == 1
        # crashed while reporting epoch 1 -> resumed from the epoch-0
        # checkpoint, so the retry trains epochs 1..2 only
        assert trial.restored_epoch == 0
        (outcome, ) = result.outcomes
        assert [r.epoch for r in outcome.history] == [1, 2]

        (base, ) = baseline.outcomes
        base_by_epoch = {r.epoch: r for r in base.history}
        for rec in outcome.history:
            assert rec.val_dice == base_by_epoch[rec.epoch].val_dice
            np.testing.assert_array_equal(
                rec.train_loss, base_by_epoch[rec.epoch].train_loss
            )
        # final metrics bit-identical to the run that never crashed
        assert outcome.val_dice == base.val_dice
        assert outcome.test_dice == base.test_dice
        # runner results carry the full epoch range with no duplicates
        assert [r["epoch"] for r in trial.results] == [0, 1, 2]

    def test_scratch_retrains_from_epoch_zero(self, tmp_path, pipeline,
                                              baseline):
        result = run_search_inprocess(
            SPACE, SETTINGS, pipeline=pipeline,
            retry_policy=RetryPolicy(max_retries=1, resume="scratch"),
            checkpoint_dir=tmp_path / "ckpts",
            fault_injector=FaultInjector(crash_epochs=(1,)),
        )
        trial = result.analysis.trials[0]
        assert trial.status is TrialStatus.TERMINATED
        assert trial.restored_epoch is None
        (outcome, ) = result.outcomes
        assert [r.epoch for r in outcome.history] == [0, 1, 2]

        (base, ) = baseline.outcomes
        assert outcome.val_dice == base.val_dice
        assert outcome.test_dice == base.test_dice


def _two_replica_search(pipeline, checkpoint_dir, injector=None):
    """One 2-replica trial through the search driver, checkpointing
    every epoch; returns (trial, last checkpoint's model state)."""
    result = run_search_inprocess(
        SPACE, SETTINGS, pipeline=pipeline,
        retry_policy=RetryPolicy(max_retries=1, resume="checkpoint"),
        checkpoint_dir=checkpoint_dir, fault_injector=injector,
        num_replicas=2)
    (trial, ) = result.analysis.trials
    latest = max((checkpoint_dir / trial.trial_id).glob("ckpt_epoch*.npz"))
    with np.load(latest) as archive:
        model = {k: archive[k] for k in archive.files
                 if k.startswith("model/")}
    return trial, model


class TestDataParallelCheckpointResume:
    def test_two_replica_resume_matches_uninterrupted_run(self, tmp_path,
                                                          pipeline, dtype):
        """Resume must restore replica 1's process too: a stale replica
        would all-reduce a different gradient and the histories split."""
        base, base_model = _two_replica_search(pipeline, tmp_path / "base")
        injector = FaultInjector(crash_epochs=(1,))
        trial, model = _two_replica_search(pipeline, tmp_path / "resumed",
                                           injector)
        assert injector.faults_injected == 1
        assert trial.status is TrialStatus.TERMINATED
        assert trial.retries == 1 and trial.restored_epoch == 0
        rows = [(r["epoch"], r["train_loss"], r["val_dice"])
                for r in trial.results]
        assert rows == [(r["epoch"], r["train_loss"], r["val_dice"])
                        for r in base.results]
        assert [r[0] for r in rows] == [0, 1, 2]
        assert model.keys() == base_model.keys()
        for name, value in base_model.items():
            np.testing.assert_array_equal(model[name], value)
