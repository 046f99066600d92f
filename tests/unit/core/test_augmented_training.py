"""Augmentation integration in the training pipeline."""

import numpy as np
import pytest

from repro.core import ExperimentSettings, MISPipeline, train_trial
from repro.data import Augmenter, random_flip, random_gaussian_noise
from repro.telemetry import ProfileData, TelemetryHub


@pytest.fixture(scope="module")
def settings():
    return ExperimentSettings(num_subjects=8, volume_shape=(16, 16, 16),
                              epochs=2, base_filters=2, depth=2, seed=0)


@pytest.fixture(scope="module")
def pipeline(settings, tmp_path_factory):
    return MISPipeline(settings, record_dir=tmp_path_factory.mktemp("aug"))


class TestAugmentedDataset:
    def test_augmenter_applied_per_element(self, pipeline):
        aug = Augmenter([random_gaussian_noise(0.5)], seed=0)
        plain = [x for x, _ in pipeline.dataset("train", 1)]
        noisy = [x for x, _ in pipeline.dataset("train", 1, augmenter=aug)]
        assert len(plain) == len(noisy)
        assert not np.allclose(plain[0], noisy[0])

    def test_epochs_see_different_augmentations(self, pipeline):
        aug = Augmenter([random_gaussian_noise(0.5)], seed=0)
        ds = pipeline.dataset("train", 1, augmenter=aug)
        epoch1 = [x.copy() for x, _ in ds]
        epoch2 = [x.copy() for x, _ in ds]
        assert not np.allclose(epoch1[0], epoch2[0])

    def test_fresh_augmenter_replays(self, pipeline):
        a1 = Augmenter([random_gaussian_noise(0.3)], seed=7)
        a2 = Augmenter([random_gaussian_noise(0.3)], seed=7)
        e1 = [x for x, _ in pipeline.dataset("train", 1, augmenter=a1)]
        e2 = [x for x, _ in pipeline.dataset("train", 1, augmenter=a2)]
        for x1, x2 in zip(e1, e2):
            np.testing.assert_array_equal(x1, x2)

    def test_masks_stay_binary_under_flips(self, pipeline):
        aug = Augmenter([random_flip(p=1.0)], seed=0)
        for _, y in pipeline.dataset("train", 2, augmenter=aug):
            assert set(np.unique(y)) <= {0.0, 1.0}

    def test_stage_timing_recorded(self, settings, tmp_path):
        hub = TelemetryHub()
        pipeline = MISPipeline(settings, record_dir=tmp_path, telemetry=hub)
        aug = Augmenter([random_gaussian_noise(0.1)], seed=0)
        list(pipeline.dataset("train", 2, augmenter=aug))
        stages = ProfileData.from_samples(hub.metrics.samples())
        assert stages.stage_elements["augment"] > 0


class TestAugmentedTrial:
    def test_trial_runs_with_augmentation(self, settings, pipeline):
        aug_settings = ExperimentSettings(
            num_subjects=8, volume_shape=(16, 16, 16), epochs=2,
            base_filters=2, depth=2, seed=0, augment=True,
        )
        out = train_trial({"learning_rate": 3e-3}, aug_settings, pipeline)
        assert len(out.history) == 2
        assert np.isfinite([r.train_loss for r in out.history]).all()

    def test_augmented_trial_reproducible(self, pipeline):
        s = ExperimentSettings(
            num_subjects=8, volume_shape=(16, 16, 16), epochs=2,
            base_filters=2, depth=2, seed=0, augment=True,
        )
        a = train_trial({"learning_rate": 3e-3}, s, pipeline)
        b = train_trial({"learning_rate": 3e-3}, s, pipeline)
        assert [r.train_loss for r in a.history] == [
            r.train_loss for r in b.history
        ]

    def test_augmentation_changes_training(self, pipeline):
        base = ExperimentSettings(
            num_subjects=8, volume_shape=(16, 16, 16), epochs=2,
            base_filters=2, depth=2, seed=0, augment=False,
        )
        aug = ExperimentSettings(
            num_subjects=8, volume_shape=(16, 16, 16), epochs=2,
            base_filters=2, depth=2, seed=0, augment=True,
        )
        o1 = train_trial({"learning_rate": 3e-3}, base, pipeline)
        o2 = train_trial({"learning_rate": 3e-3}, aug, pipeline)
        assert o1.history[-1].train_loss != o2.history[-1].train_loss
