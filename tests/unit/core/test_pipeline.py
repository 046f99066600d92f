"""MISPipeline (Fig 1 stages) tests on the in-process backend."""

import gc

import numpy as np
import pytest

from repro.core import ExperimentSettings, MISPipeline, train_trial
from repro.data import Augmenter, random_flip, random_gaussian_noise
from repro.execpool import SharedArrayStore
from repro.telemetry import ProfileData, TelemetryHub


@pytest.fixture(scope="module")
def settings():
    return ExperimentSettings(num_subjects=8, volume_shape=(16, 16, 16),
                              epochs=2, base_filters=2, depth=2, seed=0)


@pytest.fixture(scope="module")
def pipeline(settings, tmp_path_factory):
    return MISPipeline(settings, record_dir=tmp_path_factory.mktemp("rec"))


class TestBinarization:
    def test_one_record_file_per_split(self, pipeline):
        files = pipeline.binarize()
        assert set(files) == {"train", "val", "test"}
        for p in files.values():
            assert p.exists() and p.stat().st_size > 0

    def test_idempotent(self, pipeline):
        a = pipeline.binarize()
        b = pipeline.binarize()
        assert a == b

    def test_split_sizes_70_15_15(self, pipeline):
        sizes = pipeline.split.sizes
        assert sum(sizes) == 8
        assert sizes[0] >= sizes[1] and sizes[0] >= sizes[2]

    def test_stats_recorded(self, settings, tmp_path):
        hub = TelemetryHub()
        MISPipeline(settings, record_dir=tmp_path, telemetry=hub).binarize()
        stages = ProfileData.from_samples(hub.metrics.samples())
        assert any(k.startswith("binarize.") for k in stages.stage_seconds)


class TestDataset:
    def test_batched_tensors(self, pipeline):
        for x, y in pipeline.dataset("train", batch_size=2):
            assert x.ndim == 5 and x.shape[1] == 4
            assert y.shape[1] == 1
            assert x.shape[0] <= 2
        arrays_x, arrays_y = pipeline.load_split_arrays("train")
        assert arrays_x.shape[0] == len(pipeline.split.train)

    def test_unknown_split(self, pipeline):
        with pytest.raises(ValueError):
            pipeline.dataset("holdout", 2)

    def test_shuffle_changes_order(self, pipeline):
        a = [x[0, 0, 0, 0, 0] for x, _ in pipeline.dataset("train", 1,
                                                           shuffle_seed=1)]
        b = [x[0, 0, 0, 0, 0] for x, _ in pipeline.dataset("train", 1,
                                                           shuffle_seed=2)]
        assert sorted(a) == sorted(b)

    def test_steps_per_epoch(self, pipeline):
        n_train = len(pipeline.split.train)
        assert pipeline.steps_per_epoch(2) == -(-n_train // 2)

    def test_splits_loaded_once(self, pipeline):
        a = pipeline.load_split_arrays("val")
        b = pipeline.load_split_arrays("val")
        assert a[0] is b[0] and a[1] is b[1]

    def test_epoch_is_reiterable(self, pipeline):
        ds = pipeline.dataset("train", 2, shuffle_seed=4)
        first = [x for x, _ in ds]
        second = [x for x, _ in ds]
        assert len(first) == pipeline.steps_per_epoch(2)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)


class TestOnePipeline:
    """The records-backed, shared-array and online-NIfTI pipelines feed
    the same batches: same values, same dtype, same order."""

    @pytest.fixture(scope="class")
    def pipelines(self, settings, pipeline, tmp_path_factory):
        with SharedArrayStore(pipeline.split_arrays()) as store:
            yield {
                "records": pipeline,
                "from_arrays": MISPipeline.from_arrays(
                    settings, store.handle.attach()),
                "nifti": MISPipeline(
                    settings, record_dir=tmp_path_factory.mktemp("nii"),
                    input_mode="nifti"),
            }

    @pytest.mark.parametrize("augment", [False, True])
    @pytest.mark.parametrize("seed", [0, 5, 19])
    @pytest.mark.parametrize("batch", [1, 2, 3, 4])
    def test_batches_identical(self, pipelines, batch, seed, augment):
        def epoch(pipe):
            aug = (Augmenter([random_flip(p=0.5), random_gaussian_noise(0.1)],
                             seed=seed) if augment else None)
            return list(pipe.dataset("train", batch, shuffle_seed=seed,
                                     augmenter=aug))

        ref = epoch(pipelines["records"])
        assert len(ref) == pipelines["records"].steps_per_epoch(batch)
        for name in ("from_arrays", "nifti"):
            other = epoch(pipelines[name])
            assert len(other) == len(ref), name
            for (x0, y0), (x1, y1) in zip(ref, other):
                assert x0.dtype == x1.dtype and y0.dtype == y1.dtype, name
                np.testing.assert_array_equal(x0, x1)
                np.testing.assert_array_equal(y0, y1)


class TestRecordDirectory:
    def test_binarize_creates_missing_dir(self, settings, tmp_path):
        target = tmp_path / "not" / "yet"
        files = MISPipeline(settings, record_dir=target).binarize()
        assert files["train"].parent == target
        assert all(p.exists() for p in files.values())

    def test_own_temp_dir_removed_with_pipeline(self, settings):
        pipe = MISPipeline(settings)
        directory = pipe.binarize()["train"].parent
        assert directory.is_dir()
        del pipe
        gc.collect()
        assert not directory.exists()

    def test_callers_dir_never_removed(self, settings, tmp_path):
        pipe = MISPipeline(settings, record_dir=tmp_path)
        files = pipe.binarize()
        del pipe
        gc.collect()
        assert all(p.exists() for p in files.values())


class TestTrainTrial:
    def test_outcome_structure(self, settings, pipeline):
        out = train_trial({"learning_rate": 1e-2, "loss": "dice"},
                          settings, pipeline, num_replicas=1)
        assert len(out.history) == settings.epochs
        assert 0.0 <= out.val_dice <= 1.0
        assert 0.0 <= out.test_dice <= 1.0
        assert out.wall_seconds > 0
        assert out.num_replicas == 1

    def test_reporter_receives_epochs(self, settings, pipeline):
        rows = []

        def reporter(**kw):
            rows.append(kw)
            return True

        train_trial({"learning_rate": 1e-2}, settings, pipeline,
                    reporter=reporter)
        assert len(rows) == settings.epochs
        assert {"epoch", "train_loss", "val_dice", "lr"} <= set(rows[0])

    def test_reporter_can_stop_early(self, settings, pipeline):
        out = train_trial({"learning_rate": 1e-2}, settings, pipeline,
                          reporter=lambda **kw: False)
        assert len(out.history) == 1

    def test_replica_count_recorded_and_lr_scaled(self, settings, pipeline):
        out = train_trial({"learning_rate": 1e-3}, settings, pipeline,
                          num_replicas=2)
        assert out.num_replicas == 2
        assert out.history[0].lr == pytest.approx(2e-3)

    def test_convergence_detection(self, settings, pipeline):
        """A 0-LR run cannot improve, so convergence is flagged at 0."""
        s = ExperimentSettings(num_subjects=8, volume_shape=(16, 16, 16),
                               epochs=5, base_filters=2, depth=2, seed=0,
                               scale_learning_rate=False)
        out = train_trial({"learning_rate": 1e-12}, s, pipeline,
                          convergence_patience=2)
        assert out.converged_epoch is not None
        assert out.converged_epoch <= 2
