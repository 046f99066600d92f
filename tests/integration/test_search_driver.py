"""Both of the paper's methods search through one driver.

Data parallelism (every trial on ``n`` replicas, one trial at a time)
and experiment parallelism (1-replica trials, serially or on the
process pool) differ only in replicas per trial: both run through
:func:`repro.core.experiment_parallel.run_search_inprocess` and its
``tune_run`` trial lifecycle.  The trained outcomes are pinned by
sha256 at both compute dtypes.
"""

import hashlib

import numpy as np
import pytest

from repro.core import ExperimentSettings, HyperparameterSpace, MISPipeline
from repro.core.experiment_parallel import run_search_inprocess
from repro.core.search import check_search, run_search
from repro.nn.dtypes import use_compute_dtype
from repro.telemetry import TelemetryHub

from ..blas_core import pin_message

SETTINGS = ExperimentSettings(num_subjects=6, volume_shape=(8, 8, 8),
                              epochs=2, base_filters=2, depth=2)
SPACE = HyperparameterSpace({"learning_rate": [3e-3, 1e-3],
                             "loss": ["dice"]})


def _outcome_digest(outcomes) -> str:
    """sha256 over every config, epoch history and final dice."""
    h = hashlib.sha256()
    for o in outcomes:
        h.update(repr(sorted(o.config.items())).encode())
        values = [v for r in o.history
                  for v in (r.epoch, r.train_loss, r.val_dice, r.lr)]
        h.update(np.asarray(values + [o.val_dice, o.test_dice],
                            np.float64).tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def pipeline():
    return MISPipeline(SETTINGS)


class TestDataParallelSearch:
    @pytest.mark.parametrize("dtype, digest", [
        ("float64",
         "3c3b16d618ffdfc8c815655e38667546ffc112567f1bdb741763db0d5e518096"),
        ("float32",
         "3539b4c245de87a68a41f2bcabbe8f1dccf61a62459f5033cc266d70d50a3b41"),
    ], ids=["float64", "float32"])
    def test_outcomes_pinned(self, dtype, digest, pipeline):
        """A 2-replica search's trained outcomes, bit for bit: the
        reporter and the FIFO scheduler ``tune_run`` wraps each trial in
        consume no RNG and change no arithmetic."""
        with use_compute_dtype(dtype):
            result = run_search("data_parallel", SPACE, SETTINGS, num_gpus=2,
                                pipeline=pipeline, telemetry=TelemetryHub())
        assert result.num_gpus == 2
        assert [o.num_replicas for o in result.outcomes] == [2, 2]
        assert _outcome_digest(result.outcomes) == digest, \
            pin_message("outcomes")

    def test_trials_go_through_the_lifecycle(self, pipeline):
        hub = TelemetryHub()
        result = run_search("data_parallel", SPACE, SETTINGS, num_gpus=2,
                            pipeline=pipeline, telemetry=hub)
        terminated = [s["value"] for s in hub.metrics.samples()
                      if s["name"] == "tune_trials_total"
                      and s["labels"] == {"status": "terminated"}]
        assert terminated == [len(SPACE)]
        spans = [s.name for s in hub.tracer.closed_spans()
                 if s.category == "trial"]
        assert spans == ["trial_0000", "trial_0001"]
        assert [t.trial_id for t in result.analysis.trials] == spans

    def test_process_executor_rejected_before_any_fork(self, monkeypatch):
        import repro.execpool

        def no_fork(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(repro.execpool, "ProcessPoolTrialExecutor",
                            no_fork)
        monkeypatch.setattr(repro.execpool, "SharedArrayStore", no_fork)
        with pytest.raises(ValueError, match="single-replica"):
            run_search_inprocess(SPACE, SETTINGS, num_replicas=2,
                                 executor="process", max_workers=2)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_process_pool_matches_serial(dtype, pipeline):
    """Real training, serial ≡ 2-worker pool, at both compute dtypes
    (float32 is what ``distmis search`` ships)."""
    with use_compute_dtype(dtype):
        serial = run_search_inprocess(SPACE, SETTINGS, pipeline=pipeline,
                                      telemetry=TelemetryHub())
        pooled = run_search_inprocess(SPACE, SETTINGS, pipeline=pipeline,
                                      telemetry=TelemetryHub(),
                                      executor="process", max_workers=2)
    assert serial.num_gpus == 1 and pooled.num_gpus == 2
    assert len(serial.outcomes) == len(pooled.outcomes) == len(SPACE)
    assert _outcome_digest(serial.outcomes) == \
        _outcome_digest(pooled.outcomes)


def test_gpus_size_the_process_pool(tmp_path):
    """``num_gpus=N`` on the process executor runs N workers, and the
    manifest records the width the search ran at."""
    from repro.telemetry.manifest import RunManifest

    space = HyperparameterSpace({"learning_rate": [3e-3, 1e-3, 3e-4],
                                 "loss": ["dice"]})
    settings = ExperimentSettings(num_subjects=6, volume_shape=(8, 8, 8),
                                  epochs=1, base_filters=2, depth=2)
    result = run_search("experiment_parallel", space, settings, num_gpus=3,
                        executor="process",
                        telemetry=TelemetryHub(run_dir=tmp_path))
    assert result.num_gpus == 3
    assert len(result.outcomes) == 3
    assert RunManifest.load(tmp_path).config["num_gpus"] == 3


def test_conflicting_workers_rejected():
    with pytest.raises(ValueError, match="conflicts"):
        check_search("experiment_parallel", 3, "process", max_workers=2)
    assert check_search("experiment_parallel", 3, "process",
                        max_workers=3) == 1
    assert check_search("experiment_parallel", 1, "process",
                        max_workers=2) == 1
