"""Replica task contract: a task is either a full-volume micro-batch or
a scatter--gather chunk task; a whole-volume task with any other
strategy is rejected."""

import numpy as np
import pytest

from repro.core.checkpoint import CheckpointManager
from repro.nn import UNet3D
from repro.serve import replica_factory

MODEL_KWARGS = dict(in_channels=1, out_channels=1, base_filters=2,
                    depth=2, use_batchnorm=False)


def test_sliding_window_volume_task_rejected(tmp_path):
    model = UNet3D(rng=np.random.default_rng(7), **MODEL_KWARGS)
    mgr = CheckpointManager(tmp_path)
    mgr.save(model, epoch=2, val_dice=0.5)
    serve = replica_factory(str(mgr.best_path), UNet3D, MODEL_KWARGS)
    volumes = np.zeros((1, 1, 8, 8, 8))
    with pytest.raises(ValueError, match="unknown inference strategy"):
        serve({"strategy": "sliding_window", "volumes": volumes}, None)
