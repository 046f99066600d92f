"""ServeConfig construction-time validation (ISSUE 10 satellite): bad
serving parameters must fail in the driver at config build, not later
inside a worker process."""

import pytest

from repro.serve import ServeConfig


def make(**kw):
    base = dict(checkpoint="best.npz", model_builder=object)
    base.update(kw)
    return ServeConfig(**base)


class TestServeConfigValidation:
    def test_defaults_are_valid(self):
        cfg = make()
        assert cfg.compute_dtype is None
        assert set(cfg.shed_priorities) <= set(cfg.priority_weights)

    @pytest.mark.parametrize("kw", [
        {"replicas": 0},
        {"max_batch": 0},
        {"max_delay_ms": -1.0},
        {"full_volume_max_voxels": 0},
        {"overlap": 1.0},
        {"overlap": -0.1},
        {"patch_shape": (0, 16, 16)},
        {"patch_shape": (16, 16)},
        {"sw_batch_size": 0},
        {"max_retries": -1},
        {"heartbeat_s": 0.0},
        {"priority_weights": {}},
        {"priority_weights": {"normal": 0.0}},
        {"priority_weights": {"normal": -2.0}},
        {"shed_priorities": ("bulk",)},
        {"shed_backlog": -1},
        {"max_inflight_per_replica": 0},
        {"compute_dtype": "float16"},
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            make(**kw)

    def test_boundary_values_accepted(self):
        make(overlap=0.0, max_batch=1, sw_batch_size=1, max_retries=0,
             shed_backlog=0, max_inflight_per_replica=1,
             compute_dtype="float32")
        make(overlap=0.99, compute_dtype="float64")

    def test_custom_priority_ladder(self):
        cfg = make(priority_weights={"gold": 10.0, "bronze": 1.0},
                   shed_priorities=("bronze",))
        assert cfg.priority_weights["gold"] == 10.0
