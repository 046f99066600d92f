"""Checkpoint round-trips for every optimizer's state structure."""

import numpy as np
import pytest

from repro.core import CheckpointManager, load_checkpoint, save_checkpoint
from repro.core.checkpoint import _flatten_opt_state, _unflatten_opt_state
from repro.nn import SGD, Adam, CyclicLR, SoftDiceLoss, UNet3D


def tiny(seed=0):
    return UNet3D(1, 1, 2, 2, use_batchnorm=False,
                  rng=np.random.default_rng(seed))


def train_steps(net, opt, steps=3, seed=2):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 1, 4, 4, 4))
    t = (rng.uniform(size=(2, 1, 4, 4, 4)) > 0.8).astype(float)
    loss = SoftDiceLoss()
    for _ in range(steps):
        net.zero_grad()
        _, d = loss.forward(net(x), t)
        net.backward(d)
        opt.step()
    return x, t


@pytest.mark.parametrize(
    "factory",
    [
        lambda m: SGD(m, lr=1e-2),
        lambda m: Adam(m, lr=1e-3),
        lambda m: SGD(m, lr=1e-2, weight_decay=1e-3),
        lambda m: Adam(m, lr=1e-3, weight_decay=1e-3),
        lambda m: Adam(m, lr=CyclicLR(1e-4, 1e-2, step_size=2)),
    ],
    ids=["sgd", "adam", "sgd_weight_decay", "adam_weight_decay",
         "adam_cyclic"],
)
def test_optimizer_checkpoint_roundtrip(tmp_path, factory):
    """Nested optimizer state (including integer slot keys) must
    survive the flatten/npz/unflatten pipeline and keep training in
    lock-step with the original."""
    net, opt = tiny(1), None
    opt = factory(net)
    x_t = train_steps(net, opt)
    save_checkpoint(tmp_path / "ck", net, opt, step=3)

    net2 = tiny(9)
    opt2 = factory(net2)
    load_checkpoint(tmp_path / "ck", net2, opt2)

    # continue both one more step: identical updates
    loss = SoftDiceLoss()
    x, t = x_t
    for n, o in ((net, opt), (net2, opt2)):
        n.zero_grad()
        _, d = loss.forward(n(x), t)
        n.backward(d)
        o.step()
    np.testing.assert_allclose(net.get_flat_params(),
                               net2.get_flat_params(), atol=1e-12)


class TestCheckpointManagerResave:
    def test_same_epoch_resave_not_double_registered(self, tmp_path):
        """Regression: re-saving an epoch (a crash-resume re-runs the
        crashed epoch) used to register the same path twice, letting the
        rolling eviction unlink the live checkpoint."""
        net = tiny()
        opt = SGD(net, lr=1e-2)
        mgr = CheckpointManager(tmp_path, keep=2)
        mgr.save(net, opt, epoch=0, val_dice=0.1)
        p1 = mgr.save(net, opt, epoch=1, val_dice=0.2)
        assert mgr.save(net, opt, epoch=1, val_dice=0.25) == p1
        assert mgr._saved.count(p1) == 1
        mgr.save(net, opt, epoch=2, val_dice=0.3)
        # the live epoch-1 checkpoint must survive the eviction
        assert p1.exists()
        assert len(mgr._saved) == 2
        assert all(p.exists() for p in mgr._saved)
        net2 = tiny(3)
        load_checkpoint(mgr.latest_path(), net2, SGD(net2, lr=1e-2))


class TestFlattenHelpers:
    def test_integer_keys_roundtrip(self):
        state = {"t": 5, "m": {0: np.ones(2), 3: np.zeros(1)}}
        flat = _flatten_opt_state(state)
        back = _unflatten_opt_state(
            {k: np.asarray(v) for k, v in flat.items()}
        )
        assert back["t"] == 5
        assert set(back["m"]) == {0, 3}
        np.testing.assert_array_equal(back["m"][0], np.ones(2))

    def test_deep_nesting(self):
        state = {"a": {"b": {"c": np.arange(3)}}}
        back = _unflatten_opt_state(_flatten_opt_state(state))
        np.testing.assert_array_equal(back["a"]["b"]["c"], np.arange(3))

    def test_scalars_restored_as_python(self):
        back = _unflatten_opt_state(_flatten_opt_state({"t": 7}))
        assert back["t"] == 7 and not isinstance(back["t"], np.ndarray)
