"""Layer-level tests: gradients by finite differences, modes, caching."""

import numpy as np
import pytest

from repro.nn import (
    BatchNorm,
    Conv3D,
    ConvTranspose3D,
    MaxPool3D,
    ReLU,
    Sequential,
    Sigmoid,
    check_module_gradients,
)

rng = np.random.default_rng(7)
X = rng.normal(size=(2, 3, 4, 4, 4))

GRAD_TOL = 1e-5


@pytest.mark.parametrize(
    "factory",
    [
        lambda: Conv3D(3, 4, 3, padding="same", rng=np.random.default_rng(0)),
        lambda: Conv3D(3, 2, 1, padding="valid", rng=np.random.default_rng(0)),
        lambda: Conv3D(3, 2, 3, stride=2, padding=1, rng=np.random.default_rng(0)),
        lambda: Conv3D(3, 2, 3, padding="same", use_bias=False,
                       rng=np.random.default_rng(0)),
        lambda: ConvTranspose3D(3, 2, 2, 2, rng=np.random.default_rng(0)),
        lambda: ConvTranspose3D(3, 2, 3, 1, rng=np.random.default_rng(0)),
        lambda: ConvTranspose3D(3, 2, 2, 2, use_bias=False,
                                rng=np.random.default_rng(0)),
        lambda: MaxPool3D(2),
        lambda: BatchNorm(3),
        lambda: Sigmoid(),
    ],
    ids=[
        "conv_same", "conv_1x1", "conv_strided", "conv_nobias",
        "convT_2s2", "convT_3s1", "convT_nobias",
        "maxpool", "batchnorm", "sigmoid",
    ],
)
def test_layer_gradients(factory):
    errs = check_module_gradients(factory(), X.copy())
    assert max(errs.values()) < GRAD_TOL, errs


def test_relu_gradient_away_from_kink():
    # Shift inputs away from zero so finite differences don't cross the kink.
    x = X.copy()
    x[np.abs(x) < 0.1] = 0.5
    errs = check_module_gradients(ReLU(), x)
    assert max(errs.values()) < GRAD_TOL


class TestConv3DLayer:
    def test_same_padding_preserves_shape(self):
        layer = Conv3D(3, 7, 3, padding="same", rng=rng)
        assert layer(X).shape == (2, 7, 4, 4, 4)

    def test_even_kernel_same_padding_rejected(self):
        with pytest.raises(ValueError, match="odd kernel"):
            Conv3D(1, 1, 2, padding="same")

    def test_bad_channels_rejected(self):
        with pytest.raises(ValueError):
            Conv3D(0, 4)

    def test_backward_before_forward_raises(self):
        layer = Conv3D(3, 4, rng=rng)
        with pytest.raises(RuntimeError, match="before forward"):
            layer.backward(X)

    def test_gradients_accumulate_across_backwards(self):
        layer = Conv3D(3, 2, 3, rng=np.random.default_rng(0))
        y = layer(X)
        layer.backward(np.ones_like(y))
        g1 = layer.w.grad.copy()
        layer(X)
        layer.backward(np.ones_like(y))
        np.testing.assert_allclose(layer.w.grad, 2 * g1)

    def test_output_shape_helper(self):
        layer = Conv3D(3, 2, 3, stride=2, padding=1, rng=rng)
        assert layer.output_shape((8, 8, 8)) == (4, 4, 4)


class TestBatchNorm:
    def test_normalises_training_batch(self):
        bn = BatchNorm(3)
        y = bn(X)
        means = y.mean(axis=(0, 2, 3, 4))
        stds = y.std(axis=(0, 2, 3, 4))
        np.testing.assert_allclose(means, 0.0, atol=1e-10)
        np.testing.assert_allclose(stds, 1.0, atol=1e-3)

    def test_running_stats_converge(self):
        bn = BatchNorm(3, momentum=0.0)  # running stats = last batch
        bn(X)
        np.testing.assert_allclose(bn.running_mean.value, X.mean(axis=(0, 2, 3, 4)))

    def test_eval_uses_running_stats(self):
        bn = BatchNorm(3, momentum=0.0)
        bn(X)
        bn.eval()
        x2 = rng.normal(size=X.shape) + 5.0
        y = bn(x2)
        # eval output should NOT be normalised to the new batch
        assert abs(y.mean()) > 1.0

    def test_wrong_channel_count_raises(self):
        bn = BatchNorm(5)
        with pytest.raises(ValueError, match="channels"):
            bn(X)

    def test_sync_reducer_called(self):
        calls = []

        def reducer(s, sq, c):
            calls.append(c)
            return s, sq, c

        bn = BatchNorm(3, stats_reducer=reducer)
        y = bn(X)
        bn.backward(np.ones_like(y))
        assert len(calls) == 2  # forward stats + backward sums

    def test_sync_reducer_equivalence(self):
        """Two half-batch shards with a summing reducer == full batch."""
        full = BatchNorm(3)
        y_full = full(X)

        state = {}

        def make_reducer(shards_stats, key):
            def reducer(s, sq, c):
                shards_stats.setdefault(key, []).append((s, sq, c))
                # sum over both shards (precomputed by running them below)
                return state[key]
            return reducer

        # Precompute global stats from both shards.
        a, b = X[:1], X[1:]
        for key, stat in (
            ("fwd", None),
        ):
            sa = (a.sum(axis=(0, 2, 3, 4)), np.einsum("ncdhw,ncdhw->c", a, a),
                  a.size / 3)
            sb = (b.sum(axis=(0, 2, 3, 4)), np.einsum("ncdhw,ncdhw->c", b, b),
                  b.size / 3)
            state[key] = (sa[0] + sb[0], sa[1] + sb[1], sa[2] + sb[2])

        shard_bn = BatchNorm(3, stats_reducer=lambda s, sq, c: state["fwd"])
        ya = shard_bn(a)
        yb = shard_bn(b)
        np.testing.assert_allclose(np.concatenate([ya, yb]), y_full, atol=1e-10)


class TestSequential:
    def test_forward_backward_chain(self):
        seq = Sequential(
            Conv3D(3, 4, 3, rng=np.random.default_rng(0)),
            ReLU(),
            Conv3D(4, 2, 3, rng=np.random.default_rng(1)),
        )
        y = seq(X)
        assert y.shape == (2, 2, 4, 4, 4)
        dx = seq.backward(np.ones_like(y))
        assert dx.shape == X.shape

    def test_len_getitem_append(self):
        seq = Sequential(ReLU())
        seq.append(Sigmoid())
        assert len(seq) == 2
        assert isinstance(seq[1], Sigmoid)

    def test_train_eval_propagates(self):
        seq = Sequential(ReLU(), BatchNorm(3))
        seq.eval()
        assert not seq[0].training and not seq[1].training
        seq.train()
        assert seq[0].training and seq[1].training
