"""Multiclass loss + softmax-head U-Net tests (the original 4-class task)."""

import numpy as np
import pytest

from repro.nn import (
    MulticlassSoftDiceLoss,
    UNet3D,
    get_loss,
    numeric_gradient,
    relative_error,
)
from repro.data import one_hot

rng = np.random.default_rng(31)


def softmaxed(shape=(2, 4, 3, 3, 3)):
    logits = rng.normal(size=shape)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def onehot_target(shape=(2, 4, 3, 3, 3)):
    labels = rng.integers(0, shape[1], size=(shape[0], *shape[2:]))
    return np.stack([one_hot(l, shape[1]) for l in labels])


class TestMulticlassSoftDice:
    def test_perfect_prediction_zero_loss(self):
        t = onehot_target()
        loss, _ = MulticlassSoftDiceLoss().forward(t.copy(), t)
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_loss_in_unit_interval(self):
        p, t = softmaxed(), onehot_target()
        loss, _ = MulticlassSoftDiceLoss().forward(p, t)
        assert 0.0 <= loss <= 1.0

    def test_gradient_matches_numeric(self):
        p, t = softmaxed((1, 3, 2, 2, 2)), onehot_target((1, 3, 2, 2, 2))
        loss_fn = MulticlassSoftDiceLoss()
        _, grad = loss_fn.forward(p, t)
        num = numeric_gradient(lambda v: loss_fn.forward(v, t)[0], p.copy())
        assert relative_error(grad, num) < 1e-5

    def test_exclude_background_gradient(self):
        p, t = softmaxed((1, 3, 2, 2, 2)), onehot_target((1, 3, 2, 2, 2))
        loss_fn = MulticlassSoftDiceLoss(include_background=False)
        _, grad = loss_fn.forward(p, t)
        assert (grad[:, 0] == 0).all()  # background channel untouched
        num = numeric_gradient(lambda v: loss_fn.forward(v, t)[0], p.copy())
        assert relative_error(grad, num) < 1e-5

    def test_no_foreground_rejected(self):
        with pytest.raises(ValueError):
            MulticlassSoftDiceLoss(include_background=False).forward(
                np.zeros((1, 1, 2, 2, 2)), np.zeros((1, 1, 2, 2, 2))
            )

    def test_registry(self):
        assert isinstance(get_loss("multiclass_dice"), MulticlassSoftDiceLoss)


class TestSoftmaxUNet:
    def test_output_is_distribution_over_classes(self):
        net = UNet3D(2, 4, 2, 2, final_activation="softmax",
                     rng=np.random.default_rng(0))
        y = net(rng.normal(size=(1, 2, 4, 4, 4)))
        assert y.shape == (1, 4, 4, 4, 4)
        np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-9)
        assert (y >= 0).all()

    def test_invalid_activation_rejected(self):
        with pytest.raises(ValueError):
            UNet3D(1, 1, 2, 2, final_activation="relu")

    def test_multiclass_training_reduces_loss(self):
        """Short 4-class training on a synthetic labelled volume."""
        from repro.nn import Adam

        net = UNet3D(2, 4, 3, 2, final_activation="softmax",
                     use_batchnorm=False, rng=np.random.default_rng(0))
        opt = Adam(net, lr=1e-2)
        loss_fn = MulticlassSoftDiceLoss()

        labels = rng.integers(0, 4, size=(2, 4, 4, 4))
        target = np.stack([one_hot(l, 4) for l in labels])
        # make the task learnable: channels encode the label directly
        x = np.stack([
            np.stack([(l == 1) | (l == 2), (l == 2) | (l == 3)])
            for l in labels
        ]).astype(float)
        x += rng.normal(scale=0.05, size=x.shape)

        first = None
        for _ in range(60):
            net.zero_grad()
            pred = net(x)
            value, dpred = loss_fn.forward(pred, target)
            if first is None:
                first = value
            net.backward(dpred)
            opt.step()
        assert value < first * 0.85

    def test_backward_through_softmax_head(self):
        net = UNet3D(1, 3, 2, 2, final_activation="softmax",
                     use_batchnorm=False, rng=np.random.default_rng(0),
                     input_grad=True)
        x = rng.normal(size=(1, 1, 4, 4, 4))
        y = net(x)
        dx = net.backward(rng.normal(size=y.shape))
        assert dx.shape == x.shape
        assert np.isfinite(dx).all()
