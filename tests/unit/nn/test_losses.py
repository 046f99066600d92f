"""Loss function tests: values, analytic gradients, registry."""

import numpy as np
import pytest

from repro.nn import (
    BinaryCrossEntropy,
    QuadraticSoftDiceLoss,
    SoftDiceLoss,
    get_loss,
    numeric_gradient,
    relative_error,
)
from repro.nn.losses import LOSS_NAMES

rng = np.random.default_rng(99)


def _rand_pred_target(shape=(2, 1, 3, 3, 3)):
    pred = rng.uniform(0.05, 0.95, size=shape)
    target = (rng.uniform(size=shape) > 0.6).astype(float)
    return pred, target


class TestSoftDice:
    def test_perfect_match_is_zero_loss(self):
        t = np.zeros((1, 1, 4, 4, 4))
        t[0, 0, :2] = 1.0
        loss, _ = SoftDiceLoss().forward(t.copy(), t)
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_complete_mismatch_near_one(self):
        pred = np.zeros((1, 1, 4, 4, 4))
        pred[0, 0, :2] = 1.0
        target = np.zeros_like(pred)
        target[0, 0, 2:] = 1.0
        loss, _ = SoftDiceLoss(eps=1e-6).forward(pred, target)
        assert loss == pytest.approx(1.0, abs=1e-4)

    def test_empty_masks_give_zero_loss(self):
        """eps keeps 0/0 at dice=1 (loss 0) for empty prediction+target."""
        z = np.zeros((1, 1, 2, 2, 2))
        loss, _ = SoftDiceLoss(eps=0.1).forward(z, z.copy())
        assert loss == pytest.approx(0.0)

    def test_loss_in_unit_interval(self):
        pred, target = _rand_pred_target()
        loss, _ = SoftDiceLoss().forward(pred, target)
        assert 0.0 <= loss <= 1.0

    def test_gradient_matches_numeric(self):
        pred, target = _rand_pred_target((2, 1, 2, 2, 2))
        loss_fn = SoftDiceLoss()
        _, grad = loss_fn.forward(pred, target)
        num = numeric_gradient(lambda p: loss_fn.forward(p, target)[0], pred.copy())
        assert relative_error(grad, num) < 1e-5

    def test_batch_mean_semantics(self):
        """Loss of a batch == mean of per-sample losses (claim C2 lever)."""
        pred, target = _rand_pred_target((4, 1, 2, 2, 2))
        loss_fn = SoftDiceLoss()
        full, _ = loss_fn.forward(pred, target)
        singles = [
            loss_fn.forward(pred[i : i + 1], target[i : i + 1])[0]
            for i in range(4)
        ]
        assert full == pytest.approx(np.mean(singles))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            SoftDiceLoss().forward(np.zeros((1, 2)), np.zeros((1, 3)))

    def test_bad_eps_rejected(self):
        with pytest.raises(ValueError):
            SoftDiceLoss(eps=0.0)


class TestQuadraticSoftDice:
    def test_gradient_matches_numeric(self):
        pred, target = _rand_pred_target((2, 1, 2, 2, 2))
        loss_fn = QuadraticSoftDiceLoss()
        _, grad = loss_fn.forward(pred, target)
        num = numeric_gradient(lambda p: loss_fn.forward(p, target)[0], pred.copy())
        assert relative_error(grad, num) < 1e-5

    def test_perfect_binary_match_is_zero(self):
        t = np.zeros((1, 1, 2, 2, 2))
        t[0, 0, 0] = 1.0
        loss, _ = QuadraticSoftDiceLoss().forward(t.copy(), t)
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_differs_from_plain_dice_on_soft_preds(self):
        pred, target = _rand_pred_target()
        l1, _ = SoftDiceLoss().forward(pred, target)
        l2, _ = QuadraticSoftDiceLoss().forward(pred, target)
        assert l1 != pytest.approx(l2)


class TestBCE:
    def test_gradient_matches_numeric(self):
        pred, target = _rand_pred_target((2, 1, 2, 2, 2))
        loss_fn = BinaryCrossEntropy()
        _, grad = loss_fn.forward(pred, target)
        num = numeric_gradient(lambda p: loss_fn.forward(p, target)[0], pred.copy())
        assert relative_error(grad, num) < 1e-4

    def test_clipping_handles_extremes(self):
        pred = np.array([[0.0, 1.0]])
        target = np.array([[1.0, 0.0]])
        loss, grad = BinaryCrossEntropy().forward(pred, target)
        assert np.isfinite(loss) and np.isfinite(grad).all()


class TestRegistry:
    def test_lookup_by_name(self):
        assert isinstance(get_loss("dice"), SoftDiceLoss)
        assert isinstance(get_loss("quadratic_dice"), QuadraticSoftDiceLoss)
        assert isinstance(get_loss("bce"), BinaryCrossEntropy)

    def test_instance_passthrough(self):
        inst = SoftDiceLoss(eps=0.5)
        assert get_loss(inst) is inst

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown loss"):
            get_loss("focal")

    def test_kwargs_forwarded(self):
        assert get_loss("dice", eps=0.25).eps == 0.25


class TestEveryRegisteredLoss:
    """Contracts every loss a config may name must keep: the analytic
    gradient, batch-mean semantics (so sharded data-parallel gradients
    sum to the full-batch one) and the float32 compute path."""

    @pytest.mark.parametrize("shape", [(1, 1, 3, 3, 3), (3, 2, 2, 2, 2),
                                       (4, 1, 1, 1, 2)],
                             ids=["single", "two_channel", "batch4"])
    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_gradient_matches_numeric(self, name, shape):
        pred, target = _rand_pred_target(shape)
        loss_fn = get_loss(name)
        _, grad = loss_fn.forward(pred, target)
        num = numeric_gradient(lambda p: loss_fn.forward(p, target)[0],
                               pred.copy())
        assert relative_error(grad, num) < 1e-4

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_batch_loss_is_mean_of_sample_losses(self, name):
        pred, target = _rand_pred_target((4, 1, 2, 2, 2))
        loss_fn = get_loss(name)
        full, _ = loss_fn.forward(pred, target)
        singles = [loss_fn.forward(pred[i:i + 1], target[i:i + 1])[0]
                   for i in range(4)]
        assert full == pytest.approx(np.mean(singles))

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_shard_gradients_weighted_by_size_give_full_gradient(self, name):
        pred, target = _rand_pred_target((5, 1, 2, 2, 2))
        loss_fn = get_loss(name)
        _, full = loss_fn.forward(pred, target)
        shards = [slice(0, 2), slice(2, 5)]
        parts = [loss_fn.forward(pred[s], target[s])[1]
                 * (s.stop - s.start) / 5 for s in shards]
        np.testing.assert_allclose(np.concatenate(parts), full,
                                   rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_float32_inputs_keep_float32_gradient(self, name):
        pred, target = _rand_pred_target()
        l64, g64 = get_loss(name).forward(pred, target)
        l32, g32 = get_loss(name).forward(pred.astype(np.float32),
                                          target.astype(np.float32))
        assert isinstance(l32, float)
        assert g32.dtype == np.float32 and g32.shape == pred.shape
        assert l32 == pytest.approx(l64, rel=1e-5)
        np.testing.assert_allclose(g32, g64, rtol=1e-4, atol=1e-6)

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_target_scores_below_a_blurred_prediction(self, name):
        _, target = _rand_pred_target()
        loss_fn = get_loss(name)
        blurred = 0.7 * target + 0.15
        assert loss_fn(target.copy(), target) < loss_fn(blurred, target)

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_shape_mismatch_raises(self, name):
        with pytest.raises(ValueError, match="mismatch"):
            get_loss(name).forward(np.zeros((1, 2)), np.zeros((1, 3)))

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_missing_batch_axis_rejected(self, name):
        with pytest.raises(ValueError, match="batch axis"):
            get_loss(name).forward(np.zeros(3), np.zeros(3))

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_name_resolves_to_a_fresh_instance(self, name):
        a, b = get_loss(name), get_loss(name)
        assert type(a) is type(b) and a is not b
        assert get_loss(a) is a
