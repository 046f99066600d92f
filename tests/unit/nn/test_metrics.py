"""Metric tests: Dice and confusion counts."""

import numpy as np
import pytest

from repro.nn import batch_dice, dice_coefficient
from repro.nn.metrics import confusion_counts


def _masks():
    pred = np.zeros((4, 4, 4))
    target = np.zeros((4, 4, 4))
    pred[:2] = 1.0       # 32 voxels predicted
    target[1:3] = 1.0    # 32 voxels true, overlap = 16
    return pred, target


class TestDice:
    def test_half_overlap(self):
        pred, target = _masks()
        # dice = 2*16 / (32+32) = 0.5
        assert dice_coefficient(pred, target) == pytest.approx(0.5)

    def test_perfect(self):
        pred, target = _masks()
        assert dice_coefficient(target, target) == pytest.approx(1.0)

    def test_disjoint(self):
        pred = np.zeros((4, 4, 4)); pred[0] = 1
        target = np.zeros((4, 4, 4)); target[3] = 1
        assert dice_coefficient(pred, target) == pytest.approx(0.0)

    def test_both_empty_returns_empty_value(self):
        z = np.zeros((2, 2, 2))
        assert dice_coefficient(z, z) == 1.0
        assert dice_coefficient(z, z, empty_value=0.0) == 0.0

    def test_threshold_applied_to_probabilities(self):
        pred = np.full((2, 2, 2), 0.6)
        target = np.ones((2, 2, 2))
        assert dice_coefficient(pred, target, threshold=0.5) == pytest.approx(1.0)
        assert dice_coefficient(pred, target, threshold=0.7) == pytest.approx(0.0)

    def test_symmetry(self):
        pred, target = _masks()
        assert dice_coefficient(pred, target) == dice_coefficient(target, pred)


class TestConfusion:
    def test_counts_sum_to_total(self):
        pred, target = _masks()
        tp, fp, fn, tn = confusion_counts(pred, target)
        assert tp + fp + fn + tn == pred.size
        assert (tp, fp, fn, tn) == (16, 16, 16, 16)


class TestBatchDice:
    def test_per_sample(self):
        pred = np.stack([np.ones((2, 2, 2)), np.zeros((2, 2, 2))])
        target = np.ones((2, 2, 2, 2))
        out = batch_dice(pred, target)
        assert out.shape == (2,)
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            batch_dice(np.zeros((2, 2)), np.zeros((3, 2)))


class TestThresholds:
    """Hard masks come from thresholding the sigmoid output; the
    prediction threshold moves the counts, the target's does not."""

    @pytest.mark.parametrize("threshold, counts", [
        (0.1, (2, 2, 0, 0)), (0.25, (2, 1, 0, 1)), (0.35, (1, 1, 1, 1)),
        (0.65, (1, 0, 1, 2)), (0.95, (0, 0, 2, 2)),
    ])
    def test_confusion_counts(self, threshold, counts):
        pred = np.array([0.9, 0.6, 0.3, 0.2])
        target = np.array([1.0, 0.0, 1.0, 0.0])
        assert confusion_counts(pred, target, threshold) == counts

    @pytest.mark.parametrize("threshold", [0.2, 0.5, 0.8])
    def test_batch_dice_matches_per_sample_dice(self, threshold):
        r = np.random.default_rng(4)
        pred = r.uniform(size=(3, 1, 4, 4, 4))
        target = (r.uniform(size=pred.shape) > 0.6).astype(float)
        expected = [dice_coefficient(p, t, threshold)
                    for p, t in zip(pred, target)]
        np.testing.assert_array_equal(batch_dice(pred, target, threshold),
                                      expected)
