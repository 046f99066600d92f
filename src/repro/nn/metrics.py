"""Segmentation quality metrics.

The paper reports the Dice similarity coefficient (DSC, a.k.a.
Sorensen-Dice / F1) on validation and test sets, obtaining ~0.89 for the
full-volume 3D U-Net regardless of the distribution strategy
(Section IV-C).  Metrics here operate on *hard* masks obtained by
thresholding the sigmoid output.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "dice_coefficient",
    "confusion_counts",
    "batch_dice",
]


def _binarize(a: np.ndarray, threshold: float) -> np.ndarray:
    return (np.asarray(a) >= threshold).astype(np.float64)


def confusion_counts(
    pred: np.ndarray, target: np.ndarray, threshold: float = 0.5
) -> tuple[float, float, float, float]:
    """Return (TP, FP, FN, TN) voxel counts for hard masks."""
    p = _binarize(pred, threshold)
    t = _binarize(target, 0.5)
    tp = float((p * t).sum())
    fp = float((p * (1 - t)).sum())
    fn = float(((1 - p) * t).sum())
    tn = float(((1 - p) * (1 - t)).sum())
    return tp, fp, fn, tn


def dice_coefficient(
    pred: np.ndarray, target: np.ndarray, threshold: float = 0.5,
    empty_value: float = 1.0,
) -> float:
    """Hard Dice = 2|A ∩ B| / (|A| + |B|) in [0, 1].

    ``empty_value`` is returned when both masks are empty (a perfect
    match of nothing), the standard convention for BraTS-style scoring.
    """
    tp, fp, fn, _ = confusion_counts(pred, target, threshold)
    denom = 2 * tp + fp + fn
    if denom == 0:
        return float(empty_value)
    return 2 * tp / denom


def batch_dice(
    pred: np.ndarray, target: np.ndarray, threshold: float = 0.5
) -> np.ndarray:
    """Per-sample hard Dice over a (N, ...) batch; returns shape (N,)."""
    pred = np.asarray(pred)
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    return np.array(
        [
            dice_coefficient(pred[i], target[i], threshold)
            for i in range(pred.shape[0])
        ]
    )
