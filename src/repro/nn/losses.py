"""Segmentation loss functions.

The paper trains with the *soft Dice loss* (Section II-B2):

    L(y_hat, y) = 1 - (2 * sum(y_hat * y) + eps) / (sum(y_hat) + sum(y) + eps)

with ``eps = 0.1`` to avoid division by zero, and also evaluates the
*quadratic* soft Dice variant (V-Net style, denominator of squared terms)
which "seems to lead to worst validation results" -- reproduced by
experiment E8.

Every loss exposes ``forward(pred, target) -> (scalar_loss, dpred)`` so a
single call yields both the value and the gradient seed for
backpropagation.  Losses are **means over the batch axis**, which makes
sharded data-parallel gradients (weighted by shard size) exactly equal to
the full-batch gradient -- the property behind claim C2.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Loss",
    "SoftDiceLoss",
    "QuadraticSoftDiceLoss",
    "BinaryCrossEntropy",
    "get_loss",
    "LOSS_NAMES",
]


def _flatten_per_sample(a: np.ndarray) -> np.ndarray:
    """Collapse all non-batch axes: (N, ...) -> (N, V)."""
    return a.reshape(a.shape[0], -1)


def _validate(pred: np.ndarray, target: np.ndarray) -> None:
    if pred.shape != target.shape:
        raise ValueError(
            f"prediction/target shape mismatch: {pred.shape} vs {target.shape}"
        )
    if pred.ndim < 2:
        raise ValueError("losses expect a leading batch axis")


class Loss:
    """Base class; subclasses implement :meth:`forward`."""

    def forward(self, pred: np.ndarray, target: np.ndarray):
        raise NotImplementedError

    def __call__(self, pred: np.ndarray, target: np.ndarray) -> float:
        return self.forward(pred, target)[0]


class SoftDiceLoss(Loss):
    """Paper's Dice loss: per-sample soft Dice, averaged over the batch."""

    def __init__(self, eps: float = 0.1):
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.eps = float(eps)

    def forward(self, pred: np.ndarray, target: np.ndarray):
        _validate(pred, target)
        p = _flatten_per_sample(pred)
        t = _flatten_per_sample(target)
        n = pred.shape[0]

        inter = np.einsum("nv,nv->n", p, t)
        num = 2.0 * inter + self.eps
        den = p.sum(axis=1) + t.sum(axis=1) + self.eps
        dice = num / den
        loss = float(np.mean(1.0 - dice))

        # d(1 - num/den)/dp_k = -(2*t_k*den - num) / den^2, averaged over batch
        grad = -(2.0 * t * den[:, None] - num[:, None]) / (den[:, None] ** 2)
        grad /= n
        return loss, grad.reshape(pred.shape)


class QuadraticSoftDiceLoss(Loss):
    """V-Net-style Dice with squared terms in the denominator.

    Tested by the paper and found to validate worse than the plain soft
    Dice; kept as the loss ablation of experiment E8.
    """

    def __init__(self, eps: float = 0.1):
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.eps = float(eps)

    def forward(self, pred: np.ndarray, target: np.ndarray):
        _validate(pred, target)
        p = _flatten_per_sample(pred)
        t = _flatten_per_sample(target)
        n = pred.shape[0]

        inter = np.einsum("nv,nv->n", p, t)
        num = 2.0 * inter + self.eps
        den = np.einsum("nv,nv->n", p, p) + np.einsum("nv,nv->n", t, t) + self.eps
        dice = num / den
        loss = float(np.mean(1.0 - dice))

        grad = -(2.0 * t * den[:, None] - num[:, None] * 2.0 * p) / (
            den[:, None] ** 2
        )
        grad /= n
        return loss, grad.reshape(pred.shape)


class BinaryCrossEntropy(Loss):
    """Voxel-wise BCE on probabilities (post-sigmoid), batch mean.

    Included for the class-imbalance discussion: plain BCE is dominated by
    the background class, which is exactly why the paper uses Dice.
    """

    def __init__(self, eps: float = 1e-7):
        self.eps = float(eps)

    def forward(self, pred: np.ndarray, target: np.ndarray):
        _validate(pred, target)
        p = np.clip(pred, self.eps, 1.0 - self.eps)
        n = pred.shape[0]
        voxels_per_sample = pred.size / n
        loss = float(
            -np.mean(target * np.log(p) + (1 - target) * np.log(1 - p))
        )
        grad = -(target / p - (1 - target) / (1 - p)) / (n * voxels_per_sample)
        return loss, grad


_REGISTRY = {
    "dice": SoftDiceLoss,
    "quadratic_dice": QuadraticSoftDiceLoss,
    "bce": BinaryCrossEntropy,
}

#: Every loss a config (or ``distmis --loss/--losses``) may name.
LOSS_NAMES = tuple(_REGISTRY)


def get_loss(spec, **kwargs) -> Loss:
    """Resolve a loss by name (as hyper-parameter configs do) or instance."""
    if isinstance(spec, Loss):
        return spec
    if isinstance(spec, str):
        try:
            return _REGISTRY[spec](**kwargs)
        except KeyError:
            raise ValueError(
                f"unknown loss {spec!r}; known: {sorted(_REGISTRY)}"
            ) from None
    raise TypeError(f"cannot interpret {spec!r} as a loss")
