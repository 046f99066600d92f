"""Data augmentation for 3D MRI volumes.

The paper's input data is fixed per epoch (the premise of offline
binarisation), so augmentation is the standard *online* complement:
cheap, label-consistent transforms applied after the record read.  All
transforms are seeded and operate on channels-first ``(C, D, H, W)``
images paired with ``(1, D, H, W)`` masks.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "random_flip",
    "random_gaussian_noise",
    "Augmenter",
]

Transform = Callable[
    [np.ndarray, np.ndarray, np.random.Generator],
    tuple[np.ndarray, np.ndarray],
]


def _check(image: np.ndarray, mask: np.ndarray) -> None:
    if image.ndim != 4 or mask.ndim != 4:
        raise ValueError("expected channels-first 4-D image and mask")
    if image.shape[1:] != mask.shape[1:]:
        raise ValueError(
            f"image/mask spatial mismatch: {image.shape} vs {mask.shape}"
        )


def random_flip(axes: Sequence[int] = (1, 2, 3), p: float = 0.5) -> Transform:
    """Mirror image AND mask along each spatial axis with prob ``p``.

    Anatomically safe for left/right on brain MRI; the synthetic task is
    fully symmetric so all three axes default on.
    """
    axes = tuple(axes)
    if any(a not in (1, 2, 3) for a in axes):
        raise ValueError("flip axes must be spatial (1, 2 or 3)")

    def apply(image, mask, rng):
        _check(image, mask)
        for axis in axes:
            if rng.random() < p:
                image = np.flip(image, axis=axis)
                mask = np.flip(mask, axis=axis)
        return np.ascontiguousarray(image), np.ascontiguousarray(mask)

    return apply


def random_gaussian_noise(sigma: float = 0.05) -> Transform:
    """Additive white noise on the image only."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")

    def apply(image, mask, rng):
        _check(image, mask)
        noise = rng.normal(scale=sigma, size=image.shape)
        return (image + noise).astype(image.dtype), mask

    return apply


class Augmenter:
    """A seeded composition of transforms, applied in order.

    >>> aug = Augmenter([random_flip(), random_gaussian_noise(0.02)], seed=0)
    >>> image2, mask2 = aug(image, mask)

    Re-seeding with the same value replays the same augmentation
    sequence -- required for the reproducibility tests and for
    deterministic multi-worker sharding.
    """

    def __init__(self, transforms: Sequence[Transform], seed: int = 0):
        self.transforms = list(transforms)
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    def reset(self) -> None:
        self.rng = np.random.default_rng(self.seed)

    def __call__(self, image: np.ndarray, mask: np.ndarray):
        for t in self.transforms:
            image, mask = t(image, mask, self.rng)
        return image, mask
