"""Pre-processing transforms of the paper's pipeline (Section IV-A).

The MSD volumes are ``240 x 240 x 155``; the paper (a) standardises the
voxel intensities per modality, (b) crops to ``240 x 240 x 152`` so the
three max-poolings divide evenly, (c) transposes to channels-first, and
(d) reduces the 4-class problem to binary whole-tumour-vs-background by
joining the three positive classes.
"""

from __future__ import annotations

import numpy as np

from .synthetic_brats import Subject

__all__ = [
    "standardize",
    "center_crop",
    "crop_to_divisible",
    "merge_labels_binary",
    "preprocess_subject",
    "TrainingExample",
]


def standardize(
    image: np.ndarray, mask: np.ndarray | None = None, eps: float = 1e-8
) -> np.ndarray:
    """Z-score each channel of a ``(C, D, H, W)`` volume.

    When ``mask`` is given, statistics are computed over masked voxels
    only (e.g. the brain region) but applied everywhere -- the standard
    MRI normalisation.
    """
    image = np.asarray(image, dtype=np.float32)
    if image.ndim != 4:
        raise ValueError(f"expected (C, D, H, W), got shape {image.shape}")
    out = np.empty_like(image)
    for c in range(image.shape[0]):
        vals = image[c][mask] if mask is not None else image[c]
        mu = float(vals.mean())
        sd = float(vals.std())
        out[c] = (image[c] - mu) / (sd + eps)
    return out


def center_crop(volume: np.ndarray, target: tuple[int, ...]) -> np.ndarray:
    """Crop the trailing ``len(target)`` axes to ``target``, centred.

    Mirrors the paper's 155 -> 152 slice crop; raises if any target dim
    exceeds the source dim.
    """
    volume = np.asarray(volume)
    spatial_ndim = len(target)
    src = volume.shape[-spatial_ndim:]
    slices = [slice(None)] * (volume.ndim - spatial_ndim)
    for s, t in zip(src, target):
        if t > s:
            raise ValueError(f"cannot crop axis of size {s} to {t}")
        start = (s - t) // 2
        slices.append(slice(start, start + t))
    return volume[tuple(slices)]


def crop_to_divisible(volume: np.ndarray, divisor: int) -> np.ndarray:
    """Centre-crop the three trailing axes to multiples of ``divisor``
    (155 with divisor 8 -> 152, reproducing the paper's choice)."""
    if divisor < 1:
        raise ValueError("divisor must be >= 1")
    spatial = volume.shape[-3:]
    target = tuple((s // divisor) * divisor for s in spatial)
    if any(t == 0 for t in target):
        raise ValueError(
            f"spatial dims {spatial} too small for divisor {divisor}"
        )
    return center_crop(volume, target)


def merge_labels_binary(label: np.ndarray) -> np.ndarray:
    """4-class -> binary: classes {1, 2, 3} become 1 (whole tumour)."""
    return (np.asarray(label) > 0).astype(np.float32)


class TrainingExample:
    """A fully pre-processed (image, mask) pair ready for the model."""

    __slots__ = ("subject_id", "image", "mask")

    def __init__(self, subject_id: str, image: np.ndarray, mask: np.ndarray):
        self.subject_id = subject_id
        self.image = image  # (C, D, H, W) float32, standardized
        self.mask = mask    # (1, D, H, W) float32 binary

    def as_tuple(self) -> tuple[np.ndarray, np.ndarray]:
        return self.image, self.mask


def preprocess_subject(
    subject: Subject,
    divisor: int = 8,
    standardize_intensities: bool = True,
) -> TrainingExample:
    """The paper's full per-subject transform: crop to a
    pooling-divisible shape, standardise, binarise labels, channels
    first (the generator is already channels-first, matching Section
    III-A's data format).
    """
    image = crop_to_divisible(subject.image, divisor)
    label = crop_to_divisible(subject.label, divisor)
    if standardize_intensities:
        image = standardize(image)
    mask = merge_labels_binary(label)[None]  # (1, D, H, W)
    return TrainingExample(subject.subject_id, image.astype(np.float32), mask)
