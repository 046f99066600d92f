"""Synthetic MSD Task 1 (BraTS-like) dataset generator.

The paper benchmarks on the Medical Segmentation Decathlon "Task 1"
brain-tumour set: 484 multi-modal MRI subjects (FLAIR, T1w, T1gd, T2w),
volume size 240x240x155 at 1 mm isotropic spacing, with 4-class ground
truth (background / enhancing tumour / non-enhancing tumour / edema)
(Section IV-A).  That dataset cannot be downloaded here, so this module
generates a *structurally equivalent* synthetic cohort:

* an ellipsoidal "brain" with smooth low-frequency intensity texture,
* a tumour composed of three nested regions -- an enhancing core, a
  non-enhancing rim and a surrounding edema shell -- so the 4-class label
  map and the "join the three positive classes" binarisation of the paper
  are both exercised,
* four channels derived from the same anatomy with modality-specific
  contrast (e.g. edema bright on FLAIR/T2w, core bright on T1gd), plus
  per-channel noise.

Shapes, dtypes, class semantics and per-channel standardisation all match
the paper's pipeline; only the clinical content is synthetic, which is
irrelevant to the scheduling/throughput claims and sufficient for the
learning claims (the tumours are learnable from local intensity).

The texture is white noise smoothed by a separable Gaussian written in
NumPy, so synthesising a cohort loads no SciPy.  It reproduces
``scipy.ndimage.gaussian_filter(x, sigma, mode="reflect", truncate=4.0)``
bit for bit, which the cohort's sha256 pins rely on: the same
normalised kernel ``exp(-x**2 / (2 sigma**2)) / sum`` of radius
``int(4 sigma + 0.5)``; axes filtered in the order 0, 1, 2 in float64;
half-sample symmetric edges; and SciPy's summation order for every
output voxel, ``centre * w[0]`` and then ``+= (left[j] + right[j]) * w[j]``
for ``j = radius .. 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MODALITIES",
    "CLASS_NAMES",
    "PAPER_VOLUME_SHAPE",
    "PAPER_NUM_SUBJECTS",
    "Subject",
    "SyntheticBraTS",
]

MODALITIES = ("FLAIR", "T1w", "T1gd", "T2w")
CLASS_NAMES = ("background", "enhancing", "non-enhancing", "edema")
PAPER_VOLUME_SHAPE = (240, 240, 155)
PAPER_NUM_SUBJECTS = 484


@dataclass
class Subject:
    """One multi-modal MRI subject.

    Attributes
    ----------
    subject_id:
        Stable identifier, e.g. ``"BRATS_0007"``.
    image:
        ``(4, D, H, W)`` float32 channels-first volume (modality order as
        in :data:`MODALITIES`).
    label:
        ``(D, H, W)`` uint8 map with values 0..3 (:data:`CLASS_NAMES`).
    spacing:
        Voxel size in mm (the MSD set is 1.0 isotropic).
    """

    subject_id: str
    image: np.ndarray
    label: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    meta: dict = field(default_factory=dict)

    @property
    def volume_shape(self) -> tuple[int, int, int]:
        return tuple(self.label.shape)

    def binary_label(self) -> np.ndarray:
        """Whole-tumour mask: the paper joins the three non-background
        classes into a single positive label (Section IV-A)."""
        return (self.label > 0).astype(np.uint8)

    def nbytes(self) -> int:
        return int(self.image.nbytes + self.label.nbytes)


# voxels of padded lines smoothed at once: a cache-sized working set
_SMOOTH_BLOCK = 1 << 16


def _gaussian_smooth(volume: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian-smooth a 3-D volume; bit-identical to SciPy's
    ``gaussian_filter(volume, sigma)`` (see the module docstring)."""
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    weights = weights / weights.sum()
    out = np.array(volume, dtype=np.float64)
    for axis in range(out.ndim):
        _smooth_axis(out, weights, axis)
    return out


def _smooth_axis(volume: np.ndarray, weights: np.ndarray, axis: int) -> None:
    """Correlate every line of ``volume`` along ``axis`` with the
    symmetric ``weights``, in place, a block of lines at a time."""
    r = len(weights) // 2
    lines = np.moveaxis(volume, axis, 0)
    n, a, b = lines.shape
    step = max(1, _SMOOTH_BLOCK // ((n + 2 * r) * b))
    for start in range(0, a, step):
        block = lines[:, start:start + step]
        padded = np.pad(block, ((r, r), (0, 0), (0, 0)), mode="symmetric")
        acc = padded[r:r + n] * weights[r]
        pair = np.empty_like(acc)
        for j in range(r, 0, -1):
            np.add(padded[r - j:r - j + n], padded[r + j:r + j + n], out=pair)
            pair *= weights[r + j]
            acc += pair
        block[...] = acc


def _ellipsoid_mask(shape, center, radii) -> np.ndarray:
    grids = np.ogrid[tuple(slice(0, s) for s in shape)]
    acc = np.zeros(shape, dtype=np.float64)
    for g, c, r in zip(grids, center, radii):
        acc = acc + ((g - c) / max(r, 1e-6)) ** 2
    return acc <= 1.0


class SyntheticBraTS:
    """Seeded generator of BraTS-like subjects.

    Parameters
    ----------
    num_subjects:
        Cohort size (paper: 484).
    volume_shape:
        Spatial size; defaults to a small shape suitable for in-process
        training.  Pass :data:`PAPER_VOLUME_SHAPE` for full-scale I/O
        experiments.
    seed:
        Base seed; subject ``i`` is generated from ``seed + i`` so any
        subject can be produced independently and reproducibly (a
        requirement for sharding subjects across workers).
    tumor_probability:
        Fraction of subjects with a tumour (a handful of negatives keeps
        the Dice-on-empty edge cases exercised).
    """

    def __init__(
        self,
        num_subjects: int = 32,
        volume_shape: tuple[int, int, int] = (24, 24, 16),
        seed: int = 0,
        tumor_probability: float = 0.95,
        noise_sigma: float = 0.08,
    ):
        if num_subjects < 1:
            raise ValueError("num_subjects must be >= 1")
        if len(volume_shape) != 3 or any(s < 8 for s in volume_shape):
            raise ValueError(
                f"volume_shape must be 3 dims of at least 8 voxels, got {volume_shape}"
            )
        if not 0.0 <= tumor_probability <= 1.0:
            raise ValueError("tumor_probability must be in [0, 1]")
        self.num_subjects = int(num_subjects)
        self.volume_shape = tuple(int(s) for s in volume_shape)
        self.seed = int(seed)
        self.tumor_probability = float(tumor_probability)
        self.noise_sigma = float(noise_sigma)

    def __len__(self) -> int:
        return self.num_subjects

    def subject_ids(self) -> list[str]:
        return [f"BRATS_{i:04d}" for i in range(self.num_subjects)]

    def generate(self, index: int) -> Subject:
        """Generate subject ``index`` deterministically."""
        if not 0 <= index < self.num_subjects:
            raise IndexError(
                f"subject index {index} out of range [0, {self.num_subjects})"
            )
        rng = np.random.default_rng(self.seed * 1_000_003 + index)
        shape = self.volume_shape

        # --- anatomy: brain ellipsoid with smooth texture -------------
        center = np.array(shape) / 2.0 + rng.uniform(-1.5, 1.5, size=3)
        radii = np.array(shape) * rng.uniform(0.36, 0.44, size=3)
        brain = _ellipsoid_mask(shape, center, radii)

        texture = rng.normal(size=shape)
        texture = _gaussian_smooth(texture, max(2.0, min(shape) / 8))
        texture = (texture - texture.mean()) / (texture.std() + 1e-9)

        # --- tumour: nested core / rim / edema -------------------------
        label = np.zeros(shape, dtype=np.uint8)
        has_tumor = rng.random() < self.tumor_probability
        if has_tumor:
            # Place the tumour well inside the brain.
            t_center = center + rng.uniform(-0.2, 0.2, size=3) * radii
            base_r = rng.uniform(0.4, 0.65) * radii.min()
            edema = _ellipsoid_mask(shape, t_center, (base_r,) * 3) & brain
            rim = _ellipsoid_mask(shape, t_center, (base_r * 0.72,) * 3) & brain
            core = _ellipsoid_mask(shape, t_center, (base_r * 0.45,) * 3) & brain
            label[edema] = 3
            label[rim] = 2
            label[core] = 1

        # --- modalities -------------------------------------------------
        # Contrast table: (brain, edema, rim, core) mean intensity per
        # modality, loosely mimicking real MRI appearance.
        contrast = {
            "FLAIR": (0.45, 0.95, 0.80, 0.70),
            "T1w": (0.60, 0.40, 0.35, 0.30),
            "T1gd": (0.60, 0.45, 0.50, 0.98),
            "T2w": (0.50, 0.90, 0.75, 0.60),
        }
        image = np.zeros((len(MODALITIES), *shape), dtype=np.float32)
        masks = (brain, label == 3, label == 2, label == 1)
        for c, mod in enumerate(MODALITIES):
            vol = np.zeros(shape, dtype=np.float64)
            for level, mask in zip(contrast[mod], masks):
                vol[mask] = level
            vol += 0.1 * texture * brain
            vol += rng.normal(scale=self.noise_sigma, size=shape) * brain
            image[c] = vol.astype(np.float32)

        return Subject(
            subject_id=f"BRATS_{index:04d}",
            image=image,
            label=label,
            meta={"has_tumor": bool(has_tumor), "seed": self.seed},
        )

    def __iter__(self):
        for i in range(self.num_subjects):
            yield self.generate(i)

    def __getitem__(self, index: int) -> Subject:
        return self.generate(index)
