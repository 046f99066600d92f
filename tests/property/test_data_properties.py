"""Property-based tests on patching, augmentation and the epoch shuffle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.data import (
    Augmenter,
    PatchSpec,
    extract_patches,
    patch_grid,
    random_flip,
    random_gaussian_noise,
    shuffle_order,
    stitch_patches,
)

SMALL = {"max_examples": 40, "deadline": None}


class TestPatchProperties:
    @settings(**SMALL)
    @given(
        dim=st.integers(4, 12),
        patch=st.integers(2, 4),
        stride=st.integers(1, 4),
    )
    def test_grid_covers_every_voxel(self, dim, patch, stride):
        stride = min(stride, patch)
        spec = PatchSpec((patch,) * 3, (stride,) * 3)
        if patch > dim:
            return
        covered = np.zeros((dim, dim, dim), dtype=bool)
        for d, h, w in patch_grid((dim, dim, dim), spec):
            covered[d : d + patch, h : h + patch, w : w + patch] = True
        assert covered.all()

    @settings(**SMALL)
    @given(
        vol=arrays(np.float64, (1, 6, 6, 6),
                   elements=st.floats(-5, 5, allow_nan=False)),
        stride=st.integers(1, 3),
    )
    def test_extract_stitch_identity(self, vol, stride):
        """Stitching back patches of the SAME volume reproduces it for
        any legal overlap (averaging equal values is a no-op)."""
        spec = PatchSpec((3, 3, 3), (stride,) * 3)
        patches, offsets = extract_patches(vol, spec)
        back = stitch_patches(patches, offsets, vol.shape[1:])
        np.testing.assert_allclose(back, vol, atol=1e-10)


class TestAugmentProperties:
    image = arrays(np.float32, (2, 4, 4, 4),
                   elements=st.floats(-3, 3, allow_nan=False, width=32))
    mask = arrays(np.float32, (1, 4, 4, 4),
                  elements=st.sampled_from([0.0, 1.0]))

    @settings(**SMALL)
    @given(img=image, msk=mask, seed=st.integers(0, 100))
    def test_mask_stays_binary_and_volume_preserved(self, img, msk, seed):
        """No augmentation may change the number of positive voxels or
        de-binarise the mask (flips permute, noise skips it)."""
        aug = Augmenter(
            [random_flip(p=0.7), random_gaussian_noise(0.3),
             random_flip(axes=(2,), p=0.5), random_gaussian_noise(0.1)],
            seed=seed,
        )
        img2, msk2 = aug(img, msk)
        assert img2.shape == img.shape and msk2.shape == msk.shape
        assert set(np.unique(msk2)) <= {0.0, 1.0}
        assert msk2.sum() == msk.sum()

    @settings(**SMALL)
    @given(img=image, msk=mask, seed=st.integers(0, 100))
    def test_replay_determinism(self, img, msk, seed):
        aug = Augmenter([random_flip(p=0.5), random_gaussian_noise(0.05)],
                        seed=seed)
        a_img, a_msk = aug(img, msk)
        aug.reset()
        b_img, b_msk = aug(img, msk)
        np.testing.assert_array_equal(a_img, b_img)
        np.testing.assert_array_equal(a_msk, b_msk)


class TestDatasetAlgebra:
    @settings(**SMALL)
    @given(n=st.integers(1, 20), k=st.integers(1, 20),
           seed=st.integers(0, 50))
    def test_shuffle_preserves_multiset(self, n, k, seed):
        out = shuffle_order(n, buffer_size=k, seed=seed).tolist()
        assert sorted(out) == list(range(n))
