"""Pre-processing transform tests (the Section IV-A pipeline)."""

import numpy as np
import pytest

from repro.data import (
    SyntheticBraTS,
    center_crop,
    crop_to_divisible,
    merge_labels_binary,
    preprocess_subject,
    standardize,
)

rng = np.random.default_rng(21)


class TestStandardize:
    def test_zero_mean_unit_std_per_channel(self):
        img = rng.normal(loc=5, scale=3, size=(4, 6, 6, 6))
        out = standardize(img)
        for c in range(4):
            assert abs(out[c].mean()) < 1e-5
            assert abs(out[c].std() - 1) < 1e-4

    def test_channels_independent(self):
        img = np.stack([
            np.full((4, 4, 4), 10.0),
            rng.normal(size=(4, 4, 4)),
        ])
        out = standardize(img)
        # constant channel maps to ~0 (protected by eps)
        assert np.abs(out[0]).max() < 1e-3

    def test_masked_statistics(self):
        img = np.zeros((1, 4, 4, 4))
        img[0, :2] = 10.0
        mask = np.zeros((4, 4, 4), dtype=bool)
        mask[:2] = True  # stats from the bright half only
        out = standardize(img, mask=mask)
        # masked region becomes ~0-mean; outside keeps the offset
        assert abs(out[0][mask].mean()) < 1e-5

    def test_wrong_ndim(self):
        with pytest.raises(ValueError):
            standardize(np.zeros((4, 4, 4)))

    def test_output_float32(self):
        assert standardize(rng.normal(size=(1, 4, 4, 4))).dtype == np.float32


class TestCrop:
    def test_paper_crop_155_to_152(self):
        """240x240x155 -> 240x240x152 with divisor 8 (Section IV-A)."""
        vol = np.zeros((240 // 10, 240 // 10, 155))  # slim proxy, last dim real
        out = crop_to_divisible(vol, 8)
        assert out.shape[-1] == 152

    def test_center_crop_takes_middle(self):
        vol = np.arange(10)
        out = center_crop(vol, (6,))
        np.testing.assert_array_equal(out, np.arange(2, 8))

    def test_center_crop_multi_axis_with_channels(self):
        vol = rng.normal(size=(4, 8, 8, 7))
        out = center_crop(vol, (8, 8, 4))
        assert out.shape == (4, 8, 8, 4)
        np.testing.assert_array_equal(out, vol[:, :, :, 1:5])

    def test_crop_too_large_raises(self):
        with pytest.raises(ValueError, match="cannot crop"):
            center_crop(np.zeros((4,)), (6,))

    def test_already_divisible_unchanged(self):
        vol = rng.normal(size=(2, 16, 16, 8))
        np.testing.assert_array_equal(crop_to_divisible(vol, 8), vol)

    def test_too_small_for_divisor(self):
        with pytest.raises(ValueError, match="too small"):
            crop_to_divisible(np.zeros((4, 4, 4)), 8)

    def test_bad_divisor(self):
        with pytest.raises(ValueError):
            crop_to_divisible(np.zeros((8, 8, 8)), 0)


class TestLabels:
    def test_merge_binary(self):
        label = np.array([[0, 1], [2, 3]], dtype=np.uint8)
        out = merge_labels_binary(label)
        np.testing.assert_array_equal(out, [[0, 1], [1, 1]])
        assert out.dtype == np.float32


class TestPreprocessSubject:
    def test_end_to_end(self):
        s = SyntheticBraTS(2, (24, 24, 17), seed=0)[0]
        ex = preprocess_subject(s, divisor=8)
        assert ex.image.shape == (4, 24, 24, 16)  # 17 -> 16
        assert ex.mask.shape == (1, 24, 24, 16)
        assert ex.image.dtype == np.float32
        assert set(np.unique(ex.mask)) <= {0.0, 1.0}
        assert ex.subject_id == s.subject_id

    def test_standardized_channels(self):
        s = SyntheticBraTS(2, (24, 24, 16), seed=0)[0]
        ex = preprocess_subject(s)
        for c in range(4):
            assert abs(ex.image[c].mean()) < 1e-4

    def test_no_standardize_option(self):
        s = SyntheticBraTS(2, (24, 24, 16), seed=0)[0]
        ex = preprocess_subject(s, standardize_intensities=False)
        np.testing.assert_allclose(ex.image, s.image)

    def test_as_tuple(self):
        s = SyntheticBraTS(2, (24, 24, 16), seed=0)[0]
        ex = preprocess_subject(s)
        img, mask = ex.as_tuple()
        assert img is ex.image and mask is ex.mask
