"""Augmentation transform tests."""

import numpy as np
import pytest

from repro.data import (
    Augmenter,
    random_flip,
    random_gaussian_noise,
)

rng = np.random.default_rng(12)


def pair():
    img = rng.normal(size=(4, 8, 8, 8)).astype(np.float32)
    mask = (rng.uniform(size=(1, 8, 8, 8)) > 0.8).astype(np.float32)
    return img, mask


class TestFlip:
    def test_flips_image_and_mask_together(self):
        img, mask = pair()
        t = random_flip(axes=(1,), p=1.0)
        img2, mask2 = t(img, mask, np.random.default_rng(0))
        np.testing.assert_array_equal(img2, img[:, ::-1])
        np.testing.assert_array_equal(mask2, mask[:, ::-1])

    def test_probability_zero_is_identity(self):
        img, mask = pair()
        t = random_flip(p=0.0)
        img2, mask2 = t(img, mask, np.random.default_rng(0))
        np.testing.assert_array_equal(img2, img)

    def test_double_flip_identity(self):
        img, mask = pair()
        t = random_flip(axes=(2,), p=1.0)
        r = np.random.default_rng(0)
        i2, m2 = t(*t(img, mask, r), r)
        np.testing.assert_array_equal(i2, img)

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            random_flip(axes=(0,))


class TestIntensity:
    def test_noise_changes_image_statistically(self):
        img, mask = pair()
        t = random_gaussian_noise(0.1)
        img2, _ = t(img, mask, np.random.default_rng(0))
        diff = img2 - img
        assert 0.05 < diff.std() < 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            random_gaussian_noise(-0.1)

    def test_spatial_mismatch_rejected(self):
        t = random_gaussian_noise(0.1)
        with pytest.raises(ValueError, match="mismatch"):
            t(np.zeros((1, 4, 4, 4)), np.zeros((1, 4, 4, 2)),
              np.random.default_rng(0))


class TestAugmenter:
    def test_composition_and_replay(self):
        img, mask = pair()
        aug = Augmenter(
            [random_flip(p=0.5), random_gaussian_noise(0.05)], seed=4
        )
        a = aug(img, mask)
        aug.reset()
        b = aug(img, mask)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_successive_calls_differ(self):
        img, mask = pair()
        aug = Augmenter([random_gaussian_noise(0.05)], seed=4)
        a = aug(img, mask)
        b = aug(img, mask)
        assert not np.array_equal(a[0], b[0])
