"""Synthetic cohort generator tests."""

import hashlib

import numpy as np
import pytest

from repro.data import (
    CLASS_NAMES,
    MODALITIES,
    PAPER_NUM_SUBJECTS,
    PAPER_VOLUME_SHAPE,
    SyntheticBraTS,
)
from repro.data.synthetic_brats import _gaussian_smooth


@pytest.fixture(scope="module")
def gen():
    return SyntheticBraTS(num_subjects=6, volume_shape=(24, 24, 16), seed=3)


class TestConstants:
    def test_paper_dataset_facts(self):
        """Section IV-A: 484 subjects, 240x240x155, 4 modalities, 4 classes."""
        assert PAPER_NUM_SUBJECTS == 484
        assert PAPER_VOLUME_SHAPE == (240, 240, 155)
        assert MODALITIES == ("FLAIR", "T1w", "T1gd", "T2w")
        assert len(CLASS_NAMES) == 4


class TestGeneration:
    def test_shapes_and_dtypes(self, gen):
        s = gen[0]
        assert s.image.shape == (4, 24, 24, 16)
        assert s.image.dtype == np.float32
        assert s.label.shape == (24, 24, 16)
        assert s.label.dtype == np.uint8

    def test_labels_in_range(self, gen):
        for s in gen:
            assert s.label.min() >= 0 and s.label.max() <= 3

    def test_deterministic_per_index(self):
        a = SyntheticBraTS(4, (16, 16, 8), seed=7).generate(2)
        b = SyntheticBraTS(4, (16, 16, 8), seed=7).generate(2)
        np.testing.assert_array_equal(a.image, b.image)
        np.testing.assert_array_equal(a.label, b.label)

    def test_different_seeds_differ(self):
        a = SyntheticBraTS(4, (16, 16, 8), seed=1)[0]
        b = SyntheticBraTS(4, (16, 16, 8), seed=2)[0]
        assert not np.array_equal(a.image, b.image)

    def test_subjects_differ_within_cohort(self, gen):
        assert not np.array_equal(gen[0].image, gen[1].image)

    def test_random_access_matches_iteration(self, gen):
        by_iter = [s.subject_id for s in gen]
        by_index = [gen[i].subject_id for i in range(len(gen))]
        assert by_iter == by_index

    def test_index_out_of_range(self, gen):
        with pytest.raises(IndexError):
            gen.generate(100)

    def test_tumour_has_nested_classes(self):
        g = SyntheticBraTS(6, (24, 24, 16), seed=0, tumor_probability=1.0)
        s = g[0]
        present = set(np.unique(s.label))
        assert {0, 1, 2, 3} <= present, "expected core, rim and edema"

    def test_no_tumor_subjects_when_probability_zero(self):
        g = SyntheticBraTS(3, (16, 16, 8), seed=0, tumor_probability=0.0)
        for s in g:
            assert s.label.max() == 0
            assert not s.meta["has_tumor"]

    def test_binary_label_joins_positive_classes(self, gen):
        s = gen[0]
        np.testing.assert_array_equal(s.binary_label(), (s.label > 0).astype(np.uint8))

    def test_tumour_voxels_brighter_on_flair(self):
        """Edema should be hyperintense on FLAIR vs normal brain."""
        g = SyntheticBraTS(4, (24, 24, 16), seed=1, tumor_probability=1.0,
                           noise_sigma=0.02)
        s = g[0]
        flair = s.image[0]
        edema_mean = flair[s.label == 3].mean()
        brain_mean = flair[(s.label == 0) & (flair != 0)].mean()
        assert edema_mean > brain_mean

    def test_t1gd_core_enhancement(self):
        g = SyntheticBraTS(4, (24, 24, 16), seed=1, tumor_probability=1.0,
                           noise_sigma=0.02)
        s = g[0]
        t1gd = s.image[2]
        assert t1gd[s.label == 1].mean() > t1gd[s.label == 3].mean()

    def test_nbytes(self, gen):
        s = gen[0]
        assert s.nbytes() == s.image.nbytes + s.label.nbytes

    def test_subject_ids_stable(self, gen):
        assert gen.subject_ids()[0] == "BRATS_0000"
        assert gen[3].subject_id == "BRATS_0003"

    @pytest.mark.parametrize("shape,digest", [
        ((16, 16, 16),
         "4d074912c6990cf7158085f0940986071c03c582f249ba230245d42e7d24586f"),
        ((24, 24, 16),
         "88b71e9e6366adb67ca5a6a11d4bb3c2de52563a44bab3e0763a4586a9d5bd4c"),
    ], ids=["16x16x16", "24x24x16"])
    def test_cohort_bytes_pinned(self, shape, digest):
        """Pinned cohort bytes: a change to the texture smoothing (sigma
        included), the draws or the label map fails here."""
        gen = SyntheticBraTS(num_subjects=3, volume_shape=shape, seed=0)
        h = hashlib.sha256()
        for i in range(3):
            s = gen.generate(i)
            h.update(s.image.tobytes())
            h.update(s.label.tobytes())
        assert h.hexdigest() == digest


class TestGaussianSmooth:
    @pytest.mark.parametrize("sigma", [2.0, 2.7, 4.0, 5.5, 8.0])
    @pytest.mark.parametrize("shape", [(8, 8, 8), (12, 20, 9), (24, 24, 24),
                                       (64, 64, 40)],
                             ids=["8^3", "12x20x9", "24^3", "64x64x40"])
    def test_bit_identical_to_scipy(self, shape, sigma):
        """The NumPy smoothing the cohort uses gives SciPy's bits, edges
        included: at 8^3 with sigma 2 the radius equals the axis length,
        and larger sigmas reach past it."""
        from scipy.ndimage import gaussian_filter

        rng = np.random.default_rng(int(sigma * 10) + sum(shape))
        volume = rng.normal(size=shape)
        expected = gaussian_filter(volume, sigma=sigma)
        assert np.array_equal(_gaussian_smooth(volume, sigma), expected)

    def test_input_is_not_modified(self):
        volume = np.random.default_rng(0).normal(size=(8, 9, 10))
        before = volume.copy()
        _gaussian_smooth(volume, 2.0)
        assert np.array_equal(volume, before)


class TestValidation:
    def test_bad_num_subjects(self):
        with pytest.raises(ValueError):
            SyntheticBraTS(0)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            SyntheticBraTS(2, volume_shape=(4, 4, 4))
        with pytest.raises(ValueError):
            SyntheticBraTS(2, volume_shape=(16, 16))

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            SyntheticBraTS(2, tumor_probability=1.5)
