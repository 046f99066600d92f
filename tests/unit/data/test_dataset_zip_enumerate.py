"""Dataset.zip / enumerate tests."""

import pytest

from repro.data import Dataset


class TestZip:
    def test_positional_pairing(self):
        a = Dataset.from_list(["i0", "i1", "i2"])
        b = Dataset.from_list(["l0", "l1", "l2"])
        assert Dataset.zip(a, b).to_list() == [
            ("i0", "l0"), ("i1", "l1"), ("i2", "l2")
        ]

    def test_stops_at_shortest(self):
        a = Dataset.range(5)
        b = Dataset.range(3)
        assert Dataset.zip(a, b).to_list() == [(0, 0), (1, 1), (2, 2)]

    def test_three_way(self):
        z = Dataset.zip(Dataset.range(2), Dataset.range(2), Dataset.range(2))
        assert z.to_list() == [(0, 0, 0), (1, 1, 1)]

    def test_restartable(self):
        z = Dataset.zip(Dataset.range(2), Dataset.range(2))
        assert z.to_list() == z.to_list()

    def test_image_label_decode_idiom(self):
        """The paper's NIfTI-pair pattern: zip file streams, joint map."""
        images = Dataset.from_list([f"img{i}.nii" for i in range(3)])
        labels = Dataset.from_list([f"lab{i}.nii" for i in range(3)])
        pairs = Dataset.zip(images, labels).map(
            lambda p: (p[0].replace(".nii", ""), p[1].replace(".nii", ""))
        )
        assert pairs.to_list()[2] == ("img2", "lab2")

    def test_empty_zip_rejected(self):
        with pytest.raises(ValueError):
            Dataset.zip()


class TestEnumerate:
    def test_indices(self):
        ds = Dataset.from_list(["a", "b"]).enumerate()
        assert ds.to_list() == [(0, "a"), (1, "b")]

    def test_start_offset(self):
        ds = Dataset.from_list(["a"]).enumerate(start=10)
        assert ds.to_list() == [(10, "a")]

    def test_composes_with_filter(self):
        ds = (Dataset.range(6).enumerate()
              .filter(lambda t: t[0] % 2 == 0)
              .map(lambda t: t[1]))
        assert ds.to_list() == [0, 2, 4]
