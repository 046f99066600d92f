"""tf.data-style stream and seeded epoch shuffle tests."""

import numpy as np
import pytest

from repro.data import Dataset, shuffle_order


class TestConstructors:
    def test_from_generator_restartable(self):
        ds = Dataset.from_generator(lambda: (i * i for i in range(4)))
        assert list(ds) == [0, 1, 4, 9]
        assert list(ds) == [0, 1, 4, 9]


class TestShuffleBatch:
    """``shuffle_order``: the index order epoch batches are gathered in."""

    def test_shuffle_is_permutation(self):
        out = shuffle_order(20, buffer_size=8, seed=1).tolist()
        assert sorted(out) == list(range(20))
        assert out != list(range(20))

    def test_shuffle_seeded_reproducible(self):
        np.testing.assert_array_equal(shuffle_order(20, 8, seed=3),
                                      shuffle_order(20, 8, seed=3))

    def test_shuffle_order_pinned(self):
        """NumPy's PCG64 stream is stable across hosts, so the reservoir
        order is pinned exactly (a change here changes every trained
        result)."""
        assert shuffle_order(10, 8, seed=3).tolist() == [6, 0, 1, 9, 7, 4,
                                                         3, 5, 8, 2]

    def test_invalid_buffer(self):
        with pytest.raises(ValueError):
            shuffle_order(5, 0, seed=0)

