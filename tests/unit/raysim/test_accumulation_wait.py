"""Gradient accumulation tests."""

import numpy as np
import pytest

from repro.nn import SGD, Adam, SoftDiceLoss, UNet3D
from repro.raysim import DataParallelTrainer


def factory(seed=0):
    return lambda: UNet3D(1, 1, 2, 2, use_batchnorm=False,
                          rng=np.random.default_rng(seed))


def batch(n, seed=2):
    r = np.random.default_rng(seed)
    x = r.normal(size=(n, 1, 4, 4, 4))
    y = (r.uniform(size=(n, 1, 4, 4, 4)) > 0.8).astype(float)
    return x, y


class TestGradientAccumulation:
    def test_equivalent_to_big_batch(self):
        """k micro-batches == one big batch, bit-for-bit (the Section
        V-C memory workaround must not change the optimisation)."""
        x, y = batch(8)
        big = DataParallelTrainer(factory(), SoftDiceLoss(),
                                  lambda m: SGD(m, lr=1e-2), 1)
        acc = DataParallelTrainer(factory(), SoftDiceLoss(),
                                  lambda m: SGD(m, lr=1e-2), 1)
        try:
            for _ in range(3):
                o1 = big.train_step(x, y)
                o2 = acc.train_step_accumulated(x, y, accumulation_steps=4)
                assert o1["loss"] == pytest.approx(o2["loss"], abs=1e-12)
            np.testing.assert_allclose(
                big.model.get_flat_params(), acc.model.get_flat_params(),
                atol=1e-12,
            )
        finally:
            big.shutdown()
            acc.shutdown()

    def test_combines_with_replicas(self):
        x, y = batch(8)
        big = DataParallelTrainer(factory(), SoftDiceLoss(),
                                  lambda m: Adam(m, lr=1e-3), 1)
        both = DataParallelTrainer(factory(), SoftDiceLoss(),
                                   lambda m: Adam(m, lr=1e-3), 2)
        try:
            o1 = big.train_step(x, y)
            o2 = both.train_step_accumulated(x, y, accumulation_steps=2)
            assert o1["loss"] == pytest.approx(o2["loss"], abs=1e-12)
            np.testing.assert_allclose(
                big.model.get_flat_params(), both.model.get_flat_params(),
                atol=1e-10,
            )
        finally:
            big.shutdown()
            both.shutdown()

    def test_validation(self):
        x, y = batch(4)
        t = DataParallelTrainer(factory(), SoftDiceLoss(),
                                lambda m: SGD(m, lr=1e-2), 2)
        try:
            with pytest.raises(ValueError):
                t.train_step_accumulated(x, y, accumulation_steps=0)
            with pytest.raises(ValueError):
                t.train_step_accumulated(x, y, accumulation_steps=3)
        finally:
            t.shutdown()
