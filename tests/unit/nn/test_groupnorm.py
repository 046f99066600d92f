"""Group/instance normalisation tests."""

import numpy as np
import pytest

from repro.nn import (
    GroupNorm,
    InstanceNorm,
    UNet3D,
    check_module_gradients,
)

rng = np.random.default_rng(14)
X = rng.normal(loc=3.0, scale=2.0, size=(2, 4, 4, 4, 4))


class TestGroupNorm:
    def test_normalises_per_group(self):
        gn = GroupNorm(4, num_groups=2)
        y = gn(X)
        yg = y.reshape(2, 2, 2, 4, 4, 4)
        means = yg.mean(axis=(2, 3, 4, 5))
        stds = yg.std(axis=(2, 3, 4, 5))
        np.testing.assert_allclose(means, 0.0, atol=1e-10)
        np.testing.assert_allclose(stds, 1.0, atol=1e-3)

    def test_gradients(self):
        errs = check_module_gradients(GroupNorm(4, 2), X.copy())
        assert max(errs.values()) < 1e-5, errs

    def test_instance_norm_gradients(self):
        errs = check_module_gradients(InstanceNorm(4), X.copy())
        assert max(errs.values()) < 1e-5, errs

    def test_train_eval_identical(self):
        gn = GroupNorm(4, 2)
        y_train = gn(X)
        gn.eval()
        y_eval = gn(X)
        np.testing.assert_allclose(y_train, y_eval)

    def test_batch_independence(self):
        """Each sample normalised independently -- concatenating batches
        does not change any sample's output (the property BN lacks)."""
        gn = GroupNorm(4, 2)
        single = gn(X[:1])
        both = gn(X)
        np.testing.assert_allclose(both[:1], single, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            GroupNorm(4, 3)  # 3 does not divide 4
        with pytest.raises(ValueError):
            GroupNorm(0, 1)
        gn = GroupNorm(4, 2)
        with pytest.raises(ValueError):
            gn(np.zeros((1, 3, 2, 2, 2)))

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            GroupNorm(4, 2).backward(X)


class TestInstanceNorm:
    def test_is_per_channel_groupnorm(self):
        inn = InstanceNorm(4)
        assert inn.num_groups == 4
        y = inn(X)
        means = y.mean(axis=(2, 3, 4))
        np.testing.assert_allclose(means, 0.0, atol=1e-10)


class TestUNetNormOption:
    @pytest.mark.parametrize("norm", ["batch", "instance", "group", None])
    def test_all_norms_build_and_train(self, norm):
        net = UNet3D(1, 1, 2, 2, rng=np.random.default_rng(0), norm=norm,
                     input_grad=True)
        x = rng.normal(size=(2, 1, 4, 4, 4))
        y = net(x)
        dx = net.backward(np.ones_like(y))
        assert dx.shape == x.shape

    def test_unknown_norm_rejected(self):
        with pytest.raises(ValueError, match="unknown norm"):
            UNet3D(1, 1, 2, 2, norm="layer")

    def test_instance_norm_data_parallel_exact_without_sync(self):
        """InstanceNorm is batch-independent, so sharding is exact with
        NO synchronisation -- the practical reason MIS pipelines prefer
        it at batch size 2."""
        from repro.nn import Adam, SoftDiceLoss
        from repro.raysim import DataParallelTrainer

        def factory():
            return UNet3D(1, 1, 2, 2, rng=np.random.default_rng(0),
                          norm="instance")

        r = np.random.default_rng(1)
        x = r.normal(size=(4, 1, 4, 4, 4))
        y = (r.uniform(size=(4, 1, 4, 4, 4)) > 0.8).astype(float)
        t1 = DataParallelTrainer(factory, SoftDiceLoss(),
                                 lambda m: Adam(m, lr=1e-3), 1)
        t2 = DataParallelTrainer(factory, SoftDiceLoss(),
                                 lambda m: Adam(m, lr=1e-3), 2)
        try:
            for _ in range(3):
                o1, o2 = t1.train_step(x, y), t2.train_step(x, y)
                assert o1["loss"] == pytest.approx(o2["loss"], abs=1e-12)
            np.testing.assert_allclose(t1.model.get_flat_params(),
                                       t2.model.get_flat_params(), atol=1e-10)
        finally:
            t1.shutdown()
            t2.shutdown()

    def test_default_still_batchnorm(self):
        net = UNet3D(1, 1, 2, 2, rng=np.random.default_rng(0))
        names = [n for n, _ in net.named_parameters()]
        assert any("running_mean" in n for n in names)
