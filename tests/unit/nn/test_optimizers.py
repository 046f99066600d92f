"""Optimizer tests on a toy quadratic model and bookkeeping checks."""

import numpy as np
import pytest

from repro.nn import SGD, Adam, ConstantLR, Module, Schedule


class Quadratic(Module):
    """f(w) = 0.5 * ||w - target||^2 as a trivial 'model'."""

    def __init__(self, dim=5, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.target = rng.normal(size=dim)
        self.add_parameter("w", np.zeros(dim))

    def loss_and_grad(self):
        diff = self.w.value - self.target
        self.w.grad = diff.copy()
        return 0.5 * float(diff @ diff)


class _TenfoldEveryTwo(Schedule):
    """1.0, divided by ten every two updates."""

    def __call__(self, step):
        return 0.1 ** (step // 2)


def _train(opt_factory, steps=200):
    model = Quadratic()
    opt = opt_factory(model)
    for _ in range(steps):
        model.zero_grad()
        loss = model.loss_and_grad()
        opt.step()
    return model, loss


class TestConvergence:
    def test_sgd_converges(self):
        model, loss = _train(lambda m: SGD(m, lr=0.1), steps=300)
        assert loss < 1e-8

    def test_adam_converges(self):
        model, loss = _train(lambda m: Adam(m, lr=0.1), steps=400)
        assert loss < 1e-6

    def test_adam_beats_sgd_early_on_badly_scaled_problem(self):
        class Scaled(Quadratic):
            def loss_and_grad(self):
                scale = np.array([100.0, 1.0, 1.0, 1.0, 0.01])
                diff = scale * (self.w.value - self.target)
                self.w.grad = scale * diff
                return 0.5 * float(diff @ diff)

        def run(opt_cls, lr):
            m = Scaled()
            opt = opt_cls(m, lr=lr)
            for _ in range(50):
                m.zero_grad()
                loss = m.loss_and_grad()
                opt.step()
            return loss

        assert run(Adam, 0.1) < run(SGD, 1e-4)


class TestMechanics:
    def test_weight_decay_shrinks_solution(self):
        m1, _ = _train(lambda m: SGD(m, lr=0.1), steps=500)
        m2 = Quadratic()
        opt = SGD(m2, lr=0.1, weight_decay=1.0)
        for _ in range(500):
            m2.zero_grad()
            m2.loss_and_grad()
            opt.step()
        assert np.linalg.norm(m2.w.value) < np.linalg.norm(m1.w.value)

    def test_frozen_parameters_not_updated(self):
        model = Quadratic()
        model.w.trainable = False
        opt = SGD(model, lr=0.1)
        model.loss_and_grad()
        opt.step()
        np.testing.assert_array_equal(model.w.value, np.zeros(5))

    def test_schedule_drives_lr(self):
        model = Quadratic()
        opt = SGD(model, lr=_TenfoldEveryTwo())
        assert opt.lr == 1.0
        model.loss_and_grad()
        opt.step()
        opt.step()
        assert opt.lr == pytest.approx(0.1)

    def test_step_returns_lr_used(self):
        model = Quadratic()
        opt = SGD(model, lr=ConstantLR(0.25))
        model.loss_and_grad()
        assert opt.step() == 0.25

    def test_adam_state_roundtrip(self):
        model = Quadratic()
        opt = Adam(model, lr=0.1)
        for _ in range(3):
            model.zero_grad()
            model.loss_and_grad()
            opt.step()
        state = opt.state_dict()
        w_after_3 = model.w.value.copy()

        model2 = Quadratic()
        model2.w.value = w_after_3.copy()
        opt2 = Adam(model2, lr=0.1)
        opt2.load_state_dict(state)

        for o, m in ((opt, model), (opt2, model2)):
            m.zero_grad()
            m.loss_and_grad()
            o.step()
        np.testing.assert_allclose(model.w.value, model2.w.value)

    def test_bad_betas_rejected(self):
        with pytest.raises(ValueError):
            Adam(Quadratic(), beta1=1.0)


class TestInPlaceUpdates:
    """Updates write into the parameter's own buffer: the array object
    and its dtype survive every step, so float32 models stay float32."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("opt_cls", [SGD, Adam], ids=["sgd", "adam"])
    def test_step_keeps_buffer_and_dtype(self, opt_cls, dtype):
        model = Quadratic()
        model.w.value = model.w.value.astype(dtype)
        buf = model.w.value
        opt = opt_cls(model, lr=0.1)
        for _ in range(3):
            model.zero_grad()
            model.w.grad = (model.w.value - model.target).astype(dtype)
            opt.step()
        assert model.w.value is buf
        assert buf.dtype == dtype
        assert np.abs(buf).sum() > 0

    @pytest.mark.parametrize("lr", [1e-4, 1e-2, 0.5])
    def test_adam_first_step_moves_each_weight_by_lr(self, lr):
        """With bias correction, step one is lr * sign(grad) (up to eps)."""
        model = Quadratic()
        opt = Adam(model, lr=lr)
        model.loss_and_grad()
        opt.step()
        np.testing.assert_allclose(model.w.value,
                                   lr * np.sign(model.target), rtol=1e-6)
