"""Gradient-descent optimizers.

The paper trains with Adam at an initial learning rate of ``1e-4 x #GPUs``
(the linear scaling rule for data parallelism, Section IV-B); plain SGD
is the other choice of the hyper-parameter search space.  Optimizers
read ``Parameter.grad`` accumulated by the model's backward pass and
update ``Parameter.value`` in place -- in-place updates keep the hot
loop allocation-free.
"""

from __future__ import annotations

import numpy as np

from .module import Module
from .schedules import ConstantLR, Schedule

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer:
    """Base optimizer bound to a model's trainable parameters.

    ``lr`` may be a float (wrapped in a constant schedule) or any
    :class:`~repro.nn.schedules.Schedule`; the effective rate is
    re-evaluated from the internal step counter at every :meth:`step`.
    """

    def __init__(self, model: Module, lr=1e-3, weight_decay: float = 0.0):
        self.model = model
        self.schedule: Schedule = (
            lr if isinstance(lr, Schedule) else ConstantLR(float(lr))
        )
        self.weight_decay = float(weight_decay)
        self.t = 0  # completed update count

    @property
    def lr(self) -> float:
        """Learning rate that the *next* step will use."""
        return self.schedule(self.t)

    def _trainable(self):
        return [p for p in self.model.parameters() if p.trainable]

    def step(self) -> float:
        """Apply one update; returns the learning rate used."""
        lr = self.schedule(self.t)
        for i, p in enumerate(self._trainable()):
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.value
            self._update(i, p, g, lr)
        self.t += 1
        return lr

    def _update(self, index: int, p, g: np.ndarray, lr: float) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        self.model.zero_grad()

    def state_dict(self) -> dict:
        return {"t": self.t}

    def load_state_dict(self, state: dict) -> None:
        self.t = int(state["t"])


class SGD(Optimizer):
    """Plain stochastic gradient descent."""

    def _update(self, index, p, g, lr):
        p.value -= lr * g


class Adam(Optimizer):
    """Adam (Kingma & Ba), the paper's optimizer, with bias correction."""

    def __init__(self, model, lr=1e-4, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(model, lr, weight_decay)
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.beta1, self.beta2, self.eps = float(beta1), float(beta2), float(eps)
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}

    def _update(self, index, p, g, lr):
        m = self._m.get(index)
        if m is None:
            m = np.zeros_like(p.value)
            v = np.zeros_like(p.value)
            self._m[index], self._v[index] = m, v
        else:
            v = self._v[index]
        b1, b2 = self.beta1, self.beta2
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        t = self.t + 1
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        p.value -= lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self):
        return {
            "t": self.t,
            "m": {k: v.copy() for k, v in self._m.items()},
            "v": {k: v.copy() for k, v in self._v.items()},
        }

    def load_state_dict(self, state):
        self.t = int(state["t"])
        self._m = {k: np.asarray(v).copy() for k, v in state["m"].items()}
        self._v = {k: np.asarray(v).copy() for k, v in state["v"].items()}
