"""The parameter update rule: Adam, in place on a ParamSet."""

from __future__ import annotations

import numpy as np

from ..exceptions import TrainingError
from .nn import ParamSet


class Adam:
    """Adam with bias correction; per-parameter moment state keyed by name."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = float(lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: ParamSet) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in params.trainable():
            if p.grad is None:
                raise TrainingError(f"no gradient for trainable parameter {name!r}")
            m = self._m.get(name)
            if m is None:
                m = self._m[name] = np.zeros_like(p.data)
                self._v[name] = np.zeros_like(p.data)
            v = self._v[name]
            m *= b1
            m += (1 - b1) * p.grad
            v *= b2
            v += (1 - b2) * (p.grad * p.grad)
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

