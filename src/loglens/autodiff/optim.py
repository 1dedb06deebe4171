"""The parameter update rule: Adam, in place on a ParamSet."""

from __future__ import annotations

import numpy as np

from ..exceptions import TrainingError
from .nn import ParamSet

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction; per-parameter moment state keyed by name."""

    def __init__(self, lr: float):
        self.lr = float(lr)
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: ParamSet) -> None:
        self.t += 1
        for name, p in params.trainable():
            if p.grad is None:
                raise TrainingError(f"no gradient for trainable parameter {name!r}")
            m = self._m.get(name)
            if m is None:
                m = self._m[name] = np.zeros_like(p.data)
                self._v[name] = np.zeros_like(p.data)
            v = self._v[name]
            m *= BETA1
            m += (1 - BETA1) * p.grad
            v *= BETA2
            v += (1 - BETA2) * (p.grad * p.grad)
            m_hat = m / (1 - BETA1 ** self.t)
            v_hat = v / (1 - BETA2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)

