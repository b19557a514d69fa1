"""Adam optimizer over named parameter tensors."""

from __future__ import annotations

import numpy as np

from .autodiff import Gradients, Tensor


class Adam:
    """Adam with bias correction, β=(0.9, 0.999) and ε=1e-8.

    Parameters are updated strictly between training steps via
    ``Tensor.replace_data``; moment state is keyed by parameter name.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = dict(params)
        self.lr = float(lr)
        self._step = 0
        self._m = {name: np.zeros(p.shape) for name, p in self.params.items()}
        self._v = {name: np.zeros(p.shape) for name, p in self.params.items()}

    def step(self, grads: Gradients) -> None:
        self._step += 1
        t = self._step
        bc1 = 1.0 - self.BETA1 ** t
        bc2 = 1.0 - self.BETA2 ** t
        for name, param in self.params.items():
            g = grads.wrt(param)
            m = self._m[name]
            v = self._v[name]
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * g * g
            update = (self.lr / bc1) * m / (np.sqrt(v / bc2) + self.EPS)
            param.replace_data(param.data - update)
