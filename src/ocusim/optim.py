"""Parameter containers and the Adam optimizer used by all training loops."""

from __future__ import annotations

import math

import numpy as np


def check_positive(name: str, value) -> None:
    """Raise a ValueError naming ``name`` unless ``value`` is a finite number > 0."""
    if not (0.0 < value < math.inf):
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


class TrainingDiverged(RuntimeError):
    """Raised when a training loss becomes non-finite or a gain collapses."""


class Param:
    """A trainable array with an accumulated gradient of the same shape."""

    __slots__ = ("value", "grad", "name")

    def __init__(self, value: np.ndarray, name: str = ""):
        self.value = np.asarray(value, dtype=float)
        self.grad = np.zeros_like(self.value)
        self.name = name

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


class Adam:
    """Adaptive moment estimation with bias correction.

    Updates are applied in the fixed order the parameters were registered,
    so a run is bitwise reproducible for a given seed and thread count.  A
    step works in place, in two scratch arrays per parameter, and performs
    the same floating-point operations in the same order as the expression
    m_hat = m / bias1; value -= lr * m_hat / (sqrt(v / bias2) + eps).
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8    # the usual defaults; only lr is set
    # the fixed factors as 0-d arrays, which a ufunc takes faster than floats
    _FACTORS = tuple(np.array(x) for x in (BETA1, 1 - BETA1, BETA2, 1 - BETA2, EPS))

    def __init__(self, params, lr: float = 1e-3):
        check_positive("learning_rate", lr)
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]
        self._scratch = [(np.empty_like(p.value), np.empty_like(p.value))
                         for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self.t += 1
        bias1 = 1.0 - self.BETA1 ** self.t
        bias2 = 1.0 - self.BETA2 ** self.t
        b1, c1, b2, c2, eps = self._FACTORS
        # every ufunc writes into its third, positional argument
        for p, m, v, (num, den) in zip(self.params, self._m, self._v, self._scratch):
            g = p.grad
            np.multiply(m, b1, m)
            np.multiply(c1, g, num)
            np.add(m, num, m)
            np.multiply(v, b2, v)
            np.multiply(c2, g, num)
            np.multiply(num, g, num)
            np.add(v, num, v)
            np.divide(m, bias1, num)
            np.multiply(num, self.lr, num)
            np.divide(v, bias2, den)
            np.sqrt(den, den)
            np.add(den, eps, den)
            np.divide(num, den, num)
            np.subtract(p.value, num, p.value)
