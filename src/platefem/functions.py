"""Analytic scalar functions with derivatives, and the manufactured suite.

Callbacks are vectorized over numpy arrays: ``value(x, y) -> (...)``,
``grad(x, y) -> (..., 2)``, ``hess(x, y) -> (..., 2, 2)``.  For the
manufactured solutions ``biharmonic`` is the hand-coded load
Delta^2 u (verified against finite differences in the test suite).
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class ScalarFunction:
    name: str
    value: Callable
    grad: Callable
    hess: Callable
    biharmonic: Callable | None = None


def _u1():
    # u(x,y) = sin^2(pi x) sin^2(pi y), clamped on the unit square
    def s(t):
        return np.sin(np.pi * t) ** 2

    def s1(t):
        return np.pi * np.sin(2 * np.pi * t)

    def s2(t):
        return 2 * np.pi ** 2 * np.cos(2 * np.pi * t)

    def value(x, y):
        return s(x) * s(y)

    def grad(x, y):
        return np.stack([s1(x) * s(y), s(x) * s1(y)], axis=-1)

    def hess(x, y):
        H = np.empty(np.broadcast(x, y).shape + (2, 2))
        H[..., 0, 0] = s2(x) * s(y)
        H[..., 0, 1] = H[..., 1, 0] = s1(x) * s1(y)
        H[..., 1, 1] = s(x) * s2(y)
        return H

    def biharmonic(x, y):
        cx, cy = np.cos(2 * np.pi * x), np.cos(2 * np.pi * y)
        return 4 * np.pi ** 4 * (4 * cx * cy - cx - cy)

    return ScalarFunction("u1", value, grad, hess, biharmonic)


def _u2():
    # u(x,y) = x^2 (1-x)^2 y^2 (1-y)^2, polynomial of degree 8
    def p(t):
        return t ** 2 * (1 - t) ** 2

    def p1(t):
        return 2 * t * (1 - t) * (1 - 2 * t)

    def p2(t):
        return 2 * (1 - 6 * t + 6 * t ** 2)

    def value(x, y):
        return p(x) * p(y)

    def grad(x, y):
        return np.stack([p1(x) * p(y), p(x) * p1(y)], axis=-1)

    def hess(x, y):
        H = np.empty(np.broadcast(x, y).shape + (2, 2))
        H[..., 0, 0] = p2(x) * p(y)
        H[..., 0, 1] = H[..., 1, 0] = p1(x) * p1(y)
        H[..., 1, 1] = p(x) * p2(y)
        return H

    def biharmonic(x, y):
        return 24.0 * p(y) + 2 * p2(x) * p2(y) + 24.0 * p(x)

    return ScalarFunction("u2", value, grad, hess, biharmonic)


def _zero():
    def value(x, y):
        return np.zeros(np.broadcast(x, y).shape)

    def grad(x, y):
        return np.zeros(np.broadcast(x, y).shape + (2,))

    def hess(x, y):
        return np.zeros(np.broadcast(x, y).shape + (2, 2))

    return ScalarFunction("zero", value, grad, hess, value)


MANUFACTURED = {f.name: f for f in (_u1(), _u2(), _zero())}


def get_manufactured(name: str) -> ScalarFunction:
    try:
        return MANUFACTURED[name]
    except KeyError:
        raise KeyError(
            f"unknown manufactured solution {name!r}; available: {sorted(MANUFACTURED)}"
        ) from None
