"""Quadrature rules on triangles and edges.

Triangle rules are conical-product Gauss rules (Gauss-Legendre in one
direction, Gauss-Jacobi with weight (1-t) in the other), exact for all
polynomials up to the requested total degree.  Edge rules are plain
Gauss-Legendre on [0,1].  Rules are returned in normalized form: the
weights sum to one, so integrals are ``area * sum(w * f(points))``.
"""

from functools import lru_cache

import numpy as np


def gauss_legendre_01(n: int):
    """n-point Gauss-Legendre nodes/weights on [0,1]; weights sum to 1."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def _gauss_jacobi_10(n: int):
    """n-point Gauss rule for integral_0^1 (1-t) g(t) dt via Golub-Welsch.

    Returns nodes on [0,1] and weights summing to 1/2 = integral of (1-t).
    """
    # monic Jacobi(alpha=1, beta=0) recurrence coefficients on [-1,1]
    k = np.arange(n, dtype=float)
    a = -1.0 / ((2 * k + 1) * (2 * k + 3))
    kk = np.arange(1, n, dtype=float)
    b = kk * (kk + 1) / (2 * kk + 1) ** 2
    J = np.diag(a) + np.diag(np.sqrt(b), 1) + np.diag(np.sqrt(b), -1)
    nodes, vecs = np.linalg.eigh(J)
    mu0 = 2.0  # integral of (1-x) over [-1,1]
    weights = mu0 * vecs[0, :] ** 2
    return (nodes + 1.0) / 2.0, weights / 4.0


@lru_cache(maxsize=None)
def triangle_rule(degree: int):
    """Quadrature exact for total degree ``degree`` on a triangle.

    Returns ``(bary, w)`` with barycentric points ``bary`` of shape
    (nq, 3) and weights ``w`` summing to one.
    """
    if degree < 1:
        degree = 1
    n = (degree + 2) // 2
    xi, u = gauss_legendre_01(n)
    eta, v = _gauss_jacobi_10(n)
    x = np.outer(1.0 - eta, xi).ravel()
    y = np.repeat(eta, n)
    w = np.outer(v, u).ravel()
    bary = np.column_stack([1.0 - x - y, x, y])
    return bary, w / w.sum()


@lru_cache(maxsize=None)
def edge_rule(npoints: int):
    """Gauss-Legendre rule on [0,1], exact for degree 2*npoints - 1."""
    return gauss_legendre_01(npoints)


def triangle_points(bary, tri_vertices):
    """Map barycentric rule points onto physical triangles.

    ``tri_vertices`` has shape (..., 3, 2); the result has shape
    (..., nq, 2).
    """
    return np.matmul(bary, tri_vertices)
