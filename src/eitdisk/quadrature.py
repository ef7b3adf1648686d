"""Product quadrature rules for disk integrals in polar coordinates."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import Record, integer

__all__ = ["QuadratureSpec", "gauss_legendre_01", "trapezoid_periodic", "trapezoid_closed",
           "polar_moments"]


class QuadratureSpec(Record):
    """Radial Gauss-Legendre order and angular trapezoid order, positive integers."""

    __slots__ = _fields = ("n_r", "n_phi")

    def __init__(self, n_r=64, n_phi=512):
        for order in (n_r, n_phi):
            integer(order, 1, "quadrature orders")
        self._store(n_r, n_phi)


def _legval(x, c):
    """numpy's ``legval(x, c)`` for a list of floats ``c``, Clenshaw step for step."""
    c0, c1 = (c[-2], c[-1]) if len(c) > 1 else (c[0], 0)
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = c[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def _read_only(*arrays):
    for a in arrays:  # a cached rule must not change under its later callers
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=None, typed=True)  # typed: an order equal to a cached one, 8.0 to 8, is still checked
def gauss_legendre_01(n: int):
    """Gauss-Legendre nodes and weights mapped to [0, 1]; exact to degree 2n-1.

    numpy's ``leggauss(n)`` (Golub-Welsch) step for step from numpy core, so the
    same doubles: ``eigvalsh`` of the Jacobi matrix's lower triangle, all it
    reads (``legcompanion``'s last-column update subtracts zeros for P_n), one
    Newton step, weights from P_{n-1} and P_n' = sum of (2k + 1) P_k over
    k = n-1, n-3, ... (``legder``).  Both arrays are read-only.
    """
    n = integer(n, 1, "the Gauss-Legendre order")
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    x = np.linalg.eigvalsh(np.diag(np.arange(1, n) * scl[:-1] * scl[1:], -1))
    c = [0.0] * n + [1.0]
    df = _legval(x, [0.0 if (n - k) % 2 == 0 else 2 * k + 1.0 for k in range(n)])
    x -= _legval(x, c) / df
    fm = _legval(x, c[1:])
    w = 1 / (fm / np.abs(fm).max() * (df / np.abs(df).max()))
    w = (w + w[::-1]) / 2
    return _read_only(((x - x[::-1]) / 2 + 1.0) / 2.0, w * (2.0 / w.sum()) / 2.0)


@lru_cache(maxsize=None, typed=True)
def trapezoid_periodic(n: int):
    """n equispaced nodes on [0, 2pi) with uniform weights 2pi/n, n a positive integer.

    Exact for trigonometric polynomials of degree < n.
    """
    n = integer(n, 1, "the trapezoid order")
    nodes = 2.0 * math.pi * np.arange(n) / n
    return _read_only(nodes, np.full(n, 2.0 * math.pi / n))


@lru_cache(maxsize=None, typed=True)
def trapezoid_closed(n: int, a: float = 0.0, b: float = math.pi):
    """Composite trapezoid on [a, b] with n subintervals (n+1 nodes), n a positive integer."""
    n = integer(n, 1, "the trapezoid order")
    nodes = np.linspace(a, b, n + 1)
    h = (b - a) / n
    weights = np.full(n + 1, h)
    weights[0] = weights[-1] = h / 2.0
    return _read_only(nodes, weights)


def polar_moments(values, r, wr, phi, wphi, pmax: int, dmax: int):
    """(cos, sin) moments sum_ij wr_i wphi_j r_i^p values_ij cos|sin(d phi_j), p <= pmax, d <= dmax.

    One (R x Phi) @ (Phi x 2D) product forms every angular transform; the
    radial sums are a second, small product.
    """
    angle = np.outer(phi, np.arange(dmax + 1))
    trig = np.hstack([np.cos(angle), np.sin(angle)]) * wphi[:, None]
    radial = wr[:, None] * r[:, None] ** np.arange(pmax + 1)
    moments = radial.T @ (values @ trig)
    return moments[:, : dmax + 1], moments[:, dmax + 1 :]
