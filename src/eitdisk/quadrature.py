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


@lru_cache(maxsize=None)
def gauss_legendre_01(n: int):
    """Gauss-Legendre nodes and weights mapped to [0, 1]; exact to degree 2n-1."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


@lru_cache(maxsize=None)
def trapezoid_periodic(n: int):
    """n equispaced nodes on [0, 2pi) with uniform weights 2pi/n.

    Exact for trigonometric polynomials of degree < n.
    """
    nodes = 2.0 * math.pi * np.arange(n) / n
    weights = np.full(n, 2.0 * math.pi / n)
    return nodes, weights


@lru_cache(maxsize=None)
def trapezoid_closed(n: int, a: float = 0.0, b: float = math.pi):
    """Composite trapezoid on [a, b] with n subintervals (n+1 nodes)."""
    nodes = np.linspace(a, b, n + 1)
    h = (b - a) / n
    weights = np.full(n + 1, h)
    weights[0] = weights[-1] = h / 2.0
    return nodes, weights


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
