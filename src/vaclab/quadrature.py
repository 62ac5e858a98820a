"""Gauss-Jacobi quadrature and barycentric interpolation on the unit ball.

All radial integrals in this package reduce, after the substitution
s = (r / R0)^2, to weighted integrals of the form

    int_0^1 (1 - s)^a s^(n/2 - 1) f(s) ds,

where the (1 - s)^a factor absorbs the degenerate density weight
sigma(r) = A - B r^2 vanishing at the vacuum boundary.  Gauss-Jacobi rules
with exactly that weight keep full accuracy despite the fractional endpoint
behaviour, which plain Gauss-Legendre loses.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg  # noqa: F401  roots_jacobi imports it on its first call
from scipy.special import gammaln, roots_jacobi


def unit_sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n (2*pi for n=2, 4*pi for n=3)."""
    return float(2.0 * np.pi ** (n / 2.0) / np.exp(gammaln(n / 2.0)))


def jacobi_rule_01(num_nodes: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for int_0^1 (1-s)^a s^b f(s) ds.

    The returned weights include the full weight function, so the integral
    is approximated by ``w @ f(s)``.  Exact for polynomials f of degree
    <= 2*num_nodes - 1.
    """
    if a <= -1 or b <= -1:
        raise ValueError(f"Jacobi exponents must exceed -1, got a={a}, b={b}")
    x, w = roots_jacobi(num_nodes, a, b)
    s = 0.5 * (x + 1.0)
    return s, w * 2.0 ** (-(a + b + 1.0))


def sigma_moment(n: int, a_bar: float, b_bar: float, a: float, k: int = 0) -> float:
    """Closed form of int_Omega sigma^a |y|^(2k) dy via the Beta function.

    Omega is the ball of radius R0 = sqrt(a_bar/b_bar) and
    sigma = a_bar - b_bar |y|^2.  Used as the independent oracle for
    quadrature exactness checks.
    """
    r0_sq = a_bar / b_bar
    log_beta = gammaln(n / 2.0 + k) + gammaln(a + 1.0) - gammaln(n / 2.0 + k + a + 1.0)
    return float(
        unit_sphere_area(n)
        * 0.5
        * r0_sq ** (n / 2.0 + k)
        * a_bar ** a
        * np.exp(log_beta)
    )


def barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    """Barycentric interpolation weights, rescaled for conditioning."""
    nodes = np.asarray(nodes, dtype=float)
    m = nodes.size
    scale = 4.0 / (nodes.max() - nodes.min())
    w = np.ones(m)
    for j in range(m):
        diff = scale * (nodes[j] - nodes)
        diff[j] = 1.0
        w[j] = 1.0 / np.prod(diff)
    return w


def differentiation_matrix(nodes: np.ndarray, bary_w: np.ndarray | None = None) -> np.ndarray:
    """Spectral differentiation matrix for the polynomial interpolant."""
    nodes = np.asarray(nodes, dtype=float)
    if bary_w is None:
        bary_w = barycentric_weights(nodes)
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    d = (bary_w[None, :] / bary_w[:, None]) / diff
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return d


def resample_matrix(nodes: np.ndarray, targets: np.ndarray,
                    bary_w: np.ndarray | None = None) -> np.ndarray:
    """Matrix mapping nodal values to interpolant values at ``targets``."""
    nodes = np.asarray(nodes, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if bary_w is None:
        bary_w = barycentric_weights(nodes)
    diff = targets[:, None] - nodes[None, :]
    exact = diff == 0.0
    diff[exact] = 1.0
    m = bary_w[None, :] / diff
    m /= m.sum(axis=1, keepdims=True)
    hit_rows = exact.any(axis=1)
    if np.any(hit_rows):
        m[hit_rows] = 0.0
        m[exact] = 1.0
    return m
