"""Degenerate-weight quadrature grid, weighted norms, and the Hardy check.

The grid carries a spectral radial collocation basis (polynomials in
s = (r/R0)^2, so center parity is built in) together with a family of
Gauss-Jacobi rules, one per sigma exponent, that integrate the collocation
interpolants against sigma^a exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import PhysParams
from .quadrature import (
    barycentric_weights,
    differentiation_matrix,
    jacobi_rule_01,
    resample_matrix,
    unit_sphere_area,
)


_RULE_EXTRA = 6   # nodes of each quadrature rule beyond the collocation nodes


@dataclass(frozen=True)
class RadialRule:
    """Quadrature rule for int_0^R0 sigma(r)^a f(r) r^(n-1) dr.

    ``weights @ f(s_nodes)`` evaluates the integral; ``resample`` maps
    nodal values on the grid's base nodes to the rule nodes.
    """

    exponent: float
    s: np.ndarray
    r: np.ndarray
    weights: np.ndarray
    resample: np.ndarray


class WeightedGrid:
    """Radial collocation nodes plus sigma^a-adapted quadrature rules."""

    def __init__(self, params: PhysParams, num_nodes: int):
        if num_nodes < 8:
            raise ValueError("need at least 8 radial nodes")
        self.params = params
        self.num_nodes = int(num_nodes)
        n = params.n
        self.s, _ = jacobi_rule_01(self.num_nodes, params.iota, n / 2.0 - 1.0)
        self.r = params.R0 * np.sqrt(self.s)
        self._two_s = 2.0 * self.s
        self._bary = barycentric_weights(self.s)
        self.d_s = differentiation_matrix(self.s, self._bary)
        # f @ d_s_t applies d_s along the last axis of f: to one nodal field
        # (m,) as d_s @ f does, bit for bit, and to each output of a stack
        # (T, K, m) as it does to that output's (K, m) rows
        self.d_s_t = self.d_s.T
        self._rules: dict[float, RadialRule] = {}

    def radial_strain(self, w: np.ndarray, out: np.ndarray | None = None):
        """(p, p_s, w_r) of a radial field w = r p(s): p = w/r, its
        s-derivative d_s p, and w_r = p + 2 s p_s.  ``w`` is one nodal
        field (m,), or a stack of fields (..., K, m), one field per row.
        With ``out`` of shape (2,) + w.shape, w_r and p are written into
        out[0] and out[1], and those are returned."""
        w_r, p = (None, None) if out is None else (out[0], out[1])
        p = np.divide(w, self.r, out=p)
        p_s = p @ self.d_s_t
        w_r = np.multiply(self._two_s, p_s, out=w_r)
        return p, p_s, np.add(p, w_r, out=w_r)

    def rule(self, exponent: float) -> RadialRule:
        """Quadrature rule adapted to the sigma^exponent weight (cached)."""
        if exponent < 0.0:
            raise ValueError(f"sigma exponent must be nonnegative, got {exponent}")
        key = float(exponent)
        if key not in self._rules:
            self._rules[key] = self._build_rule(key)
        return self._rules[key]

    def _build_rule(self, exponent: float) -> RadialRule:
        """Gauss-Jacobi rule for the sigma^exponent weight, exponent > -1,
        built afresh; :meth:`rule` caches it for nonnegative exponents."""
        p = self.params
        s, w = jacobi_rule_01(self.num_nodes + _RULE_EXTRA, exponent, p.n / 2.0 - 1.0)
        scale = 0.5 * p.R0 ** p.n * p.A_bar ** exponent
        return RadialRule(
            exponent=exponent,
            s=s,
            r=p.R0 * np.sqrt(s),
            weights=scale * w,
            resample=resample_matrix(self.s, s, self._bary),
        )

    def to_rule(self, rule: RadialRule, base_values: np.ndarray) -> np.ndarray:
        """Interpolate base-node values of an s-polynomial to rule nodes,
        along the last axis of ``base_values``."""
        return base_values @ rule.resample.T

    def integrate(self, exponent: float, rule_values: np.ndarray):
        """int_0^R0 sigma^a f r^(n-1) dr for f sampled at rule(a) nodes,
        along the last axis of ``rule_values``."""
        return rule_values @ self.rule(exponent).weights

    def integrate_ball(self, exponent: float, rule_values: np.ndarray):
        """Same integral extended over the ball (times the sphere area)."""
        return unit_sphere_area(self.params.n) * self.integrate(exponent, rule_values)


def weighted_norm(grid: WeightedGrid, field_samples: np.ndarray, exponent: float) -> float:
    """int_Omega sigma^a |f|^2 dy for a radial scalar sampled at grid nodes.

    The square is formed after interpolation to the rule nodes, so the
    result is exact whenever the samples come from a polynomial in s of the
    collocation degree.
    """
    rule = grid.rule(exponent)
    vals = grid.to_rule(rule, np.asarray(field_samples, dtype=float))
    return grid.integrate_ball(exponent, vals ** 2)


def hardy_check(grid: WeightedGrid, f_samples: np.ndarray, df_samples: np.ndarray,
                k: float) -> float:
    """Ratio int sigma^k f^2 dy / int sigma^(k+2) (f^2 + |df|^2) dy.

    The Hardy inequality bounds this ratio by a constant depending only on
    k and the weight; the invariant suite records the max over a randomized
    family.  A zero field returns 0 by convention.
    """
    if k <= -1.0:
        raise ValueError(f"Hardy exponent must exceed -1, got {k}")
    f = np.asarray(f_samples, dtype=float)
    df = np.asarray(df_samples, dtype=float)
    if np.max(np.abs(f)) == 0.0:
        return 0.0
    # negative exponents above -1 occur only here: their rule is not cached
    top_rule = grid.rule(k) if k >= 0.0 else grid._build_rule(k)
    top = unit_sphere_area(grid.params.n) * float(
        top_rule.weights @ grid.to_rule(top_rule, f) ** 2)
    bottom_rule = grid.rule(k + 2.0)
    fb = grid.to_rule(bottom_rule, f)
    dfb = grid.to_rule(bottom_rule, df)
    bottom = grid.integrate_ball(k + 2.0, fb ** 2 + dfb ** 2)
    return top / bottom
