"""Physical constants and the closed-form self-similar background profile.

The background density is the compactly supported, mass-M self-similar
solution of the time-weighted porous-media equation

    d_t rho = (1+t)^lambda * Laplace(rho^gamma),

with support expanding like nu(t) = (1+t)^kappa.  Everything downstream
(degenerate weights, correction ODE, perturbation solvers) is parametrised
by the constants derived here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import jacobi_rule_01, unit_sphere_area

# Gauss-Jacobi nodes of the mass integral.  The rule is matched to the
# fractional endpoint power, so the integrand is the pure quadrature weight
# and the mass is exact to rounding.
MASS_RULE_NODES = 96
# A_bar bisection: relative bracket width and iteration cap
_BISECTION_REL_TOL = 1e-12
_BISECTION_MAX_ITER = 200


class ParameterError(ValueError):
    """Raised for parameter combinations outside the supported regime."""


@dataclass(frozen=True)
class PhysParams:
    """Problem constants and everything derived from them.

    Attributes
    ----------
    n : spatial dimension, 2 or 3.
    lam : damping decay exponent in [0, 1); the damping coefficient is
        (1+t)^(-lam).
    gamma : adiabatic exponent > 1 in the pressure law p = rho^gamma.
    mass : total mass of the background profile.
    kappa : support-expansion exponent (1+lam) / (n*gamma - n + 2).
    iota : 1 / (gamma - 1).
    A_bar, B_bar : profile constants; the initial squared-sound-speed
        weight is sigma(y) = A_bar - B_bar |y|^2.
    R0 : reference (initial support) radius sqrt(A_bar / B_bar).
    """

    n: int
    lam: float
    gamma: float
    mass: float
    kappa: float
    iota: float
    A_bar: float
    B_bar: float
    R0: float

    @property
    def damping_power(self) -> float:
        """Exponent n*gamma - n + 2 entering the perturbation equation."""
        return self.n * self.gamma - self.n + 2.0

    def nu(self, t):
        """Background dilation nu(t) = (1+t)^kappa, for a float or an array t."""
        return (1.0 + t) ** self.kappa

    def nu_t(self, t):
        return self.kappa * (1.0 + t) ** (self.kappa - 1.0)

    def sigma(self, r):
        """Degenerate weight sigma(r) = A_bar - B_bar r^2 on [0, R0]."""
        return self.A_bar - self.B_bar * np.asarray(r, dtype=float) ** 2

    def rho0(self, r):
        """Initial background density sigma(r)^iota."""
        return np.maximum(self.sigma(r), 0.0) ** self.iota


def _mass_from_weights(n: int, iota: float, a_bar: float, b_bar: float,
                       weight_sum: float) -> float:
    """Total mass of (a_bar - b_bar r^2)^iota over its support ball, for the
    Gauss-Jacobi weight sum, which does not depend on a_bar or b_bar."""
    r0_sq = a_bar / b_bar
    return float(
        unit_sphere_area(n) * 0.5 * r0_sq ** (n / 2.0) * a_bar ** iota * weight_sum
    )


def derive_constants(n: int, lam: float, gamma: float, mass: float) -> PhysParams:
    """Derive all profile constants from (n, lambda, gamma, M).

    A_bar is fixed by the total-mass constraint, found by bisection on the
    mass integral (strictly increasing in A_bar).
    """
    if n not in (2, 3):
        raise ParameterError(f"spatial dimension must be 2 or 3, got {n}")
    if not 0.0 <= lam < 1.0:
        raise ParameterError(f"damping exponent lambda must lie in [0, 1), got {lam}")
    if not gamma > 1.0:
        raise ParameterError(f"adiabatic exponent gamma must exceed 1, got {gamma}")
    if not mass > 0.0:
        raise ParameterError(f"total mass must be positive, got {mass}")

    kappa = (1.0 + lam) / (n * gamma - n + 2.0)
    iota = 1.0 / (gamma - 1.0)
    b_bar = (gamma - 1.0) / (2.0 * gamma) * kappa

    weight_sum = jacobi_rule_01(MASS_RULE_NODES, iota, n / 2.0 - 1.0)[1].sum()

    def mass_of(a_bar: float) -> float:
        return _mass_from_weights(n, iota, a_bar, b_bar, weight_sum)

    # Bracket the root of mass_of(A) = mass; the integral scales like
    # A^(iota + n/2), so geometric expansion finds a bracket quickly.
    lo, hi = 1.0, 1.0
    if mass_of(1.0) < mass:
        while mass_of(hi) < mass:
            hi *= 4.0
            if hi > 1e40:
                raise ParameterError("A_bar bracketing failed (mass too large)")
    else:
        while mass_of(lo) > mass:
            lo /= 4.0
            if lo < 1e-40:
                raise ParameterError("A_bar bracketing failed (mass too small)")

    for _ in range(_BISECTION_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mass_of(mid) < mass:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _BISECTION_REL_TOL * mid:
            break
    else:
        raise ParameterError(
            f"A_bar bisection did not reach relative tolerance {_BISECTION_REL_TOL}"
        )
    a_bar = 0.5 * (lo + hi)

    return PhysParams(
        n=n, lam=float(lam), gamma=float(gamma), mass=float(mass),
        kappa=kappa, iota=iota, A_bar=a_bar, B_bar=b_bar,
        R0=math.sqrt(a_bar / b_bar),
    )


class SelfSimilarProfile:
    """Callable evaluations of the self-similar background solution."""

    def __init__(self, params: PhysParams):
        self.params = params
        self._mass_rule: tuple[np.ndarray, np.ndarray] | None = None   # built on first use

    def support_radius(self, t) -> float:
        return self.params.nu(t) * self.params.R0

    def density(self, t: float, x: np.ndarray) -> np.ndarray:
        """Background density at time t and positions x (shape (..., n)).

        Positions outside the closed support ball are an error; callers
        must clamp or test membership first.
        """
        radius = np.linalg.norm(np.atleast_2d(np.asarray(x, dtype=float)), axis=-1)
        if np.any(radius > self.support_radius(t) * (1.0 + 1e-12)):
            raise ValueError("position outside the support of the profile")
        return self.density_radial(t, radius)

    def velocity(self, t: float, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.params.kappa * x / (1.0 + t)

    def density_radial(self, t: float, r) -> np.ndarray:
        # written against the support radius so the density vanishes exactly
        # on the boundary (sqrt(A/B) rounding would otherwise leave +-1 ulp)
        p = self.params
        nu = float(p.nu(t))
        edge = nu * p.R0
        base = p.B_bar * np.maximum(edge ** 2 - np.asarray(r, dtype=float) ** 2,
                                    0.0) / nu ** 2
        return nu ** (-p.n) * base ** p.iota

    def density_time_derivative(self, t: float, r) -> np.ndarray:
        """Analytic d_t of the background density at radius r (inside support)."""
        p = self.params
        nu = float(p.nu(t))
        nu_t = float(p.nu_t(t))
        xi_sq = (np.asarray(r, dtype=float) / nu) ** 2
        base = p.A_bar - p.B_bar * xi_sq
        return -(nu ** (-p.n - 1)) * nu_t * (
            p.n * base ** p.iota - 2.0 * p.B_bar * p.iota * xi_sq * base ** (p.iota - 1.0)
        )

    def vacuum_gradient(self, t: float) -> float:
        """Outward normal derivative of c^2(rho) at the moving boundary.

        Strictly negative and finite: the moving interface stays a physical
        vacuum boundary for all time.
        """
        p = self.params
        return float(
            -2.0 * p.gamma * math.sqrt(p.A_bar * p.B_bar)
            * (1.0 + t) ** (p.kappa - 1.0 - p.lam)
        )

    def mass_error(self, t: float) -> float:
        """Relative error against M of the mass of :meth:`density_radial` at
        time t.

        With r = nu R0 sqrt(s), the mass is |S^(n-1)|/2 (nu R0)^n times the
        integral over [0, 1] of the density against s^(n/2-1).  The rule's
        weight is (1-s)^iota s^(n/2-1), so it integrates the density over
        (1-s)^iota, which is constant for the exact profile at any iota."""
        p = self.params
        if self._mass_rule is None:
            self._mass_rule = jacobi_rule_01(MASS_RULE_NODES, p.iota, p.n / 2.0 - 1.0)
        s, w = self._mass_rule
        edge = self.support_radius(t)
        density = self.density_radial(t, edge * np.sqrt(s)) / (1.0 - s) ** p.iota
        total = unit_sphere_area(p.n) * 0.5 * edge ** p.n * float(w @ density)
        return abs(total - p.mass) / p.mass

    def pme_residual(self, t: float, grid_spacing: float) -> float:
        """Sup-norm residual of the porous-media equation on interior nodes.

        Centered second-order differences of rho^gamma in the radial
        Laplacian against the analytic time derivative, restricted to
        radii from 0.1 to 0.9 of the support radius.  Converges at O(h^2)
        since the profile solves the equation exactly.
        """
        if t <= 0.0:
            raise ValueError("pme_residual requires t > 0")
        if grid_spacing <= 0.0:
            raise ValueError("grid spacing must be positive")
        p = self.params
        edge = self.support_radius(t)
        r = np.arange(grid_spacing, edge, grid_spacing)
        if r.size < 8:
            raise ValueError("grid spacing too coarse for the support")
        pressure = self.density_radial(t, r) ** p.gamma
        lap = np.full_like(r, np.nan)
        h = grid_spacing
        lap[1:-1] = (pressure[2:] - 2.0 * pressure[1:-1] + pressure[:-2]) / h ** 2 + (
            (p.n - 1.0) / r[1:-1] * (pressure[2:] - pressure[:-2]) / (2.0 * h)
        )
        resid = self.density_time_derivative(t, r) - (1.0 + t) ** p.lam * lap
        mask = (r >= 0.1 * edge) & (r <= 0.9 * edge) & np.isfinite(resid)
        if not np.any(mask):
            raise ValueError("no interior nodes in the window")
        return float(np.max(np.abs(resid[mask])))


def barenblatt_fields(params: PhysParams, t: float, x) -> tuple[np.ndarray, np.ndarray]:
    """Density and velocity of the self-similar background at (t, x)."""
    profile = SelfSimilarProfile(params)
    x = np.asarray(x, dtype=float)
    return profile.density(t, x), profile.velocity(t, x)
