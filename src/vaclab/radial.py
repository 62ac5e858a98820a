"""Nonlinear evolution of radially symmetric perturbations of the ansatz.

The perturbation omega = w(r) y/|y| of the Lagrangian flow obeys

    w_tt = -d(t) w_t - c(t) [kappa w + N(w)],
    d(t) = (1+t)^(-lam) + 2 theta_t/theta,   c(t) = theta^-(n*gamma-n+2),

where N is the radial reduction of the degenerate pressure divergence
sigma^(-iota) d_k ( sigma^(iota+1) (A^k_i J^(1-gamma) - delta^k_i) ).
With w = r p(s), s = (r/R0)^2, center regularity (w odd, w(0)=0) is built
into the collocation basis, and no boundary condition is imposed at R0:
the sigma weight vanishes there and the degenerate operator needs none.

The zero perturbation is an exact solution (the ansatz absorbs the
background through the correction ODE), and the right-hand side vanishes
identically on it, so the anchor run is preserved to round-off.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .correction import CorrectionPath
from .energy import EnergyReport, RadialEnergies, energy_indices
from .kinematics import box_grid, build_deformation, radial_vector_field
from .quadrature import resample_matrix
from .timestepping import (IntegrationStats, StepSizeUnderflow,
                           integrate_adaptive, integrate_fixed_rk4,
                           power_iteration)
from .weighted import WeightedGrid

logger = logging.getLogger(__name__)

MAX_TIME_DERIVATIVE = 4


class RadialInvariantError(RuntimeError):
    """Radial deformation lost invertibility (1 + w_r or 1 + w/r <= 0)."""

    def __init__(self, t: float, node: int, factor: str):
        self.t = float(t)
        self.node = int(node)
        self.factor = factor
        super().__init__(
            f"deformation invariant violated at t={t:.6g}, node {node} ({factor} <= 0)"
        )


@dataclass
class RadialState:
    """Nodal radial perturbation (w, w_t) at time t."""

    t: float
    w: np.ndarray
    w_t: np.ndarray


class RadialOperator:
    """Discrete radial pressure operator and its directional derivatives."""

    def __init__(self, grid: WeightedGrid, path: CorrectionPath | None = None,
                 fault: str | None = None):
        """``path`` supplies the time coefficients and may be omitted for
        pressure-only use.  ``fault='pressure-sign'`` flips the sign of the
        tangential pressure term (negative test of the oracle checks)."""
        self.grid = grid
        self.path = path
        self.params = grid.params
        self.fault = fault
        p = self.params
        self._p1 = -p.gamma                     # alpha = X^p1 Y^q1 - 1
        self._q1 = (p.n - 1.0) * (1.0 - p.gamma)
        self._p2 = 1.0 - p.gamma                # beta = X^p2 Y^q2 - 1
        self._q2 = self._q1 - 1.0
        self.sigma = p.sigma(grid.r)
        self.sigma_prime = -2.0 * p.B_bar * grid.r
        self._two_over_r0sq = 2.0 / p.R0 ** 2

    # -- pointwise deformation factors ------------------------------------
    def _deformation(self, w):
        """(p, p'(s), w_r) with p = w/r."""
        g = self.grid
        pvals = w / g.r
        dp = g.d_s @ pvals
        return pvals, dp, pvals + 2.0 * g.s * dp

    def _factors(self, w, t=None):
        pvals, dp, u = self._deformation(w)
        x = 1.0 + u          # 1 + w_r
        y = 1.0 + pvals      # 1 + w/r
        if np.any(x <= 0.0) or np.any(y <= 0.0):
            bad_x = np.where(x <= 0.0)[0]
            node = int(bad_x[0]) if bad_x.size else int(np.where(y <= 0.0)[0][0])
            factor = "1 + w_r" if bad_x.size else "1 + w/r"
            raise RadialInvariantError(np.nan if t is None else t, node, factor)
        return pvals, dp, u, x, y

    def pressure(self, w: np.ndarray, t: float | None = None) -> np.ndarray:
        """N(w): sigma^(-iota)-scaled radial pressure divergence (odd field)."""
        g, p = self.grid, self.params
        pvals, dp, u, x, y = self._factors(w, t)
        la, lb = np.log1p(u), np.log1p(pvals)
        alpha = np.expm1(self._p1 * la + self._q1 * lb)
        one_plus_beta = np.exp(self._p2 * la + self._q2 * lb)
        # (alpha - beta)/r = -(1+beta) * (2r/R0^2) p'(s) / X, exactly
        w_tangential = -one_plus_beta * self._two_over_r0sq * g.r * dp / x
        if self.fault == "pressure-sign":
            w_tangential = -w_tangential
        alpha_prime = self._two_over_r0sq * g.r * (g.d_s @ alpha)
        return (
            self.sigma_prime * (p.iota + 1.0) * alpha
            + self.sigma * alpha_prime
            + (p.n - 1.0) * self.sigma * w_tangential
        )

    def log_jacobian(self, w: np.ndarray) -> np.ndarray:
        """log J = log(1 + w_r) + (n-1) log(1 + w/r) of the deformation.

        Unlike the dynamics this does not check the invariant: where the
        deformation is not invertible log J is NaN, so the last state of a
        failed trajectory can still be reported."""
        pvals, _, u = self._deformation(w)
        return np.log1p(u) + (self.params.n - 1.0) * np.log1p(pvals)

    def stiffness(self, w: np.ndarray, t: float | None = None) -> np.ndarray:
        """K(w) = kappa w + N(w)."""
        return self.params.kappa * w + self.pressure(w, t)

    def _stretch_factors(self, w):
        """(p'(s), X, Y, 1 + alpha, 1 + beta) at w, with X = 1 + w_r and
        Y = 1 + w/r, for the directional derivatives of the pressure."""
        pvals, dp, u, x, y = self._factors(w)
        la, lb = np.log1p(u), np.log1p(pvals)
        return (dp, x, y, np.exp(self._p1 * la + self._q1 * lb),
                np.exp(self._p2 * la + self._q2 * lb))

    def stiffness_linearized(self, w: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """Directional derivative K'(w)[delta]."""
        g, p = self.grid, self.params
        dp, x, y, one_plus_alpha, one_plus_beta = self._stretch_factors(w)
        d_p = delta / g.r
        d_dp = g.d_s @ d_p
        d_u = d_p + 2.0 * g.s * d_dp
        d_alpha = one_plus_alpha * (self._p1 * d_u / x + self._q1 * d_p / y)
        d_beta = one_plus_beta * (self._p2 * d_u / x + self._q2 * d_p / y)
        slope = dp / x
        d_slope = d_dp / x - dp * d_u / x ** 2
        d_wt = -self._two_over_r0sq * g.r * (d_beta * slope + one_plus_beta * d_slope)
        d_alpha_prime = self._two_over_r0sq * g.r * (g.d_s @ d_alpha)
        d_n = (
            self.sigma_prime * (p.iota + 1.0) * d_alpha
            + self.sigma * d_alpha_prime
            + (p.n - 1.0) * self.sigma * d_wt
        )
        return p.kappa * delta + d_n

    def stiffness_second(self, w: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """Second directional derivative K''(w)[delta, delta]."""
        g, p = self.grid, self.params
        dp, x, y, one_plus_alpha, one_plus_beta = self._stretch_factors(w)
        d_p = delta / g.r
        d_dp = g.d_s @ d_p
        d_u = d_p + 2.0 * g.s * d_dp
        rx, ry = d_u / x, d_p / y
        lin_a = self._p1 * rx + self._q1 * ry
        lin_b = self._p2 * rx + self._q2 * ry
        dd_alpha = one_plus_alpha * (lin_a ** 2 - self._p1 * rx ** 2 - self._q1 * ry ** 2)
        dd_beta = one_plus_beta * (lin_b ** 2 - self._p2 * rx ** 2 - self._q2 * ry ** 2)
        d_beta = one_plus_beta * lin_b
        slope = dp / x
        d_slope = d_dp / x - dp * d_u / x ** 2
        dd_slope = -2.0 * d_dp * d_u / x ** 2 + 2.0 * dp * d_u ** 2 / x ** 3
        dd_wt = -self._two_over_r0sq * g.r * (
            dd_beta * slope + 2.0 * d_beta * d_slope + one_plus_beta * dd_slope
        )
        dd_alpha_prime = self._two_over_r0sq * g.r * (g.d_s @ dd_alpha)
        return (
            self.sigma_prime * (p.iota + 1.0) * dd_alpha
            + self.sigma * dd_alpha_prime
            + (p.n - 1.0) * self.sigma * dd_wt
        )

    # -- time-dependent coefficients ---------------------------------------
    def damping(self, t: float) -> tuple[float, float, float]:
        """(d, d', d'') at t."""
        return self.path.coefficients(t).d

    def wave_coefficient(self, t: float) -> tuple[float, float, float]:
        """(c, c', c'') at t."""
        return self.path.coefficients(t).c

    # -- dynamics ----------------------------------------------------------
    def rhs(self, t: float, state: np.ndarray) -> np.ndarray:
        m = state.size // 2
        w, w_t = state[:m], state[m:]
        return np.concatenate([w_t, self.acceleration(t, w, w_t)])

    def acceleration(self, t: float, w: np.ndarray, w_t: np.ndarray) -> np.ndarray:
        return -self.damping(t)[0] * w_t - self.wave_coefficient(t)[0] * self.stiffness(w, t)

    def time_derivatives(self, t: float, w: np.ndarray, w_t: np.ndarray,
                         order: int = MAX_TIME_DERIVATIVE) -> dict[int, np.ndarray]:
        """Nodal arrays of partial_t^m w for m <= order, obtained by
        differentiating the equation rather than differencing the
        trajectory (avoids amplifying time-discretization noise)."""
        derivs = {0: w, 1: w_t}
        if order < 2:
            return derivs
        d0, d1, d2 = self.damping(t)
        c0, c1, c2 = self.wave_coefficient(t)
        k0 = self.stiffness(w, t)
        acc = -d0 * w_t - c0 * k0
        derivs[2] = acc
        if order >= 3:
            k1_wt = self.stiffness_linearized(w, w_t)
            derivs[3] = -d1 * w_t - d0 * acc - c1 * k0 - c0 * k1_wt
        if order >= 4:
            k2 = self.stiffness_second(w, w_t)
            k1_acc = self.stiffness_linearized(w, acc)
            derivs[4] = (
                -d2 * w_t - 2.0 * d1 * acc - d0 * derivs[3]
                - c2 * k0 - 2.0 * c1 * k1_wt - c0 * (k2 + k1_acc)
            )
        return derivs

    def spectral_radius(self, iterations: int = 80, seed: int = 0) -> float:
        """Power-iteration bound on the linearized stiffness about w = 0;
        the generalized CFL cap scales it by the decaying wave coefficient."""
        zero = np.zeros(self.grid.num_nodes)
        return power_iteration(lambda v: self.stiffness_linearized(zero, v),
                               self.grid.num_nodes, iterations, seed)

    def step_cap(self, cfl_safety: float = 0.5):
        rho = self.spectral_radius()

        def cap(t: float) -> float:
            wave = cfl_safety * 2.8 / np.sqrt(self.wave_coefficient(t)[0] * rho)
            damp = 2.5 / self.damping(t)[0]
            return float(min(wave, damp))

        return cap


@dataclass
class Reconstruction:
    """Physical-space fields reconstructed from a radial state."""

    t: float
    radii: np.ndarray          # x(t, y) along a ray, per node
    density: np.ndarray
    velocity: np.ndarray
    boundary_radius: float


@dataclass
class RadialTrajectory:
    grid: WeightedGrid
    times: np.ndarray
    states: list[RadialState]
    energies: EnergyReport | None
    reconstructions: list[Reconstruction]
    stats: IntegrationStats
    status: str = "completed"
    failure: dict | None = None

    def sup_norms(self) -> np.ndarray:
        return np.array([float(np.max(np.abs(s.w))) for s in self.states])


def output_schedule(t_end: float, per_decade: int = 60, t_first: float = 0.1) -> np.ndarray:
    if t_end <= t_first:
        return np.array([0.0, t_end])
    decades = np.log10(t_end / t_first)
    count = max(int(decades * per_decade), 8)
    return np.concatenate([[0.0], np.geomspace(t_first, t_end, count)])


def reconstruct_physical(operator: RadialOperator, state: RadialState) -> Reconstruction:
    """x = theta (y + omega), density = rho0 J^-1 theta^-n,
    velocity = theta_t (y + omega) + theta omega_t, at the grid nodes."""
    g = operator.grid
    path = operator.path
    p = operator.params
    th = float(path.theta_at(state.t))
    th_t = float(path.theta_t_at(state.t))
    _, _, u, x_fac, y_fac = operator._factors(state.w, state.t)
    jac = x_fac * y_fac ** (p.n - 1.0)
    density = p.rho0(g.r) / jac * th ** (-p.n)
    radii = th * (g.r + state.w)
    velocity = th_t * (g.r + state.w) + th * state.w_t
    # boundary: extrapolate the s-polynomial w/r to s = 1
    edge = resample_matrix(g.s, np.array([1.0]))
    w_edge = float((edge @ (state.w / g.r))[0] * p.R0)
    return Reconstruction(
        t=state.t, radii=radii, density=density, velocity=velocity,
        boundary_radius=th * (p.R0 + w_edge),
    )


def reconstructed_mass(operator: RadialOperator, recon: Reconstruction) -> float:
    """Physical mass from the reconstructed density and volume element."""
    g, p = operator.grid, operator.params
    th = float(operator.path.theta_at(recon.t))
    state_w = recon.radii / th - g.r
    _, _, _, x_fac, y_fac = operator._factors(state_w)
    jac = x_fac * y_fac ** (p.n - 1.0)
    smooth = recon.density * th ** p.n * jac / p.sigma(g.r) ** p.iota
    rule = g.rule(p.iota)
    return g.integrate_ball(p.iota, g.to_rule(rule, smooth))


def evolve(grid: WeightedGrid, path: CorrectionPath, initial: RadialState,
           t_end: float, output_times=None, rel_tol: float = 1e-7,
           abs_tol: float = 1e-11, cfl_safety: float = 0.5,
           stepper: str = "adaptive", fixed_dt: float | None = None,
           collect_energies: bool = True, collect_reconstructions: bool = True,
           energy_level: int = 2) -> RadialTrajectory:
    """Integrate the radial system and record states, energies, and
    physical reconstructions at the output times.

    On an invariant violation the trajectory is truncated and returned
    with ``status='failed'`` and failure metadata, never dropped.
    """
    if path.t_end < t_end:
        raise ValueError("correction path does not cover the requested horizon")
    op = RadialOperator(grid, path)
    if output_times is None:
        output_times = output_schedule(t_end)
    output_times = np.asarray(output_times, dtype=float)
    output_times = output_times[output_times >= initial.t - 1e-12]
    n = grid.num_nodes
    y0 = np.concatenate([initial.w, initial.w_t])

    states: list[RadialState] = []
    recons: list[Reconstruction] = []
    indices = energy_indices(energy_level)
    evaluator = RadialEnergies(grid) if collect_energies else None
    comp: dict[tuple, list] = {idx: [] for idx in indices}

    def on_output(t, y):
        state = RadialState(t=t, w=y[:n].copy(), w_t=y[n:].copy())
        states.append(state)
        if collect_reconstructions:
            recons.append(reconstruct_physical(op, state))
        if evaluator is not None:
            derivs = op.time_derivatives(t, state.w, state.w_t)
            for idx in indices:
                comp[idx].append(evaluator.component(derivs, *idx, t))

    status, failure = "completed", None
    stats = IntegrationStats()   # filled in place, kept when a step fails
    try:
        if stepper == "adaptive":
            integrate_adaptive(
                op.rhs, initial.t, y0, output_times, rel_tol=rel_tol,
                abs_tol=abs_tol, max_step=op.step_cap(cfl_safety),
                on_output=on_output, stats=stats,
            )
        elif stepper == "rk4":
            if fixed_dt is None:
                raise ValueError("fixed_dt is required for the rk4 stepper")
            integrate_fixed_rk4(op.rhs, initial.t, y0, output_times,
                                fixed_dt, on_output=on_output, stats=stats)
        else:
            raise ValueError(f"unknown stepper {stepper!r}")
    except (RadialInvariantError, StepSizeUnderflow) as exc:
        status = "failed"
        failure = {"time": getattr(exc, "t", float("nan")), "reason": str(exc)}
        logger.warning("radial evolution truncated: %s", exc)

    times = np.array([s.t for s in states])
    # the state at which a run failed is kept without energies or reconstruction
    evaluated = len(comp[indices[0]])
    energies = None
    if evaluator is not None and evaluated:
        energies = EnergyReport(
            times=times[:evaluated],
            components={idx: np.array(vals) for idx, vals in comp.items()},
            indices=indices,
        )
    return RadialTrajectory(
        grid=grid, times=times, states=states, energies=energies,
        reconstructions=recons, stats=stats, status=status, failure=failure,
    )


# -- initial data ------------------------------------------------------------

SEED_SHAPES = ("zero", "parabolic", "quartic", "random")


def seed_profile(shape: str, amplitude: float, grid: WeightedGrid,
                 rng: np.random.Generator | None = None) -> np.ndarray:
    """Initial radial perturbation profiles w(r) at the grid nodes."""
    r, r0 = grid.r, grid.params.R0
    if shape == "zero" or amplitude == 0.0:
        return np.zeros_like(r)
    if shape == "parabolic":
        return amplitude * r * (r0 - r) / r0 ** 2
    if shape == "quartic":
        return amplitude * r * (r0 ** 2 - r ** 2) / r0 ** 3
    if shape == "random":
        if rng is None:
            raise ValueError("random seed shape needs an RNG")
        coeffs = rng.standard_normal(4) * (0.5 ** np.arange(4))
        poly = sum(c * grid.s ** k for k, c in enumerate(coeffs))
        scale = np.max(np.abs(r * poly))
        return amplitude * r * poly / (scale / r0 + 1e-300) / r0
    raise ValueError(f"unknown seed shape {shape!r}; options: {SEED_SHAPES}")


# -- cross-check of the radial pressure reduction ----------------------------

def radial_oracle_check(grid: WeightedGrid, num_samples: int = 3,
                        box_points: int = 49, seed: int = 0,
                        fault: str | None = None) -> float:
    """Compare the radial pressure reduction against the full Cartesian
    divergence evaluated by finite differences on a tensor grid, along a
    coordinate ray.  Returns the max relative discrepancy.

    ``fault`` deliberately corrupts the radial formula (test hook for the
    verification suite's fault-injection negative test).
    """
    p = grid.params
    rng = np.random.default_rng(seed)
    op = RadialOperator(grid, fault=fault)
    half_width = 0.95 * p.R0 / np.sqrt(p.n)
    bgrid = box_grid(p.n, half_width, box_points)
    axis = bgrid.axes[0]
    ray = axis[axis > 0.15 * p.R0]
    ray = ray[ray < 0.9 * half_width]
    worst = 0.0
    for _ in range(num_samples):
        coeffs = rng.standard_normal(3) * np.array([1.0, 0.5, 0.25])
        scale = 0.05 * p.R0 / np.max(np.abs(coeffs))

        def w_of_r(r):
            s = (r / p.R0) ** 2
            return scale * r * (coeffs[0] + coeffs[1] * s + coeffs[2] * s ** 2)

        cart_on_ray = _cartesian_pressure_on_ray(bgrid, p, w_of_r,
                                                 np.searchsorted(axis, ray))
        # radial route, interpolated to the ray radii
        w_nodes = w_of_r(grid.r)
        n_vals = op.pressure(w_nodes)
        interp = resample_matrix(grid.s, (ray / p.R0) ** 2)
        radial_on_ray = (interp @ (n_vals / grid.r)) * ray
        radial_on_ray *= p.sigma(ray) ** p.iota
        scale_ref = np.max(np.abs(cart_on_ray)) + 1e-300
        worst = max(worst, float(np.max(np.abs(cart_on_ray - radial_on_ray)) / scale_ref))
    return worst


def _cartesian_pressure_on_ray(bgrid, p, w_of_r, ray_idx) -> np.ndarray:
    """Cartesian route, G^k_i = sigma^(iota+1) (A^k_i J^(1-gamma) - delta),
    pressure_i = d_k G^k_i, evaluated with the FD machinery and read along
    the first axis.  Its tensor-grid fields are released on return, before
    the next sample builds its own."""
    omega = radial_vector_field(bgrid, w_of_r)
    fld = build_deformation(bgrid, omega)
    sigma = p.A_bar - p.B_bar * bgrid.radius() ** 2
    weight = sigma ** (p.iota + 1.0)
    jfac = fld.jacobian ** (1.0 - p.gamma)
    cart = _cartesian_pressure(bgrid, fld, weight, jfac)
    center = tuple(bgrid.shape[k] // 2 for k in range(1, p.n))
    return np.array([cart[(i,) + center + (0,)] for i in ray_idx])


def _cartesian_pressure(bgrid, fld, weight, jfac):
    from .kinematics import apply_d

    n = bgrid.n
    out = np.zeros(bgrid.shape + (n,))
    for i in range(n):
        for k in range(n):
            g_ki = weight * (fld.inverse_matrix[..., k, i] * jfac - (1.0 if i == k else 0.0))
            out[..., i] += apply_d(bgrid, g_ki, k)
    return out
