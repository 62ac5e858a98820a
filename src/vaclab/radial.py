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

from .config import SEED_SHAPES, STEPPERS
from .correction import CorrectionPath
from .energy import RadialEnergies, energy_columns, energy_indices
from .kinematics import apply_d, box_grid, build_deformation, radial_vector_field
from .quadrature import resample_matrix
from .timestepping import (IntegrationStats, StepSizeUnderflow,
                           integrate_adaptive, integrate_fixed_rk4)
from .weighted import WeightedGrid

logger = logging.getLogger(__name__)

MAX_TIME_DERIVATIVE = 4
CFL_SAFETY = 0.5   # share of the wave part's stability limit a step may take


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


def deformation(grid: WeightedGrid, w: np.ndarray, t: float | None = None,
                check: bool = True):
    """(p, p_s, X, Y, log X, log Y) of a radial field w = r p(s): its strain
    p = w/r and p_s, the deformation factors X = 1 + w_r and Y = 1 + w/r
    (J = X Y^(n-1)) and their logarithms.  ``check`` raises at the first node
    where X, else Y, is not positive; without it the logarithms read NaN there."""
    p, p_s, u = grid.radial_strain(w)
    x = 1.0 + u
    # 1 + p <= 0 exactly when p <= -1 (1 + p is exact for p near -1)
    if check and (x.min() <= 0.0 or p.min() <= -1.0):
        failed_x = x <= 0.0
        factor, failed = ("1 + w_r", failed_x) if failed_x.any() else ("1 + w/r", p <= -1.0)
        raise RadialInvariantError(np.nan if t is None else t, int(np.argmax(failed)), factor)
    return p, p_s, x, 1.0 + p, np.log1p(u), np.log1p(p)


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
        p = self.params
        self._p1 = -p.gamma                     # alpha = X^p1 Y^q1 - 1
        self._q1 = (p.n - 1.0) * (1.0 - p.gamma)
        self._p2 = 1.0 - p.gamma                # beta = X^p2 Y^q2 - 1
        self._q2 = self._q1 - 1.0
        sigma = p.sigma(grid.r)
        # constant node vectors of the pressure: N = a alpha + b d_s alpha
        # + c (1 + beta) p'(s) / X, the fault's sign folded into c; K' and
        # K'' are built from the same three
        radial_scale = (2.0 / p.R0 ** 2) * grid.r
        self._alpha_coef = -2.0 * p.B_bar * grid.r * (p.iota + 1.0)
        self._alpha_slope_coef = sigma * radial_scale
        sign = -1.0 if fault == "pressure-sign" else 1.0
        self._tangential_coef = -sign * (p.n - 1.0) * sigma * radial_scale
        # nodal values of w/r -> its interpolant at the boundary s = 1
        self._edge = resample_matrix(grid.s, np.array([1.0]), grid._bary)

    def pressure(self, w: np.ndarray, t: float | None = None) -> np.ndarray:
        """N(w): sigma^(-iota)-scaled radial pressure divergence (odd field)."""
        _, dp, x, _, la, lb = deformation(self.grid, w, t)
        alpha = np.expm1(self._p1 * la + self._q1 * lb)
        one_plus_beta = np.exp(self._p2 * la + self._q2 * lb)
        # (alpha - beta)/r = -(1+beta) * (2r/R0^2) p'(s) / X, exactly
        return (self._alpha_coef * alpha + self._alpha_slope_coef * (self.grid.d_s @ alpha)
                + self._tangential_coef * one_plus_beta * dp / x)

    def stiffness(self, w: np.ndarray, t: float | None = None) -> np.ndarray:
        """K(w) = kappa w + N(w)."""
        return self.params.kappa * w + self.pressure(w, t)

    def _prologue(self, w):
        """The w-dependent factors of K' and K'' at w: the strain slope
        p'(s), X, Y, 1 + alpha, 1 + beta and the slope p'(s)/X."""
        _, dp, x, y, la, lb = deformation(self.grid, w)
        one_plus_alpha = np.exp(self._p1 * la + self._q1 * lb)
        one_plus_beta = np.exp(self._p2 * la + self._q2 * lb)
        return dp, x, y, one_plus_alpha, one_plus_beta, dp / x

    def _variation(self, at, delta):
        """Shared part of K' and K'' along delta, from the prologue ``at``
        of w: 1 + alpha, 1 + beta, the slope and its variation along delta,
        the ratios d_u/X and d_p/Y of the strain of delta, and the linear
        forms in them that vary log(1 + alpha) and log(1 + beta)."""
        dp, x, y, one_plus_alpha, one_plus_beta, slope = at
        d_p, d_dp, d_u = self.grid.radial_strain(delta)
        rx, ry = d_u / x, d_p / y
        d_slope = d_dp / x - dp * d_u / x ** 2
        return (one_plus_alpha, one_plus_beta, slope, d_slope, rx, ry,
                self._p1 * rx + self._q1 * ry, self._p2 * rx + self._q2 * ry)

    def _pressure_variation(self, d_alpha, d_tangential):
        """The pressure's node vectors applied to a variation of alpha and
        of the tangential factor (1 + beta) p'(s) / X."""
        return (self._alpha_coef * d_alpha
                + self._alpha_slope_coef * (self.grid.d_s @ d_alpha)
                + self._tangential_coef * d_tangential)

    def _first(self, delta, variation):
        """K'(w)[delta] from the variation of w along delta."""
        one_plus_alpha, one_plus_beta, slope, d_slope, _, _, lin_a, lin_b = variation
        d_beta = one_plus_beta * lin_b
        return self.params.kappa * delta + self._pressure_variation(
            one_plus_alpha * lin_a, d_beta * slope + one_plus_beta * d_slope)

    def _second(self, variation):
        """K''(w)[delta, delta] from the variation of w along delta."""
        one_plus_alpha, one_plus_beta, slope, d_slope, rx, ry, lin_a, lin_b = variation
        dd_alpha = one_plus_alpha * (lin_a ** 2 - self._p1 * rx ** 2 - self._q1 * ry ** 2)
        dd_beta = one_plus_beta * (lin_b ** 2 - self._p2 * rx ** 2 - self._q2 * ry ** 2)
        d_beta = one_plus_beta * lin_b
        dd_slope = -2.0 * rx * d_slope
        return self._pressure_variation(
            dd_alpha, dd_beta * slope + 2.0 * d_beta * d_slope + one_plus_beta * dd_slope)

    def stiffness_linearized(self, w: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """Directional derivative K'(w)[delta]."""
        return self._first(delta, self._variation(self._prologue(w), delta))

    def stiffness_second(self, w: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """Second directional derivative K''(w)[delta, delta]."""
        return self._second(self._variation(self._prologue(w), delta))

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
            at = self._prologue(w)          # shared by the three directions
            along_wt = self._variation(at, w_t)
            k1_wt = self._first(w_t, along_wt)
            derivs[3] = -d1 * w_t - d0 * acc - c1 * k0 - c0 * k1_wt
        if order >= 4:
            k2 = self._second(along_wt)
            k1_acc = self._first(acc, self._variation(at, acc))
            derivs[4] = (
                -d2 * w_t - 2.0 * d1 * acc - d0 * derivs[3]
                - c2 * k0 - 2.0 * c1 * k1_wt - c0 * (k2 + k1_acc)
            )
        return derivs

    def spectral_radius(self) -> float:
        """Largest eigenvalue of the linearized stiffness K'(0), exactly.

        At w = 0 (X = Y = 1, alpha = beta = 0, p'(s) = 0) the variation of
        the pressure along delta = r d_p(s) is

            a d_alpha + b d_s d_alpha + c d_p'(s),
            d_alpha = -gamma d_u + (n-1)(1-gamma) d_p,  d_u = d_p + 2 s d_p',

        with a = -2 B_bar (iota+1) r, b = 2 B_bar (1-s) r and
        c = -(n-1) b (sigma = B_bar R0^2 (1-s)).  On a monomial
        d_p = s^k it returns r times s^k plus lower powers, so K'(0) is
        triangular on the basis r s^k, k < m, which the collocation
        represents exactly.  Its eigenvalues are the diagonal entries

            kappa + 2 B_bar [(iota+1+k)(gamma (2k+1) + (n-1)(gamma-1)) + (n-1) k]
              = (1+lam) (k+1)(2k+n+2 iota) / (n+2 iota),

        using kappa = (1+lam)/(n gamma-n+2), iota = 1/(gamma-1) and
        2 B_bar = kappa/(gamma iota): with j = k+1 = 1..m,
        lam_j = (1+lam) j (2j+n+2 iota-2)/(n+2 iota), largest at j = m.
        The generalized CFL cap scales it by the decaying wave coefficient.
        """
        p, m = self.params, self.grid.num_nodes
        return (1.0 + p.lam) * m * (2.0 * m + p.n + 2.0 * p.iota - 2.0) / (p.n + 2.0 * p.iota)

    def step_cap(self):
        rho = self.spectral_radius()

        def cap(t: float) -> float:
            wave = CFL_SAFETY * 2.8 / np.sqrt(self.wave_coefficient(t)[0] * rho)
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
    energies: dict[str, np.ndarray] | None   # the columns of energies.csv
    reconstructions: list[Reconstruction]
    stats: IntegrationStats
    status: str = "completed"
    failure: dict | None = None

    def sup_norms(self) -> np.ndarray:
        return np.array([float(np.max(np.abs(s.w))) for s in self.states])


def output_schedule(t_end: float, per_decade: int = 60) -> np.ndarray:
    """t = 0, then ``per_decade`` log-spaced times per decade from 0.1 to
    ``t_end`` (at least 8)."""
    if t_end <= 0.1:
        return np.array([0.0, t_end])
    decades = np.log10(t_end / 0.1)
    count = max(int(decades * per_decade), 8)
    return np.concatenate([[0.0], np.geomspace(0.1, t_end, count)])


def reconstruct_physical(operator: RadialOperator, state: RadialState) -> Reconstruction:
    """x = theta (y + omega), density = rho0 J^-1 theta^-n,
    velocity = theta_t (y + omega) + theta omega_t, at the grid nodes."""
    g = operator.grid
    path = operator.path
    p = operator.params
    th = float(path.theta_at(state.t))
    th_t = float(path.theta_t_at(state.t))
    pvals, _, x_fac, y_fac, _, _ = deformation(g, state.w, state.t)
    jac = x_fac * y_fac ** (p.n - 1.0)
    density = p.rho0(g.r) / jac * th ** (-p.n)
    radii = th * (g.r + state.w)
    velocity = th_t * (g.r + state.w) + th * state.w_t
    # boundary: extrapolate the s-polynomial w/r to s = 1
    w_edge = float((operator._edge @ pvals)[0] * p.R0)
    return Reconstruction(
        t=state.t, radii=radii, density=density, velocity=velocity,
        boundary_radius=th * (p.R0 + w_edge),
    )


def reconstructed_mass(operator: RadialOperator, recon: Reconstruction) -> float:
    """Physical mass from the reconstructed density and volume element."""
    g, p = operator.grid, operator.params
    th = float(operator.path.theta_at(recon.t))
    state_w = recon.radii / th - g.r
    _, _, x_fac, y_fac, _, _ = deformation(g, state_w)
    jac = x_fac * y_fac ** (p.n - 1.0)
    smooth = recon.density * th ** p.n * jac / p.sigma(g.r) ** p.iota
    rule = g.rule(p.iota)
    return g.integrate_ball(p.iota, g.to_rule(rule, smooth))


def evolve(grid: WeightedGrid, path: CorrectionPath, initial: RadialState,
           t_end: float, output_times=None, rel_tol: float = 1e-7,
           abs_tol: float = 1e-11, stepper: str = "adaptive", fixed_dt: float | None = None,
           collect_energies: bool = True,
           collect_reconstructions: bool = True) -> RadialTrajectory:
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
    indices = energy_indices()
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
                abs_tol=abs_tol, max_step=op.step_cap(),
                on_output=on_output, stats=stats,
            )
        elif stepper == "rk4":
            if fixed_dt is None:
                raise ValueError("fixed_dt is required for the rk4 stepper")
            integrate_fixed_rk4(op.rhs, initial.t, y0, output_times,
                                fixed_dt, on_output=on_output, stats=stats)
        else:
            raise ValueError(f"unknown stepper {stepper!r}; options: {STEPPERS}")
    except (RadialInvariantError, StepSizeUnderflow) as exc:
        status = "failed"
        failure = {"time": getattr(exc, "t", float("nan")), "reason": str(exc)}
        logger.warning("radial evolution truncated: %s", exc)

    times = np.array([s.t for s in states])
    # the state at which a run failed is kept without energies or reconstruction
    evaluated = len(comp[indices[0]])
    energies = None
    if evaluator is not None and evaluated:
        energies = energy_columns(times[:evaluated], comp)
    return RadialTrajectory(
        grid=grid, times=times, states=states, energies=energies,
        reconstructions=recons, stats=stats, status=status, failure=failure,
    )


# -- initial data ------------------------------------------------------------

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

def radial_oracle_check(grid: WeightedGrid, num_samples: int, box_points: int,
                        seed: int, fault: str | None = None) -> float:
    """Compare the radial pressure reduction against the full Cartesian
    divergence evaluated by finite differences on a ``box_points``-node
    tensor grid, along a coordinate ray.  Returns the max relative
    discrepancy.  The Cartesian side is built on a 9-node slab around the
    ray, which gives the full box's values on it
    (:func:`_cartesian_pressure_on_ray`).

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
        interp = resample_matrix(grid.s, (ray / p.R0) ** 2, grid._bary)
        radial_on_ray = (interp @ (n_vals / grid.r)) * ray
        radial_on_ray *= p.sigma(ray) ** p.iota
        scale_ref = np.max(np.abs(cart_on_ray)) + 1e-300
        worst = max(worst, float(np.max(np.abs(cart_on_ray - radial_on_ray)) / scale_ref))
    return worst


def _cartesian_pressure_on_ray(bgrid, p, w_of_r, ray_idx) -> np.ndarray:
    """Cartesian route, G^k_i = sigma^(iota+1) (A^k_i J^(1-gamma) - delta),
    pressure_i = d_k G^k_i, evaluated with the FD machinery.  Returns
    pressure_0, the component along the ray, at the nodes ``ray_idx`` of
    the first axis through the centre.

    Only a slab is built: the whole first axis and the 9 nodes c-4 .. c+4
    around the centre c of every other axis (fewer where the box is
    narrower).  On the ray, d_k G^k_0 reads G at offsets -2 .. 2 across
    it; G there needs d omega at those nodes only, which the slab's 9
    nodes give with the box's centred 5-point stencil (reading omega at
    -4 .. 4).  So no one-sided row of the slab is read, and the ray's
    values equal the full box's."""
    centre = tuple(slice(m // 2, m // 2 + 1) for m in bgrid.shape[1:])
    slab, _, ray = bgrid.crop((slice(None),) + centre, halo=4)
    fld = build_deformation(slab, radial_vector_field(slab, w_of_r))
    sigma = p.A_bar - p.B_bar * slab.radius() ** 2
    weight = sigma ** (p.iota + 1.0)
    jfac = fld.jacobian ** (1.0 - p.gamma)
    pressure = sum(apply_d(slab, weight * (fld.inverse_matrix[..., k, 0] * jfac
                                           - (1.0 if k == 0 else 0.0)), k)
                   for k in range(slab.n))
    return pressure[ray].reshape(-1)[ray_idx]
