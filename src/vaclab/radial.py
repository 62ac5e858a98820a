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

The right-hand side is evaluated six times per step, thousands of steps
per run, mostly on a few dozen nodes, where each NumPy call costs more
than its arithmetic.  So a stage reads d and c alone from the path's
stage lookup, ``deformation`` forms both strains, factors and logarithms
as stacked pairs and checks them with one minimum, and ``rhs`` writes
(w_t, u_tt) into one new array; each value is formed by the operations it
was before, in the same order (``tests/rhs_reference.py``).  The
pressure's node vectors stay three separate products: folding them, or
1/r, into one matrix would change the rounding.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .config import SEED_SHAPES, STEPPERS, SolverConfig
from .correction import CorrectionPath, per_output
from .energy import OutputStack, RadialEnergies, energy_columns, output_blocks
from .kinematics import apply_d, box_grid, build_deformation, radial_vector_field
from .quadrature import resample_matrix
from .timestepping import (IntegrationStats, StepSizeUnderflow,
                           integrate_adaptive, integrate_fixed_rk4)
from .weighted import WeightedGrid

logger = logging.getLogger(__name__)

CFL_SAFETY = 0.5   # share of the wave part's stability limit a step may take
# 1 as a 0-d array: NumPy adds it to an array faster than a Python float,
# with the same sums (a constant factor of a stage is kept the same way)
_ONE = np.array(1.0)


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
class RadialState(OutputStack):
    """Nodal radial perturbation (w, w_t) at time t, or a stack of outputs:
    t of shape (T, 1, 1) and w, w_t of shape (T, 1, m), one field each."""

    t: float
    w: np.ndarray
    w_t: np.ndarray


def deformation(grid: WeightedGrid, w: np.ndarray, t: float | None = None,
                check: bool = True):
    """(p, p_s, factors, logs) of a radial field w = r p(s): its strain
    p = w/r and p_s, the deformation factors [X, Y] = [1 + w_r, 1 + w/r]
    (J = X Y^(n-1)) and their logarithms, each pair one stacked array of
    shape (2,) + w.shape, of one field (m,) or of a stack (T, 1, m) of them.
    ``check`` raises at the first node where X, else Y, is not positive;
    without it the logarithms read NaN there."""
    strain = np.empty((2,) + w.shape)     # [w_r, p]
    p, p_s, _ = grid.radial_strain(w, out=strain)
    factors = _ONE + strain
    # X <= 0 exactly when w_r <= -1, and Y when p <= -1 (1 + x is exact
    # for x near -1), so one minimum checks both; a NaN takes the two
    # minima of each factor, which pass it
    if check and not np.minimum.reduce(strain, axis=None) > -1.0:
        x = factors[0]
        if x.min() <= 0.0 or p.min() <= -1.0:
            failed_x = x <= 0.0
            factor, failed = ("1 + w_r", failed_x) if failed_x.any() else ("1 + w/r", p <= -1.0)
            raise RadialInvariantError(np.nan if t is None else t, int(np.argmax(failed)), factor)
    return p, p_s, factors, np.log1p(strain)


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
        self._kappa = np.array(p.kappa)
        sigma = p.sigma(grid.r)
        # the powers [p1, p2] of X and [q1, q2] of Y, shaped to broadcast
        # against log X and log Y of one field (m,) and of a stack (T, 1, m),
        # keyed by the ndim of the stacked logarithms
        self._powers = {ndim: (np.reshape([self._p1, self._p2], shape),
                               np.reshape([self._q1, self._q2], shape))
                        for ndim, shape in ((2, (2, 1)), (4, (2, 1, 1, 1)))}
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

    def _exponents(self, logs: np.ndarray) -> np.ndarray:
        """[log(1 + alpha), log(1 + beta)] from the stacked [log X, log Y]
        of :func:`deformation`: alpha = X^p1 Y^q1 - 1, beta = X^p2 Y^q2 - 1,
        each row p log X + q log Y as two products and a sum."""
        powers_x, powers_y = self._powers[logs.ndim]
        return powers_x * logs[0] + powers_y * logs[1]

    def pressure(self, w: np.ndarray, t: float | None = None) -> np.ndarray:
        """N(w): sigma^(-iota)-scaled radial pressure divergence (odd field),
        of one field (m,) or of a stack (T, 1, m) of them."""
        _, dp, factors, logs = deformation(self.grid, w, t)
        exponents = self._exponents(logs)
        alpha = np.expm1(exponents[0])
        one_plus_beta = np.exp(exponents[1])
        # (alpha - beta)/r = -(1+beta) * (2r/R0^2) p'(s) / X, exactly
        return (self._alpha_coef * alpha + self._alpha_slope_coef * (alpha @ self.grid.d_s_t)
                + self._tangential_coef * one_plus_beta * dp / factors[0])

    def stiffness(self, w: np.ndarray, t: float | None = None) -> np.ndarray:
        """K(w) = kappa w + N(w)."""
        return self._kappa * w + self.pressure(w, t)

    def _prologue(self, w):
        """The w-dependent factors of K' and K'' at w: the strain slope
        p'(s), X, Y, 1 + alpha, 1 + beta and the slope p'(s)/X."""
        _, dp, (x, y), logs = deformation(self.grid, w)
        one_plus_alpha, one_plus_beta = np.exp(self._exponents(logs))
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
                + self._alpha_slope_coef * (d_alpha @ self.grid.d_s_t)
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

    # -- time-dependent coefficients ---------------------------------------
    def damping(self, t: float) -> float:
        """d at t."""
        return self.path.stage_coefficients(t)[0]

    def wave_coefficient(self, t: float) -> float:
        """c at t."""
        return self.path.stage_coefficients(t)[1]

    # -- dynamics ----------------------------------------------------------
    def rhs(self, t: float, state: np.ndarray) -> np.ndarray:
        """(w_t, u_tt) of the state (w, w_t), written into one new array."""
        m = state.size // 2
        out = np.empty_like(state)
        out[:m] = w_t = state[m:]
        self.acceleration(t, state[:m], w_t, out=out[m:])
        return out

    def acceleration(self, t: float, w: np.ndarray, w_t: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
        """u_tt = -d w_t - c K(w), into ``out`` when one is given."""
        out = np.multiply(-self.damping(t), w_t, out=out)
        return np.subtract(out, self.wave_coefficient(t) * self.stiffness(w, t), out=out)

    def time_derivatives(self, t, w: np.ndarray, w_t: np.ndarray) -> dict[int, np.ndarray]:
        """Nodal arrays of partial_t^m w for m <= 4 from the chain of
        :meth:`TimeCoefficients.derivatives`, with K' and K'' at w: of one
        output, or of a stack of outputs, t of shape (T, 1, 1) and w, w_t of
        shape (T, 1, m)."""
        k0 = self.stiffness(w, t)
        at = self._prologue(w)          # shared by K' and K'' in every direction
        along_wt = self._variation(at, w_t)
        return self.path.coefficients(t).derivatives(
            w, w_t, k0, self._first(w_t, along_wt), self._second(along_wt),
            lambda v: self._first(v, self._variation(at, v)))

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
            wave = CFL_SAFETY * 2.8 / math.sqrt(self.wave_coefficient(t) * rho)
            damp = 2.5 / self.damping(t)
            return float(min(wave, damp))

        return cap


@dataclass
class Reconstruction(OutputStack):
    """Physical-space fields reconstructed from a radial state, or from a
    stack of them."""

    t: float
    radii: np.ndarray          # x(t, y) along a ray, per node
    density: np.ndarray
    velocity: np.ndarray
    boundary_radius: float


@dataclass
class RadialTrajectory:
    grid: WeightedGrid
    times: np.ndarray
    states: RadialState                      # the stack of every output
    energies: dict[str, np.ndarray] | None   # the columns of energies.csv
    reconstructions: Reconstruction | None   # the stack of the checked outputs
    stats: IntegrationStats
    status: str = "completed"
    failure: dict | None = None

    def sup_norms(self) -> np.ndarray:
        return np.max(np.abs(self.states.w), axis=(1, 2))


def output_schedule(t_end: float,
                    per_decade: int = SolverConfig.outputs_per_decade) -> np.ndarray:
    """t = 0, then ``per_decade`` log-spaced times per decade from 0.1 to
    ``t_end`` (at least 8)."""
    if t_end <= 0.1:
        return np.array([0.0, t_end])
    decades = np.log10(t_end / 0.1)
    count = max(int(decades * per_decade), 8)
    return np.concatenate([[0.0], np.geomspace(0.1, t_end, count)])


def reconstruct_physical(operator: RadialOperator, state: RadialState) -> Reconstruction:
    """x = theta (y + omega), density = rho0 J^-1 theta^-n,
    velocity = theta_t (y + omega) + theta omega_t, at the grid nodes, of one
    output or of a stack of outputs (:class:`RadialState`); theta is formed
    per output (:func:`per_output`)."""
    g = operator.grid
    path = operator.path
    p = operator.params

    def scalars(t):
        th = float(path.theta_at(t))
        return th, float(path.theta_t_at(t)), th ** (-p.n)

    th, th_t, th_n = per_output(state.t, scalars)
    pvals, _, (x_fac, y_fac), _ = deformation(g, state.w, state.t)
    jac = x_fac * y_fac ** (p.n - 1.0)
    density = p.rho0(g.r) / jac * th_n
    radii = th * (g.r + state.w)
    velocity = th_t * (g.r + state.w) + th * state.w_t
    # boundary: extrapolate the s-polynomial w/r to s = 1
    w_edge = np.reshape(pvals @ operator._edge.T, np.shape(th)) * p.R0
    return Reconstruction(
        t=state.t, radii=radii, density=density, velocity=velocity,
        boundary_radius=th * (p.R0 + w_edge),
    )


def reconstructed_mass(grid: WeightedGrid, path: CorrectionPath, recon: Reconstruction):
    """Physical mass from the reconstructed density and volume element: of
    one reconstruction, or a (T, 1) array for a stack of them (t of shape
    (T, 1, 1), radii and density of shape (T, 1, m))."""
    p = grid.params

    def scalars(t):
        th = float(path.theta_at(t))
        return th, th ** p.n

    th, th_n = per_output(recon.t, scalars)
    state_w = recon.radii / th - grid.r
    _, _, (x_fac, y_fac), _ = deformation(grid, state_w)
    jac = x_fac * y_fac ** (p.n - 1.0)
    smooth = recon.density * th_n * jac / p.sigma(grid.r) ** p.iota
    rule = grid.rule(p.iota)
    return grid.integrate_ball(p.iota, grid.to_rule(rule, smooth))


def evolve(grid: WeightedGrid, path: CorrectionPath, initial: RadialState,
           t_end: float, output_times=None, rel_tol: float = SolverConfig.rel_tol,
           abs_tol: float = SolverConfig.abs_tol, stepper: str = SolverConfig.stepper,
           fixed_dt: float | None = None,
           collect_energies: bool = True,
           collect_reconstructions: bool = True) -> RadialTrajectory:
    """Integrate the radial system and record states, energies, and
    physical reconstructions at the output times.

    Each output's state is written into the stack of states, and its
    deformation invariant checked when energies or reconstructions are
    collected, as the stepper reaches it.  After the stepper, energies and
    reconstructions of the checked outputs come from one stacked pass per
    block of outputs (:func:`vaclab.energy.output_blocks`) of the stack.
    On an invariant violation the trajectory is truncated and returned
    with ``status='failed'`` and failure metadata, never dropped; the
    state at which a run failed is kept without energies or reconstruction.
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

    states = RadialState(np.empty((len(output_times), 1, 1)),
                         *np.empty((2, len(output_times), 1, n)))
    checked = collect_energies or collect_reconstructions
    recorded = passed = 0    # outputs recorded, and those whose invariant check passed

    def on_output(t, y):
        nonlocal recorded, passed
        states[recorded] = RadialState(t, y[:n], y[n:])
        recorded += 1
        if checked:
            deformation(grid, y[:n], t)
            passed = recorded

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

    states = states[:recorded]
    recons = None
    if collect_reconstructions:
        recons = Reconstruction(*(np.empty((passed, 1, size)) for size in (1, n, n, n, 1)))
        for block in output_blocks(passed, n):
            recons[block] = reconstruct_physical(op, states[block])
    energies = energy_columns(RadialEnergies(grid), states[:passed], lambda stack: (
        op.time_derivatives(stack.t, stack.w, stack.w_t))) if collect_energies else None
    return RadialTrajectory(
        grid=grid, times=states.t.ravel(), states=states, energies=energies,
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
