"""Linearized single-mode angular dynamics and the curl-decay envelope.

Around the zero perturbation the mode dynamics closes on harmonic
potentials.  In the plane (n = 2) a mode-l field is

    omega = grad(f cos(l phi)) + perp_grad(g sin(l phi)),
    f = r^l pf(s),  g = r^l pg(s),  s = (r/R0)^2,

and the linearized force is the gradient of
(kappa r a - gamma sigma div) cos(l phi): the rotational potential g feels
no force, while g sources f through the kappa-term.  The curl of
partial_t omega therefore obeys the exact damped transport law

    curl w_t (t) / curl w_t (0) = theta(t)^-2 exp(-((1+t)^(1-lam)-1)/(1-lam))

pointwise; the solver must reproduce that envelope to time-integration
accuracy.  In 3D one toroidal vector harmonic omega = chi(r) (y x grad)Y_l
plays the same role (it feels no linearized force at all).

The collocation basis closes under the linearized operator (polynomial
degree is preserved), so the semi-discrete mode system is spatially exact
for polynomial potentials and the envelope deviation isolates the time
stepper.
"""
from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field

import numpy as np

from .correction import CorrectionPath
from .energy import EnergyReport, ModeEnergies
from .timestepping import IntegrationStats, integrate_fixed_rk4, power_iteration
from .weighted import WeightedGrid

logger = logging.getLogger(__name__)


def curl_envelope(path: CorrectionPath, t) -> np.ndarray:
    """Exact linear-order decay factor of curl of partial_t omega."""
    lam = path.params.lam
    t = np.asarray(t, dtype=float)
    theta = path.theta_at(t)
    return theta ** (-2.0) * np.exp(-((1.0 + t) ** (1.0 - lam) - 1.0) / (1.0 - lam))


@dataclass
class PlanarModeState:
    """Mode-l potentials and their time derivatives (values of p(s))."""

    t: float
    mode: int
    pf: np.ndarray
    pg: np.ndarray
    pf_t: np.ndarray
    pg_t: np.ndarray


@dataclass
class ToroidalModeState:
    """3D toroidal harmonic profile chi = r^l p(s) and its velocity."""

    t: float
    mode: int
    p: np.ndarray
    p_t: np.ndarray


class PlanarModeOperator:
    """Linearized mode dynamics for n = 2."""

    def __init__(self, grid: WeightedGrid, path: CorrectionPath, mode: int):
        if grid.params.n != 2:
            raise ValueError("planar mode solver requires n = 2")
        if mode < 1:
            raise ValueError("angular wavenumber must be >= 1")
        self.grid = grid
        self.path = path
        self.params = grid.params
        self.mode = int(mode)

    def force_potential(self, pf: np.ndarray, pg: np.ndarray) -> np.ndarray:
        """q_Phi with force = grad(r^l q_Phi cos(l phi)) on the mode."""
        g, p, ell = self.grid, self.params, self.mode
        pf1 = g.d_s @ pf
        pf2 = g.d_s @ pf1
        radial_stretch = ell * pf + 2.0 * g.s * pf1 - ell * pg      # (r a)/r^l
        laplace_f = (4.0 / p.R0 ** 2) * ((ell + 1.0) * pf1 + g.s * pf2)
        return p.kappa * radial_stretch - p.gamma * p.A_bar * (1.0 - g.s) * laplace_f

    def rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        m = y.size // 4
        pf, pg, pf_t, pg_t = y[:m], y[m:2 * m], y[2 * m:3 * m], y[3 * m:]
        coeffs = self.path.coefficients(t)
        d, c = coeffs.d[0], coeffs.c[0]
        acc_f = -d * pf_t - c * self.force_potential(pf, pg)
        acc_g = -d * pg_t
        return np.concatenate([pf_t, pg_t, acc_f, acc_g])

    def curl_profile(self, pg_like: np.ndarray) -> np.ndarray:
        """Scalar curl profile q_C with curl = r^l q_C(s) sin(l phi)."""
        g = self.grid
        q1 = g.d_s @ pg_like
        q2 = g.d_s @ q1
        return (4.0 / self.params.R0 ** 2) * ((self.mode + 1.0) * q1 + g.s * q2)

    def curl_norm(self, pg_t: np.ndarray) -> float:
        """|| sigma^((iota+1)/2) curl w_t ||_L2(Omega)."""
        g, p = self.grid, self.params
        rule = g.rule(p.iota + 1.0)
        q_c = g.to_rule(rule, self.curl_profile(pg_t))
        integrand = (rule.r ** self.mode * q_c) ** 2
        return float(np.sqrt(np.pi * g.integrate(p.iota + 1.0, integrand)))

    def time_derivatives(self, t: float, state: PlanarModeState,
                         order: int = 4) -> dict[int, tuple]:
        """Potential pairs (pf, pg) differentiated in time via the linear
        system and the solved theta coefficients."""
        p0 = (state.pf, state.pg)
        p1 = (state.pf_t, state.pg_t)
        derivs: dict[int, tuple] = {0: p0, 1: p1}
        if order < 2:
            return derivs

        def q_of(pair):
            return (self.force_potential(*pair), np.zeros_like(pair[1]))

        coeffs = self.path.coefficients(t)
        d0, d_p, d_pp = coeffs.d
        c0, c_p, c_pp = coeffs.c

        def axpy(*terms):
            out_f = sum(a * v[0] for a, v in terms)
            out_g = sum(a * v[1] for a, v in terms)
            return (out_f, out_g)

        q0, q1 = q_of(p0), q_of(p1)
        p2 = axpy((-d0, p1), (-c0, q0))
        derivs[2] = p2
        if order >= 3:
            derivs[3] = axpy((-d_p, p1), (-d0, p2), (-c_p, q0), (-c0, q1))
        if order >= 4:
            q2 = q_of(p2)
            derivs[4] = axpy((-d_pp, p1), (-2.0 * d_p, p2), (-d0, derivs[3]),
                             (-c_pp, q0), (-2.0 * c_p, q1), (-c0, q2))
        return derivs

    def stable_step(self, safety: float = 0.5, iterations: int = 60) -> float:
        m = self.grid.num_nodes
        zero = np.zeros(m)
        rho = power_iteration(lambda v: self.force_potential(v, zero), m,
                              iterations, seed=1)
        coeffs = self.path.coefficients(0.0)
        omega_max = np.sqrt(coeffs.c[0] * rho)
        return float(safety * 2.8 / max(omega_max, coeffs.d[0]))


class ToroidalModeOperator:
    """Linearized 3D toroidal harmonic: no spatial force at linear order."""

    def __init__(self, grid: WeightedGrid, path: CorrectionPath, mode: int):
        if grid.params.n != 3:
            raise ValueError("toroidal mode solver requires n = 3")
        if mode < 1:
            raise ValueError("angular degree must be >= 1")
        self.grid = grid
        self.path = path
        self.params = grid.params
        self.mode = int(mode)

    def rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        m = y.size // 2
        p, p_t = y[:m], y[m:]
        return np.concatenate([p_t, -self.path.coefficients(t).d[0] * p_t])

    def curl_norm(self, p_t: np.ndarray) -> float:
        """|| sigma^((iota+1)/2) curl w_t || for the toroidal field chi LY."""
        g, p = self.grid, self.params
        ell = float(self.mode)
        rule = g.rule(p.iota + 1.0)
        q = g.to_rule(rule, p_t)
        q1 = g.to_rule(rule, g.d_s @ p_t)
        stretch = (ell + 1.0) * q + 2.0 * rule.s * q1
        integrand = rule.r ** (2 * self.mode - 2) * (
            ell ** 2 * (ell + 1.0) ** 2 * q ** 2 + ell * (ell + 1.0) * stretch ** 2
        )
        return float(np.sqrt(g.integrate(p.iota + 1.0, integrand)))

    def stable_step(self, safety: float = 0.5) -> float:
        return float(safety * 2.8 / self.path.coefficients(0.0).d[0])


@dataclass
class ModeTrajectory:
    mode: int
    dimension: int
    times: np.ndarray
    curl_norms: np.ndarray
    envelope: np.ndarray
    states: list
    energies: EnergyReport | None
    stats: IntegrationStats
    dt: float
    status: str = "completed"

    def relative_deviation(self) -> np.ndarray:
        base = self.curl_norms[0]
        if base == 0.0:
            raise ZeroInitialCurlError("initial curl of partial_t omega vanishes")
        return np.abs(self.curl_norms / (base * self.envelope) - 1.0)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "curl_norm", "envelope", "rel_deviation"])
            base = self.curl_norms[0]
            for k, t in enumerate(self.times):
                dev = (abs(self.curl_norms[k] / (base * self.envelope[k]) - 1.0)
                       if base != 0.0 else float("nan"))
                writer.writerow([f"{v:.17g}" for v in
                                 (t, self.curl_norms[k], self.envelope[k], dev)])


class ZeroInitialCurlError(ValueError):
    """Envelope fit is undefined without initial curl."""


@dataclass(frozen=True)
class CurlEnvelopeReport:
    max_relative_deviation: float
    final_ratio: float
    degenerate: bool


def default_planar_state(grid: WeightedGrid, mode: int,
                         curl_free: bool = False) -> PlanarModeState:
    """Deterministic smooth initial mode data; the rotational velocity
    potential is normalized afterwards by the caller (unit curl norm)."""
    s = grid.s
    pf = 0.2 * (1.0 - 0.3 * s)
    pf_t = 0.1 * (1.0 - 0.5 * s)
    pg = np.zeros_like(s)
    pg_t = np.zeros_like(s) if curl_free else (1.0 - 0.5 * s)
    return PlanarModeState(t=0.0, mode=mode, pf=pf, pg=pg, pf_t=pf_t, pg_t=pg_t)


def evolve_mode(grid: WeightedGrid, path: CorrectionPath, state,
                t_end: float, num_outputs: int = 200, dt: float | None = None,
                collect_energies: bool = True,
                normalize_curl: bool = True) -> ModeTrajectory:
    """Fixed-step RK4 integration of a linearized mode, recording the
    weighted curl norm of partial_t omega against the exact envelope.

    A fixed step (default from a stability estimate) keeps the refinement
    study clean: halving dt must shrink the envelope deviation.
    """
    if path.t_end < t_end:
        raise ValueError("correction path does not cover the requested horizon")
    planar = isinstance(state, PlanarModeState)
    op = (PlanarModeOperator if planar else ToroidalModeOperator)(
        grid, path, state.mode)
    if dt is None:
        dt = op.stable_step()
    times = np.linspace(state.t, t_end, num_outputs + 1)

    if planar:
        pg_t = state.pg_t.copy()
        if normalize_curl and np.max(np.abs(pg_t)) > 0.0:
            pg_t = pg_t / op.curl_norm(pg_t)
        y0 = np.concatenate([state.pf, state.pg, state.pf_t, pg_t])
    else:
        p_t = state.p_t.copy()
        if normalize_curl and np.max(np.abs(p_t)) > 0.0:
            p_t = p_t / op.curl_norm(p_t)
        y0 = np.concatenate([state.p, p_t])

    m = grid.num_nodes
    states: list = []
    curls: list[float] = []
    indices = [(mm, 0, j) for total in range(3)
               for mm in range(total + 1) for j in (total - mm,)]
    indices += [(mm + 1, 0, j) for (mm, _, j) in indices if mm + j == 2]
    evaluator = ModeEnergies(grid, state.mode) if (collect_energies and planar) else None
    comp: dict[tuple, list] = {idx: [] for idx in indices}

    def on_output(t, y):
        if planar:
            snap = PlanarModeState(t=t, mode=state.mode, pf=y[:m].copy(),
                                   pg=y[m:2 * m].copy(), pf_t=y[2 * m:3 * m].copy(),
                                   pg_t=y[3 * m:].copy())
            curls.append(op.curl_norm(snap.pg_t))
        else:
            snap = ToroidalModeState(t=t, mode=state.mode, p=y[:m].copy(),
                                     p_t=y[m:].copy())
            curls.append(op.curl_norm(snap.p_t))
        states.append(snap)
        if evaluator is not None:
            derivs = op.time_derivatives(t, snap)
            for idx in comp:
                comp[idx].append(evaluator.component(derivs, *idx, t))

    result = integrate_fixed_rk4(op.rhs, state.t, y0, times, dt, on_output=on_output)
    energies = None
    if evaluator is not None:
        energies = EnergyReport(times=np.array(times),
                                components={k: np.array(v) for k, v in comp.items()},
                                indices=indices)
    return ModeTrajectory(
        mode=state.mode, dimension=grid.params.n, times=np.array(times),
        curl_norms=np.array(curls), envelope=curl_envelope(path, times),
        states=states, energies=energies, stats=result.stats, dt=float(dt),
    )


def curl_decay_fit(trajectory: ModeTrajectory) -> CurlEnvelopeReport:
    """Max relative deviation of the measured curl norm from the exact
    integrating-factor envelope; degenerate when the initial curl is zero."""
    base = trajectory.curl_norms[0]
    if base == 0.0:
        return CurlEnvelopeReport(max_relative_deviation=float("nan"),
                                  final_ratio=float("nan"), degenerate=True)
    dev = trajectory.relative_deviation()
    ratio = trajectory.curl_norms[-1] / (base * trajectory.envelope[-1])
    return CurlEnvelopeReport(max_relative_deviation=float(np.max(dev)),
                              final_ratio=float(ratio), degenerate=False)
