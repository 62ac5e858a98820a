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
stepper.  The planar energies read partial_t^k of the potentials from the
damped-wave chain the radial solver shares,
:meth:`vaclab.correction.TimeCoefficients.derivatives`.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, fields

import numpy as np

from .correction import CorrectionPath
from .energy import ModeEnergies, OutputStack, energy_columns
from .timestepping import IntegrationStats, integrate_fixed_rk4
from .weighted import WeightedGrid

logger = logging.getLogger(__name__)

STEP_SAFETY = 0.5   # fraction of the RK4 stability limit taken as the default step


def curl_envelope(path: CorrectionPath, t) -> np.ndarray:
    """Exact linear-order decay factor of curl of partial_t omega."""
    lam = path.params.lam
    t = np.asarray(t, dtype=float)
    theta = path.theta_at(t)
    return theta ** (-2.0) * np.exp(-((1.0 + t) ** (1.0 - lam) - 1.0) / (1.0 - lam))


@dataclass
class PlanarModeState(OutputStack):
    """Mode-l potentials and their time derivatives (values of p(s)), or a
    stack of outputs: t of shape (T, 1, 1) and each profile (T, m)."""

    t: float
    mode: int
    pf: np.ndarray
    pg: np.ndarray
    pf_t: np.ndarray
    pg_t: np.ndarray


@dataclass
class ToroidalModeState(OutputStack):
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
        pf1 = pf @ g.d_s_t
        pf2 = pf1 @ g.d_s_t
        radial_stretch = ell * pf + 2.0 * g.s * pf1 - ell * pg      # (r a)/r^l
        laplace_f = (4.0 / p.R0 ** 2) * ((ell + 1.0) * pf1 + g.s * pf2)
        return p.kappa * radial_stretch - p.gamma * p.A_bar * (1.0 - g.s) * laplace_f

    def rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        """(pf_t, pg_t, -d pf_t - c q_Phi, -d pg_t) of the state
        (pf, pg, pf_t, pg_t), written into one new array."""
        m = y.size // 4
        d, c = self.path.stage_coefficients(t)
        out = np.empty_like(y)
        out[:2 * m] = velocities = y[2 * m:]
        acc = np.multiply(-d, velocities, out=out[2 * m:])
        np.subtract(acc[:m], c * self.force_potential(y[:m], y[m:2 * m]), out=acc[:m])
        return out

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

    def _force(self, u: np.ndarray) -> np.ndarray:
        """The linear force on a (..., 2, m) stack of potentials [pf, pg]:
        g feels none."""
        q = self.force_potential(u[..., 0:1, :], u[..., 1:2, :])
        return np.concatenate([q, np.zeros_like(q)], axis=-2)

    def time_derivatives(self, t, state: PlanarModeState) -> dict[int, np.ndarray]:
        """(2, m) stacks [pf, pg] of partial_t^k, k <= 4, from the chain of
        :meth:`TimeCoefficients.derivatives` with the linear force
        (K' = K, K'' = 0); (T, 2, m) for a stack of outputs."""
        u = np.stack([state.pf, state.pg], axis=-2)
        u_t = np.stack([state.pf_t, state.pg_t], axis=-2)
        return self.path.coefficients(t).derivatives(
            u, u_t, self._force(u), self._force(u_t), 0.0, self._force)

    def stable_step(self) -> float:
        """RK4 step from the exact spectral radius of the force on pf.

        On a monomial pf = s^k (pg = 0) the force potential is
        (kappa (l+2k) + 4 gamma B_bar k(k+l)) s^k minus a multiple of
        s^(k-1) (A_bar = B_bar R0^2), so the operator is triangular on the
        monomials and its eigenvalues are those diagonal entries, k < m,
        largest at k = m-1."""
        p, ell, k = self.params, self.mode, self.grid.num_nodes - 1
        rho = p.kappa * (ell + 2.0 * k) + 4.0 * p.gamma * p.B_bar * k * (k + ell)
        coeffs = self.path.coefficients(0.0)
        omega_max = np.sqrt(coeffs.c[0] * rho)
        return float(STEP_SAFETY * 2.8 / max(omega_max, coeffs.d[0]))


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
        out = np.empty_like(y)
        out[:m] = p_t = y[m:]
        np.multiply(-self.path.stage_coefficients(t)[0], p_t, out=out[m:])
        return out

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

    def stable_step(self) -> float:
        return float(STEP_SAFETY * 2.8 / self.path.coefficients(0.0).d[0])


@dataclass
class ModeTrajectory:
    times: np.ndarray
    curl_norms: np.ndarray
    envelope: np.ndarray
    states: PlanarModeState | ToroidalModeState   # the stack of the outputs
    energies: dict[str, np.ndarray] | None   # t, E_m_i_j, E_total
    stats: IntegrationStats
    dt: float


@dataclass(frozen=True)
class CurlEnvelopeReport:
    max_relative_deviation: float
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
    kind = type(state)
    planar = isinstance(state, PlanarModeState)
    op = (PlanarModeOperator if planar else ToroidalModeOperator)(grid, path, state.mode)
    evaluator = ModeEnergies(grid, state.mode) if (collect_energies and planar) else None
    if dt is None:
        dt = op.stable_step()
    times = np.linspace(state.t, t_end, num_outputs + 1)

    # the profiles are packed in field order; the last is the velocity
    # whose curl is tracked
    profiles = [getattr(state, f.name) for f in fields(kind)[2:]]
    if normalize_curl and np.max(np.abs(profiles[-1])) > 0.0:
        profiles[-1] = profiles[-1] / op.curl_norm(profiles[-1])
    y0 = np.concatenate(profiles)

    states = kind(np.empty((len(times), 1, 1)), state.mode,
                  *np.empty((len(profiles), len(times), len(y0) // len(profiles))))
    curls: list[float] = []

    def on_output(t, y):
        parts = np.split(y, len(profiles))
        states[len(curls)] = kind(t, state.mode, *parts)
        curls.append(op.curl_norm(parts[-1]))

    result = integrate_fixed_rk4(op.rhs, state.t, y0, times, dt, on_output=on_output)
    return ModeTrajectory(
        times=np.array(times), curl_norms=np.array(curls),
        envelope=curl_envelope(path, times), states=states,
        energies=energy_columns(evaluator, states, lambda stack: op.time_derivatives(
            stack.t, stack)) if evaluator is not None else None,
        stats=result.stats, dt=float(dt),
    )


def curl_decay_fit(trajectory: ModeTrajectory) -> CurlEnvelopeReport:
    """Max relative deviation of the measured curl norm from the exact
    integrating-factor envelope; degenerate when the initial curl is zero."""
    curls = trajectory.curl_norms
    if curls[0] == 0.0:
        return CurlEnvelopeReport(max_relative_deviation=float("nan"), degenerate=True)
    deviation = np.abs(curls / (curls[0] * trajectory.envelope) - 1.0)
    return CurlEnvelopeReport(max_relative_deviation=float(np.max(deviation)), degenerate=False)
