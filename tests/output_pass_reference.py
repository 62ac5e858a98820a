"""The per-output evaluation of a run as it stood before the stacked pass.

``vaclab.radial.evolve`` once reconstructed each output and evaluated its
time derivatives and 16 energy components inside the stepper's output
callback, one output at a time; ``vaclab.diagnostics.gap_series`` looped
over the outputs the same way, and the planar mode energies rebuilt the
amplitudes of a potential pair for every norm they returned.  The program
now keeps the outputs of a run as one stack and evaluates a block of them
in one stacked pass.  This module keeps the per-output functions of that
time, products ``d_s @ f`` on one field included, so the tests can require
the stacked pass to equal them bit for bit; they walk a trajectory's stack
one output at a time (:func:`radial_outputs`, :func:`mode_outputs`).  The
scalar time coefficients, ``TimeCoefficients.derivatives`` and the closed
forms of ``derivnorms`` did not change and are read from the program.
"""
import dataclasses

import numpy as np

from vaclab.derivnorms import SUPPORTED_FORMS, radial_form
from vaclab.energy import energy_indices
from vaclab.quadrature import unit_sphere_area
from vaclab.angular import PlanarModeState
from vaclab.radial import RadialInvariantError, RadialState, Reconstruction

_SCALARS_BY_ORDER = (("v",), ("v", "u", "vp"), ("v", "up", "vp", "vpp"),
                     ("up", "upp", "vp", "vpp"))
_TIMES_R = {"v": "w", "vp": "vp", "up": "up"}


# -- radial fields -------------------------------------------------------------

def radial_outputs(states):
    """The outputs of a stack of radial states, one state each."""
    return [RadialState(float(t), w, w_t)
            for t, w, w_t in zip(states.t.ravel(), states.w[:, 0], states.w_t[:, 0])]


def radial_strain(grid, w):
    p = w / grid.r
    p_s = grid.d_s @ p if p.ndim == 1 else p @ grid.d_s.T
    return p, p_s, p + grid._two_s * p_s


def deformation(grid, w, t=None, check=True):
    p, p_s, u = radial_strain(grid, w)
    x = 1.0 + u
    if check and (x.min() <= 0.0 or p.min() <= -1.0):
        failed_x = x <= 0.0
        factor, failed = ("1 + w_r", failed_x) if failed_x.any() else ("1 + w/r", p <= -1.0)
        raise RadialInvariantError(np.nan if t is None else t, int(np.argmax(failed)), factor)
    return p, p_s, x, 1.0 + p, np.log1p(u), np.log1p(p)


def _pressure_variation(op, d_alpha, d_tangential):
    return (op._alpha_coef * d_alpha + op._alpha_slope_coef * (op.grid.d_s @ d_alpha)
            + op._tangential_coef * d_tangential)


def pressure(op, w, t=None):
    _, dp, x, _, la, lb = deformation(op.grid, w, t)
    alpha = np.expm1(op._p1 * la + op._q1 * lb)
    one_plus_beta = np.exp(op._p2 * la + op._q2 * lb)
    return (op._alpha_coef * alpha + op._alpha_slope_coef * (op.grid.d_s @ alpha)
            + op._tangential_coef * one_plus_beta * dp / x)


def _prologue(op, w):
    _, dp, x, y, la, lb = deformation(op.grid, w)
    one_plus_alpha = np.exp(op._p1 * la + op._q1 * lb)
    one_plus_beta = np.exp(op._p2 * la + op._q2 * lb)
    return dp, x, y, one_plus_alpha, one_plus_beta, dp / x


def _variation(op, at, delta):
    dp, x, y, one_plus_alpha, one_plus_beta, slope = at
    d_p, d_dp, d_u = radial_strain(op.grid, delta)
    rx, ry = d_u / x, d_p / y
    d_slope = d_dp / x - dp * d_u / x ** 2
    return (one_plus_alpha, one_plus_beta, slope, d_slope, rx, ry,
            op._p1 * rx + op._q1 * ry, op._p2 * rx + op._q2 * ry)


def _first(op, delta, variation):
    one_plus_alpha, one_plus_beta, slope, d_slope, _, _, lin_a, lin_b = variation
    d_beta = one_plus_beta * lin_b
    return op.params.kappa * delta + _pressure_variation(
        op, one_plus_alpha * lin_a, d_beta * slope + one_plus_beta * d_slope)


def _second(op, variation):
    one_plus_alpha, one_plus_beta, slope, d_slope, rx, ry, lin_a, lin_b = variation
    dd_alpha = one_plus_alpha * (lin_a ** 2 - op._p1 * rx ** 2 - op._q1 * ry ** 2)
    dd_beta = one_plus_beta * (lin_b ** 2 - op._p2 * rx ** 2 - op._q2 * ry ** 2)
    d_beta = one_plus_beta * lin_b
    dd_slope = -2.0 * rx * d_slope
    return _pressure_variation(
        op, dd_alpha, dd_beta * slope + 2.0 * d_beta * d_slope + one_plus_beta * dd_slope)


def time_derivatives(op, t, w, w_t):
    """``RadialOperator.time_derivatives`` of one output."""
    k0 = op.params.kappa * w + pressure(op, w, t)
    at = _prologue(op, w)
    along_wt = _variation(op, at, w_t)
    return op.path.coefficients(t).derivatives(
        w, w_t, k0, _first(op, w_t, along_wt), _second(op, along_wt),
        lambda v: _first(op, v, _variation(op, at, v)))


def _component(time_derivs, m, t, params, norm):
    weight = (1.0 + t) ** (2 * m + (0 if m == 0 else 1) * params.kappa)
    top = (1.0 + t) ** (1.0 + params.lam) * norm(m + 1, 0)
    return weight * (top + norm(m, 0) + norm(m, 1))


def _radial_scalars(grid, stack):
    scale = 2.0 / grid.params.R0 ** 2
    v, p1, su = radial_strain(grid, stack)
    g_vp = scale * p1
    g_up = scale * (su @ grid.d_s.T)
    slopes = np.concatenate([g_vp, g_up]) @ grid.d_s.T
    k = len(stack)
    return {"v": v, "u": su, "vp": g_vp, "up": g_up,
            "vpp": g_vp + grid._two_s * slopes[:k], "upp": g_up + grid._two_s * slopes[k:]}


def radial_energy_row(grid, time_derivs, t):
    """The 16 radial components of one output, by the single-output pass."""
    params = grid.params
    orders = sorted(time_derivs)
    scalars = _radial_scalars(grid, np.array([time_derivs[k] for k in orders], dtype=float))
    norms = {}
    for i, names in enumerate(_SCALARS_BY_ORDER):
        rule = grid.rule(params.iota + i)
        sampled = (np.concatenate([scalars[name] for name in names]) @ rule.resample.T
                   ).reshape(len(names), len(orders), -1)
        vals = dict(zip(names, sampled), r=rule.r)
        vals.update({_TIMES_R[name]: vals[name] * rule.r
                     for name in names if name in _TIMES_R})
        for form in (form for form in SUPPORTED_FORMS if form[0] == i):
            norms[form] = (unit_sphere_area(params.n)
                           * (radial_form(*form, params.n, vals) @ rule.weights)).tolist()
    rows = {k: row for row, k in enumerate(orders)}
    return {(m, i, j): _component(time_derivs, m, t, params,
                                  lambda k, di: norms[i + di, j][rows[k]])
            for (m, i, j) in energy_indices()}


def reconstruct_physical(op, state):
    g, path, p = op.grid, op.path, op.params
    th = float(path.theta_at(state.t))
    th_t = float(path.theta_t_at(state.t))
    pvals, _, x_fac, y_fac, _, _ = deformation(g, state.w, state.t)
    jac = x_fac * y_fac ** (p.n - 1.0)
    density = p.rho0(g.r) / jac * th ** (-p.n)
    radii = th * (g.r + state.w)
    velocity = th_t * (g.r + state.w) + th * state.w_t
    w_edge = float((op._edge @ pvals)[0] * p.R0)
    return Reconstruction(t=state.t, radii=radii, density=density, velocity=velocity,
                          boundary_radius=th * (p.R0 + w_edge))


def reconstructed_mass(grid, path, recon):
    p = grid.params
    th = float(path.theta_at(recon.t))
    state_w = recon.radii / th - grid.r
    _, _, x_fac, y_fac, _, _ = deformation(grid, state_w)
    jac = x_fac * y_fac ** (p.n - 1.0)
    smooth = recon.density * th ** p.n * jac / p.sigma(grid.r) ** p.iota
    rule = grid.rule(p.iota)
    return unit_sphere_area(p.n) * float(rule.weights @ (rule.resample @ smooth))


def evaluate_outputs(op, states, collect_energies=True, collect_reconstructions=True):
    """(reconstructions, energy rows) of the outputs of a stack of states in
    order, each evaluated alone, up to the first whose invariant fails."""
    recons, rows = [], []
    for state in radial_outputs(states):
        try:
            if collect_reconstructions:
                recons.append(reconstruct_physical(op, state))
            if collect_energies:
                rows.append(radial_energy_row(
                    op.grid, time_derivatives(op, state.t, state.w, state.w_t), state.t))
        except RadialInvariantError:
            break
    return recons, rows


def energy_columns(times, rows):
    columns = {"E_{}_{}_{}".format(*idx): np.array([row[idx] for row in rows])
               for idx in rows[0]}
    return {"t": np.array(times), **columns,
            "E_total": np.sum(list(columns.values()), axis=0)}


def gap_series(trajectory, path, params):
    """``vaclab.diagnostics.gap_series``, one output at a time."""
    n = params.n
    grid = trajectory.grid
    r = grid.r
    recons = trajectory.reconstructions
    rows = []
    for k, state in enumerate(radial_outputs(trajectory.states)):
        t = state.t
        h = float(path.h_at(t))
        h_t = float(path.h_t_at(t))
        nu = params.nu(t)
        theta, theta_t = nu + h, params.nu_t(t) + h_t
        _, _, _, _, log_x, log_y = deformation(grid, state.w, check=False)
        log_j = log_x + (n - 1.0) * log_y
        recon = recons[k] if k < len(recons) else None
        rows.append((
            t,
            float(np.max(np.abs(state.w))),
            float(np.max(np.abs(h * r + theta * state.w))),
            float(np.max(np.abs(nu ** (-n) * np.expm1(-n * np.log1p(h / nu) - log_j)))),
            float(np.max(np.abs(h_t * r + theta_t * state.w + theta * state.w_t))),
            recon.boundary_radius if recon else float("nan"),
            abs(reconstructed_mass(grid, path, recon) - params.mass) / params.mass
            if recon else float("nan"),
        ))
    names = ("t", "sup_w", "position_gap", "density_gap", "velocity_gap",
             "boundary_radius", "mass_rel_err")
    return dict(zip(names, np.array(rows).reshape(-1, len(names)).T))


def with_reconstructions(trajectory, recons):
    return dataclasses.replace(trajectory, reconstructions=recons)


# -- planar modes --------------------------------------------------------------

def mode_outputs(states):
    """The outputs of a stack of planar mode states, one state each."""
    return [PlanarModeState(float(t), states.mode, *profiles) for t, *profiles in zip(
        states.t.ravel(), states.pf, states.pg, states.pf_t, states.pg_t)]


def force_potential(op, pf, pg):
    g, p, ell = op.grid, op.params, op.mode
    pf1 = g.d_s @ pf
    pf2 = g.d_s @ pf1
    radial_stretch = ell * pf + 2.0 * g.s * pf1 - ell * pg
    laplace_f = (4.0 / p.R0 ** 2) * ((ell + 1.0) * pf1 + g.s * pf2)
    return p.kappa * radial_stretch - p.gamma * p.A_bar * (1.0 - g.s) * laplace_f


def mode_time_derivatives(op, t, state):
    def force(u):
        q = force_potential(op, u[0], u[1])
        return np.array([q, np.zeros_like(q)])

    u = np.array([state.pf, state.pg])
    u_t = np.array([state.pf_t, state.pg_t])
    return op.path.coefficients(t).derivatives(u, u_t, force(u), force(u_t), 0.0, force)


def _amplitudes(grid, ell, pf, pg, rule):
    pf1 = grid.d_s @ pf
    pg1 = grid.d_s @ pg
    q_minus = ell * (pf - pg) + grid.s * (pf1 - pg1)
    q_plus = grid.s * (pf1 + pg1)
    out = []
    for q in (q_minus, q_plus):
        q1 = grid.d_s @ q
        amp = (rule.resample @ q) * rule.r ** (ell - 1)
        damp = (rule.resample @ ((ell - 1.0) * q + 2.0 * grid.s * q1)) * rule.r ** (ell - 2)
        out.append((amp, damp))
    return out


def spatial_norm(grid, ell, potentials, i, j, exponent):
    """``ModeEnergies.spatial_norm``, building the amplitudes for each norm."""
    rule = grid.rule(exponent)
    pf, pg = potentials
    amps = _amplitudes(grid, ell, np.asarray(pf, float), np.asarray(pg, float), rule)
    total = np.zeros_like(rule.r)
    for (amp, damp), m_h in zip(amps, (ell - 1, ell + 1)):
        angular = float(m_h) ** (2 * j) if (m_h or j == 0) else 0.0
        if angular == 0.0:
            continue
        if i == 0:
            total += angular * amp ** 2
        else:
            total += angular * (damp ** 2 + m_h ** 2 * amp ** 2 / rule.r ** 2)
    return 2.0 * np.pi * float(rule.weights @ total)


def mode_energy_columns(op, states):
    """energies.csv of a stack of planar mode states, one output and one norm
    at a time."""
    grid, params = op.grid, op.params
    rows = []
    for state in mode_outputs(states):
        derivs = mode_time_derivatives(op, state.t, state)
        rows.append({(m, i, j): _component(
            derivs, m, state.t, params,
            lambda k, di: spatial_norm(grid, op.mode, derivs[k], di, j, params.iota + di))
            for (m, i, j) in energy_indices() if i == 0})
    return energy_columns(states.t.ravel(), rows)
