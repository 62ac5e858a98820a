"""Linearized angular modes: curl envelope, energies, and norm oracles."""
import numpy as np
import pytest

from vaclab.angular import (PlanarModeOperator, PlanarModeState,
                            ToroidalModeOperator, ToroidalModeState,
                            curl_decay_fit, curl_envelope, default_planar_state,
                            evolve_mode)
from vaclab.correction import solve_correction
from vaclab.params import derive_constants
from vaclab.weighted import WeightedGrid


@pytest.fixture(scope="module")
def setup2():
    p = derive_constants(2, 0.0, 2.0, 1.0)
    path = solve_correction(p, 100.0)
    return p, path, WeightedGrid(p, 32)


def test_zero_mode_stays_zero(setup2):
    _, path, g = setup2
    st = PlanarModeState(t=0.0, mode=2, pf=np.zeros(32), pg=np.zeros(32),
                         pf_t=np.zeros(32), pg_t=np.zeros(32))
    traj = evolve_mode(g, path, st, 10.0, collect_energies=False,
                       normalize_curl=False)
    assert all(np.max(np.abs(s.pf)) == 0.0 for s in traj.states)
    assert np.max(traj.curl_norms) == 0.0


def test_curl_free_mode_keeps_zero_curl(setup2):
    _, path, g = setup2
    st = default_planar_state(g, 2, curl_free=True)
    traj = evolve_mode(g, path, st, 20.0, collect_energies=False)
    assert np.max(traj.curl_norms) == 0.0
    rep = curl_decay_fit(traj)
    assert rep.degenerate


def test_initial_envelope_ratio_is_one(setup2):
    _, path, g = setup2
    st = default_planar_state(g, 2)
    traj = evolve_mode(g, path, st, 5.0, collect_energies=False)
    assert traj.envelope[0] == pytest.approx(1.0, abs=0)
    assert traj.curl_norms[0] == pytest.approx(1.0, rel=1e-12)  # normalized
    assert traj.relative_deviation()[0] <= 1e-12


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_envelope_match_and_refinement(lam):
    p = derive_constants(2, lam, 2.0, 1.0)
    path = solve_correction(p, 100.0)
    g = WeightedGrid(p, 32)
    st = default_planar_state(g, 2)
    traj = evolve_mode(g, path, st, 20.0, collect_energies=False)
    rep = curl_decay_fit(traj)
    assert not rep.degenerate
    assert rep.max_relative_deviation <= 1e-3
    fine = curl_decay_fit(evolve_mode(g, path, st, 20.0, dt=traj.dt / 2.0,
                                      collect_energies=False))
    assert fine.max_relative_deviation <= 0.6 * rep.max_relative_deviation


def test_toroidal_mode_envelope():
    p = derive_constants(3, 0.0, 2.0, 1.0)
    path = solve_correction(p, 100.0)
    g = WeightedGrid(p, 32)
    st = ToroidalModeState(t=0.0, mode=2, p=np.zeros(32), p_t=1.0 - 0.5 * g.s)
    traj = evolve_mode(g, path, st, 20.0, collect_energies=False)
    rep = curl_decay_fit(traj)
    assert rep.max_relative_deviation <= 1e-3


@pytest.mark.parametrize("lam,gamma", [(0.0, 2.0), (0.5, 1.5)])
@pytest.mark.parametrize("mode", [1, 2, 3])
def test_planar_force_has_the_closed_form_spectrum(lam, gamma, mode):
    # the force on pf is triangular on the monomials s^k, k < m
    p = derive_constants(2, lam, gamma, 1.0)
    path = solve_correction(p, 1.0)
    m = 32
    op = PlanarModeOperator(WeightedGrid(p, m), path, mode)
    zero = np.zeros(m)
    matrix = np.column_stack([op.force_potential(e, zero) for e in np.eye(m)])
    eig = np.linalg.eigvals(matrix)
    assert np.max(np.abs(eig.imag)) <= 1e-11 * np.max(np.abs(eig.real))
    k = np.arange(m)
    exact = p.kappa * (mode + 2.0 * k) + 4.0 * p.gamma * p.B_bar * k * (k + mode)
    assert np.max(np.abs(np.sort(eig.real) - exact) / exact) <= 1e-11
    coeffs = path.coefficients(0.0)
    rho = np.max(eig.real)
    assert op.stable_step() == pytest.approx(
        0.5 * 2.8 / max(np.sqrt(coeffs.c[0] * rho), coeffs.d[0]), rel=1e-11)


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_mode_energies_bounded(setup2, mode):
    _, path, g = setup2
    traj = evolve_mode(g, path, default_planar_state(g, mode), 20.0)
    total = traj.energies["E_total"]
    assert np.all(total >= 0.0)
    assert np.max(total) / total[0] <= 10.0


def test_mode_energy_homogeneity_and_nonnegativity(setup2):
    _, path, g = setup2
    from vaclab.energy import ModeEnergies

    en = ModeEnergies(g, 2)
    rng = np.random.default_rng(0)
    derivs = {m: (rng.standard_normal(32) * 0.1, rng.standard_normal(32) * 0.1)
              for m in range(3)}
    for (m, i, j) in [(0, 0, 0), (0, 0, 1), (0, 0, 2), (1, 0, 1)]:
        base = en.component(derivs, m, i, j, 3.0)
        scaled = en.component({k: (2.0 * a, 2.0 * b) for k, (a, b) in derivs.items()},
                              m, i, j, 3.0)
        assert base >= 0.0
        assert scaled == pytest.approx(4.0 * base, rel=1e-12)


def test_mode_energy_rejects_unsupported_orders(setup2):
    _, path, g = setup2
    from vaclab.energy import ModeEnergies, UnsupportedOrderError

    en = ModeEnergies(g, 2)
    zeros = (np.zeros(32), np.zeros(32))
    with pytest.raises(UnsupportedOrderError):
        en.component({0: zeros, 1: zeros}, 0, 1, 0, 1.0)
    with pytest.raises(UnsupportedOrderError):
        en.spatial_norm(zeros, 0, 3, 1.0)


def _planar_mode_field_on_grid(grid_2d, params, mode, pf, pg, g_spec):
    """Evaluate omega from the mode potentials on a tensor grid (oracle)."""
    from vaclab.quadrature import resample_matrix

    xs, ys = grid_2d.meshgrid()
    r = np.sqrt(xs ** 2 + ys ** 2)
    phi = np.arctan2(ys, xs)
    s = np.clip((r / params.R0) ** 2, 0.0, 1.0)
    flat_s = s.ravel()
    interp = resample_matrix(g_spec.s, flat_s)
    pf_v = (interp @ pf).reshape(r.shape)
    pg_v = (interp @ pg).reshape(r.shape)
    pf1 = (interp @ (g_spec.d_s @ pf)).reshape(r.shape)
    pg1 = (interp @ (g_spec.d_s @ pg)).reshape(r.shape)
    ell = mode
    # polar amplitude profiles: omega_r = a cos(l phi), omega_phi = -b sin(l phi)
    a = r ** (ell - 1) * (ell * pf_v + 2.0 * s * pf1 - ell * pg_v)
    b = r ** (ell - 1) * (ell * pf_v - ell * pg_v - 2.0 * s * pg1)
    omega_x = a * np.cos(ell * phi) * np.cos(phi) + b * np.sin(ell * phi) * np.sin(phi)
    omega_y = a * np.cos(ell * phi) * np.sin(phi) - b * np.sin(ell * phi) * np.cos(phi)
    return np.stack([omega_x, omega_y], axis=-1)


def test_planar_curl_norm_against_tensor_grid_oracle(setup2):
    # the spectral curl-norm formula vs a brute-force curl on a 2D grid,
    # both restricted to the same disk window
    p, path, g = setup2
    from vaclab.kinematics import apply_d, box_grid

    op = PlanarModeOperator(g, path, 2)
    pg = (1.0 - 0.5 * g.s) * g.s          # rotational potential profile
    pf = np.zeros_like(pg)
    bgrid = box_grid(2, 0.92 * p.R0 / np.sqrt(2.0), 201)
    omega = _planar_mode_field_on_grid(bgrid, p, 2, pf, pg, g)
    curl = apply_d(bgrid, omega[..., 1], 0) - apply_d(bgrid, omega[..., 0], 1)
    xs, ys = bgrid.meshgrid()
    r = np.sqrt(xs ** 2 + ys ** 2)
    window = r <= 0.9 * bgrid.axes[0][-1]
    sigma = np.maximum(p.sigma(r), 0.0)
    cell = bgrid.spacing ** 2
    oracle = np.sum((sigma ** (p.iota + 1.0) * curl ** 2)[window]) * cell
    # same restricted integral from the radial profile formula, by a dense
    # trapezoid in r over the identical window
    q_c = op.curl_profile(pg)
    rr = np.linspace(0.0, 0.9 * bgrid.axes[0][-1], 4000)
    from vaclab.quadrature import resample_matrix

    q_on_rr = (resample_matrix(g.s, (rr / p.R0) ** 2) @ q_c) * rr ** 2
    integrand = p.sigma(rr) ** (p.iota + 1.0) * q_on_rr ** 2 * rr * np.pi
    profile_integral = np.trapezoid(integrand, rr)
    assert oracle == pytest.approx(profile_integral, rel=2e-3)


def test_toroidal_curl_norm_against_tensor_grid_oracle():
    # hand-derived toroidal curl closed form vs finite differences in 3D,
    # using the real degree-2 harmonic proportional to xz/r^2
    p = derive_constants(3, 0.0, 2.0, 1.0)
    path = solve_correction(p, 10.0)
    g = WeightedGrid(p, 32)
    op = ToroidalModeOperator(g, path, 2)
    from vaclab.kinematics import apply_d, box_grid
    from vaclab.quadrature import resample_matrix

    p_t = (1.0 - 0.4 * g.s)
    half = 0.9 * p.R0 / np.sqrt(3.0)
    bgrid = box_grid(3, half, 81)
    xs, ys, zs = bgrid.meshgrid()
    r2 = xs ** 2 + ys ** 2 + zs ** 2
    r2 = np.where(r2 > 0, r2, 1.0)
    r = np.sqrt(r2)
    norm_y = np.sqrt(15.0 / (4.0 * np.pi))
    y_h = norm_y * xs * zs / r2
    grad_y = np.stack([
        norm_y * (zs / r2 - 2.0 * xs ** 2 * zs / r2 ** 2),
        norm_y * (-2.0 * xs * ys * zs / r2 ** 2),
        norm_y * (xs / r2 - 2.0 * xs * zs ** 2 / r2 ** 2),
    ], axis=-1)
    chi = r ** 2 * (resample_matrix(g.s, np.clip((r.ravel() / p.R0) ** 2, 0, 1))
                    @ p_t).reshape(r.shape)
    position = np.stack([xs, ys, zs], axis=-1)
    omega_t = chi[..., None] * np.cross(position, grad_y)
    curl = np.stack([
        apply_d(bgrid, omega_t[..., 2], 1) - apply_d(bgrid, omega_t[..., 1], 2),
        apply_d(bgrid, omega_t[..., 0], 2) - apply_d(bgrid, omega_t[..., 2], 0),
        apply_d(bgrid, omega_t[..., 1], 0) - apply_d(bgrid, omega_t[..., 0], 1),
    ], axis=-1)
    window = r <= 0.85 * half
    sigma = np.maximum(p.sigma(r), 0.0)
    cell = bgrid.spacing ** 3
    oracle = np.sum((sigma ** (p.iota + 1.0)
                     * np.sum(curl ** 2, axis=-1))[window]) * cell
    # closed-form radial integrand restricted to the same ball
    ell = 2.0
    rr = np.linspace(1e-6, 0.85 * half, 4000)
    ss = (rr / p.R0) ** 2
    q = resample_matrix(g.s, ss) @ p_t
    q1 = resample_matrix(g.s, ss) @ (g.d_s @ p_t)
    stretch = (ell + 1.0) * q + 2.0 * ss * q1
    integrand = (p.sigma(rr) ** (p.iota + 1.0) * rr ** (2 * 2 - 2)
                 * (ell ** 2 * (ell + 1.0) ** 2 * q ** 2
                    + ell * (ell + 1.0) * stretch ** 2) * rr ** 2)
    closed = np.trapezoid(integrand, rr)
    assert oracle == pytest.approx(closed, rel=2e-3)


def test_mode_trajectory_csv(tmp_path, setup2):
    _, path, g = setup2
    traj = evolve_mode(g, path, default_planar_state(g, 2), 5.0,
                       num_outputs=10, collect_energies=False)
    out = tmp_path / "mode.csv"
    traj.write_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,curl_norm,envelope,rel_deviation"
    assert len(lines) == 12


def test_envelope_formula_shape(setup2):
    _, path, _ = setup2
    t = np.array([0.0, 1.0, 5.0])
    env = curl_envelope(path, t)
    assert env[0] == 1.0
    theta = path.theta_at(t[1:])
    manual = theta ** (-2.0) * np.exp(-((1.0 + t[1:]) ** 1.0 - 1.0) / 1.0)
    assert np.allclose(env[1:], manual, rtol=1e-14)


def test_mode_time_derivative_chain_matches_trajectory_differences(setup2):
    # orders 3 and 4 of the chain against differences of the accelerations
    # (order 2) along a finely stepped mode trajectory; early, where the
    # coefficient derivatives are largest (measured error 3e-4)
    _, path, g = setup2
    op = PlanarModeOperator(g, path, 2)
    t_probe, dt = 1.0, 0.01
    traj = evolve_mode(g, path, default_planar_state(g, 2), t_probe + dt,
                       num_outputs=101, dt=op.stable_step() / 8.0,
                       collect_energies=False)
    before, mid, after = traj.states[-3:]
    assert [s.t for s in (before, mid, after)] == pytest.approx(
        [t_probe - dt, t_probe, t_probe + dt], rel=1e-12)
    accs = [op.time_derivatives(s.t, s, order=2)[2] for s in (before, mid, after)]
    derivs = op.time_derivatives(mid.t, mid)
    for k in range(2):       # potentials f and g
        fd3 = (accs[2][k] - accs[0][k]) / (2.0 * dt)
        fd4 = (accs[2][k] - 2.0 * accs[1][k] + accs[0][k]) / dt ** 2
        assert np.max(np.abs(fd3 - derivs[3][k])) <= 1e-3 * np.max(np.abs(derivs[3][k]))
        assert np.max(np.abs(fd4 - derivs[4][k])) <= 1e-3 * np.max(np.abs(derivs[4][k]))
