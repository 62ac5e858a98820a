"""Nonlinear radial solver: operator, oracles, evolution, reconstruction."""
import numpy as np
import pytest

from vaclab.correction import solve_correction
from vaclab.diagnostics import gap_series
from vaclab.params import derive_constants
from vaclab.quadrature import resample_matrix
from vaclab.radial import (RadialOperator, RadialState, evolve,
                           radial_oracle_check, reconstruct_physical,
                           reconstructed_mass, seed_profile)
from vaclab.weighted import WeightedGrid


@pytest.fixture(scope="module")
def setup():
    p = derive_constants(3, 0.0, 2.0, 1.0)
    path = solve_correction(p, 2e3)
    g = WeightedGrid(p, 48)
    return p, path, g, RadialOperator(g, path)


def test_zero_perturbation_is_exact_equilibrium(setup):
    _, _, g, op = setup
    state = np.zeros(2 * g.num_nodes)
    assert np.max(np.abs(op.rhs(0.0, state))) == 0.0
    assert np.max(np.abs(op.rhs(123.4, state))) == 0.0


def test_linearization_richardson_in_amplitude(setup):
    _, _, g, op = setup
    phi = seed_profile("parabolic", 1.0, g)
    eps = 1e-3

    def k_of(scale):
        return op.stiffness(scale * phi)

    lead = k_of(eps) - 2.0 * k_of(eps / 2)
    next_ = k_of(eps / 2) - 2.0 * k_of(eps / 4)
    ratio = np.max(np.abs(lead)) / np.max(np.abs(next_))
    assert ratio == pytest.approx(4.0, rel=0.1)


def test_directional_derivatives_match_finite_differences(setup):
    _, _, g, op = setup
    w = seed_profile("quartic", 0.05, g)
    delta = seed_profile("parabolic", 1.0, g)
    fd1 = (op.stiffness(w + 1e-6 * delta) - op.stiffness(w - 1e-6 * delta)) / 2e-6
    lin = op.stiffness_linearized(w, delta)
    assert np.max(np.abs(fd1 - lin)) <= 1e-6 * np.max(np.abs(lin))
    step = 1e-4
    fd2 = (op.stiffness(w + step * delta) - 2.0 * op.stiffness(w)
           + op.stiffness(w - step * delta)) / step ** 2
    sec = op.stiffness_second(w, delta)
    assert np.max(np.abs(fd2 - sec)) <= 1e-4 * np.max(np.abs(sec))


def test_pressure_pushes_compression_outward(setup):
    # uniform compression w = -eps r: the pressure term must be negative
    # (restoring) at every node, so the acceleration is positive
    _, _, g, op = setup
    w = -1e-2 * g.r
    pressure = op.pressure(w)
    assert np.all(pressure < 0.0)
    acc = op.acceleration(0.0, w, np.zeros_like(w))
    assert np.all(acc > 0.0)
    # record the scale for regression visibility
    assert np.max(acc) == pytest.approx(np.max(-op.wave_coefficient(0.0)[0]
                                               * (op.params.kappa * w + pressure)),
                                        rel=1e-12)


def test_radial_reduction_matches_cartesian_divergence(setup):
    _, _, g, _ = setup
    coarse = radial_oracle_check(g, num_samples=2, box_points=41, seed=0)
    fine = radial_oracle_check(g, num_samples=2, box_points=81, seed=0)
    assert fine <= 2e-4
    assert coarse / fine > 4.0       # at least the interior stencil order
    p2 = derive_constants(2, 0.0, 2.0, 1.0)
    g2 = WeightedGrid(p2, 48)
    assert radial_oracle_check(g2, num_samples=2, box_points=81, seed=1) <= 2e-4


def test_radial_reduction_affine_case():
    # w = c r: deformation matrices are constant, both routes agree to the
    # (polynomial-exact) stencil round-off
    from vaclab.kinematics import apply_d, box_grid, build_deformation, radial_vector_field

    p = derive_constants(3, 0.0, 2.0, 1.0)
    g = WeightedGrid(p, 32)
    op = RadialOperator(g)
    c = 0.02
    w_nodes = c * g.r
    n_vals = op.pressure(w_nodes) * p.sigma(g.r) ** p.iota
    bgrid = box_grid(3, 0.5 * p.R0, 33)
    omega = radial_vector_field(bgrid, lambda r: c * r)
    fld = build_deformation(bgrid, omega)
    sigma = p.A_bar - p.B_bar * bgrid.radius() ** 2
    jfac = fld.jacobian ** (1.0 - p.gamma)
    axis = bgrid.axes[0]
    ray = axis[(axis > 0.15 * p.R0) & (axis < 0.4 * p.R0)]
    cart = np.zeros(bgrid.shape)
    for k in range(3):
        g_k0 = sigma ** (p.iota + 1.0) * (fld.inverse_matrix[..., k, 0] * jfac
                                          - (1.0 if k == 0 else 0.0))
        cart += apply_d(bgrid, g_k0, k)
    center = (bgrid.shape[1] // 2, bgrid.shape[2] // 2)
    idx = np.searchsorted(axis, ray)
    cart_vals = np.array([cart[(i,) + center] for i in idx])
    interp = resample_matrix(g.s, (ray / p.R0) ** 2)
    radial_vals = (interp @ (n_vals / g.r)) * ray
    assert np.max(np.abs(cart_vals - radial_vals)) <= 1e-12


def test_oracle_zero_profile_zero_discrepancy(setup):
    _, _, g, op = setup
    assert np.max(np.abs(op.pressure(np.zeros_like(g.r)))) == 0.0


def test_time_derivative_chain_matches_trajectory_differences(setup):
    p, path, g, op = setup
    w0 = seed_profile("quartic", 1e-3, g)
    t_probe, dt = 5.0, 0.05
    outs = [t_probe - dt, t_probe, t_probe + dt]
    traj = evolve(g, path, RadialState(0.0, w0, np.zeros_like(w0)), outs[-1],
                  output_times=outs, rel_tol=1e-10, abs_tol=1e-14,
                  collect_energies=False, collect_reconstructions=False)
    states = {round(s.t, 6): s for s in traj.states}
    accs = {t: op.acceleration(t, states[round(t, 6)].w, states[round(t, 6)].w_t)
            for t in outs}
    mid = states[round(t_probe, 6)]
    derivs = op.time_derivatives(t_probe, mid.w, mid.w_t)
    fd3 = (accs[outs[2]] - accs[outs[0]]) / (2.0 * dt)
    scale = np.max(np.abs(derivs[3]))
    assert np.max(np.abs(fd3 - derivs[3])) <= 2e-3 * scale
    fd4 = (accs[outs[2]] - 2.0 * accs[outs[1]] + accs[outs[0]]) / dt ** 2
    scale4 = np.max(np.abs(derivs[4]))
    assert np.max(np.abs(fd4 - derivs[4])) <= 2e-2 * scale4


def test_zero_run_preservation(setup):
    _, path, g, _ = setup
    zeros = np.zeros(g.num_nodes)
    traj = evolve(g, path, RadialState(0.0, zeros, zeros), 1e3,
                  collect_energies=False, collect_reconstructions=False)
    assert traj.status == "completed"
    assert traj.sup_norms().max() <= 1e-8


def test_reconstruction_of_background(setup):
    p, path, g, op = setup
    zeros = np.zeros(g.num_nodes)
    for t in (0.0, 13.0, 800.0):
        theta = float(path.theta_at(t))
        theta_t = float(path.theta_t_at(t))
        rec = reconstruct_physical(op, RadialState(t, zeros, zeros))
        assert np.allclose(rec.radii, theta * g.r, rtol=1e-14)
        assert np.allclose(rec.density, p.rho0(g.r) * theta ** (-p.n), rtol=1e-14)
        assert np.allclose(rec.velocity, theta_t * g.r, rtol=1e-14)
        assert rec.boundary_radius == pytest.approx(theta * p.R0, rel=1e-12)
        # position gap driven purely by the correction
        nu = (1.0 + t) ** p.kappa
        gap = np.max(np.abs(rec.radii - nu * g.r))
        assert gap == pytest.approx(abs(float(path.h_at(t))) * g.r.max(), rel=1e-10)


def test_boundary_expands_sublinearly(setup):
    p, path, g, op = setup
    zeros = np.zeros(g.num_nodes)
    times = np.geomspace(1.0, 1e3, 60)
    radii = [reconstruct_physical(op, RadialState(t, zeros, zeros)).boundary_radius
             for t in times]
    from vaclab.fitting import decay_fit

    fit = decay_fit(times, np.array(radii), window=(10.0, 1e3))
    assert fit.exponent == pytest.approx(p.kappa, abs=0.02)
    assert fit.exponent < 0.5


def test_reconstructed_mass_conserved(setup):
    p, path, g, op = setup
    w0 = seed_profile("parabolic", 1e-3, g)
    traj = evolve(g, path, RadialState(0.0, w0, np.zeros_like(w0)), 200.0,
                  collect_energies=False)
    for rec in traj.reconstructions[:: max(len(traj.reconstructions) // 8, 1)]:
        assert abs(reconstructed_mass(op, rec) - p.mass) / p.mass <= 1e-8


def test_perturbation_sup_norm_has_no_growth(setup):
    p, path, g, _ = setup
    from vaclab.correction import solve_correction
    from vaclab.fitting import decay_fit

    long_path = solve_correction(p, 2e4)
    w0 = seed_profile("parabolic", 1e-3, g)
    traj = evolve(g, long_path, RadialState(0.0, w0, np.zeros_like(w0)), 1e4,
                  collect_energies=False, collect_reconstructions=False)
    fit = decay_fit(traj.times, traj.sup_norms(), window=(1e2, 1e4))
    assert fit.exponent <= 0.02


def test_invariant_violation_truncates_with_metadata(setup):
    _, path, g, _ = setup
    bad = -1.5 * g.r      # 1 + w/r < 0 immediately
    traj = evolve(g, path, RadialState(0.0, bad, np.zeros_like(bad)), 10.0,
                  collect_energies=False)
    assert traj.status == "failed"
    assert traj.failure is not None
    assert "node" in traj.failure["reason"]


def test_failed_run_keeps_its_stats(monkeypatch):
    # the first step breaks 1 + w_r > 0 at its fifth stage (t = 8/9 * 1e-3)
    p = derive_constants(3, 0.0, 2.0, 1.0)
    path = solve_correction(p, 1e6)
    g = WeightedGrid(p, 32)
    calls = []
    rhs = RadialOperator.rhs

    def counting(self, t, state):
        calls.append(t)
        return rhs(self, t, state)

    monkeypatch.setattr(RadialOperator, "rhs", counting)
    w0 = seed_profile("parabolic", 1.575, g)
    traj = evolve(g, path, RadialState(0.0, w0, np.zeros_like(w0)), 10.0,
                  collect_energies=False)
    assert traj.status == "failed"
    assert traj.failure["time"] == pytest.approx(8.0 / 9.0 * 1e-3, rel=1e-12)
    assert len(calls) == 5
    assert traj.stats.rhs_evaluations == len(calls)
    assert traj.stats.steps == 0


def test_state_that_fails_at_an_output_is_kept_and_reported():
    # an RK4 output state at t = 0.1 breaks 1 + w_r > 0: it is recorded,
    # has no energies or reconstruction, and its density gap reads NaN
    p = derive_constants(3, 0.0, 2.0, 1.0)
    path = solve_correction(p, 100.0)
    g = WeightedGrid(p, 24)
    w0 = seed_profile("parabolic", 1.3, g)
    traj = evolve(g, path, RadialState(0.0, w0, np.zeros_like(w0)), 20.0,
                  output_times=np.linspace(0.0, 20.0, 201), stepper="rk4", fixed_dt=0.2)
    assert traj.status == "failed" and traj.failure["time"] == pytest.approx(0.1)
    assert [s.t for s in traj.states] == pytest.approx([0.0, 0.1])
    assert len(traj.reconstructions) == 1
    assert traj.energies.times.tolist() == [0.0]
    with np.errstate(invalid="ignore"):
        series = gap_series(traj, path, p)
    assert np.isfinite(series.density[0]) and np.isnan(series.density[1])
    assert np.all(np.isfinite(series.position))


def test_rhs_makes_one_dense_evaluation_per_time(setup, monkeypatch):
    _, path, g, op = setup
    dense_times = []
    dense = path._dense

    def counting(t):
        dense_times.append(float(t))
        return dense(t)

    monkeypatch.setattr(path, "_dense", counting)
    monkeypatch.setattr(path, "_last_coefficients", None)
    state = np.concatenate([seed_profile("parabolic", 1e-3, g), np.zeros(g.num_nodes)])
    op.rhs(3.125, state)
    op.rhs(3.125, state)
    assert dense_times == [3.125]
    # along adaptive steps, including the step cap: no time is evaluated twice
    rhs_times = []
    rhs = RadialOperator.rhs

    def recording(self, t, y):
        rhs_times.append(float(t))
        return rhs(self, t, y)

    monkeypatch.setattr(RadialOperator, "rhs", recording)
    dense_times.clear()
    traj = evolve(g, path, RadialState(0.0, state[:g.num_nodes], state[g.num_nodes:]),
                  2.0, output_times=[0.0, 1.0, 2.0], collect_energies=False,
                  collect_reconstructions=False)
    assert traj.stats.rhs_evaluations == len(rhs_times) > 20
    assert len(dense_times) == len(set(dense_times)) == len(set(rhs_times))


def test_time_integration_fourth_order(setup):
    p, path, g, _ = setup
    w0 = seed_profile("quartic", 1e-2, g)

    def final(dt):
        traj = evolve(g, path, RadialState(0.0, w0.copy(), np.zeros_like(w0)),
                      10.0, output_times=[10.0], stepper="rk4", fixed_dt=dt,
                      collect_energies=False, collect_reconstructions=False)
        return traj.states[-1].w

    ref = final(0.0025)
    err_coarse = np.max(np.abs(final(0.02) - ref))
    err_fine = np.max(np.abs(final(0.01) - ref))
    assert 10.0 <= err_coarse / err_fine <= 24.0


def test_spatial_refinement_spectral(setup):
    # operator-evaluation convergence on an oscillatory smooth profile:
    # doubling the node count must cut the error far faster than a fixed
    # algebraic order (spectral collocation)
    p, _, _, _ = setup
    g_ref = WeightedGrid(p, 192)
    op_ref = RadialOperator(g_ref)

    def w_fun(r):
        s = (r / p.R0) ** 2
        return 0.02 * r * np.cos(9.0 * s) * np.exp(0.5 * s)

    ref_vals = op_ref.pressure(w_fun(g_ref.r))
    errs = {}
    for nodes in (16, 32, 64):
        g = WeightedGrid(p, nodes)
        vals = RadialOperator(g).pressure(w_fun(g.r))
        interp = resample_matrix(g.s, g_ref.s)
        errs[nodes] = np.max(np.abs((interp @ (vals / g.r)) * g_ref.r - ref_vals))
    assert errs[32] <= errs[16] / 8.0
    assert errs[64] <= errs[32] / 8.0


def test_fault_injection_detected(setup):
    _, _, g, _ = setup
    clean = radial_oracle_check(g, num_samples=1, box_points=41, seed=0)
    faulty = radial_oracle_check(g, num_samples=1, box_points=41, seed=0,
                                 fault="pressure-sign")
    assert faulty > 100.0 * clean
