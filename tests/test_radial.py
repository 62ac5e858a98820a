"""Nonlinear radial solver: operator, oracles, evolution, reconstruction."""
import numpy as np
import pytest

from vaclab.correction import solve_correction
from vaclab.diagnostics import gap_series
from vaclab.params import derive_constants
from vaclab.quadrature import jacobi_polynomials, jacobi_rule_01, resample_matrix
from vaclab.radial import (RadialInvariantError, RadialOperator, RadialState, evolve,
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


@pytest.mark.parametrize("fault", [None, "pressure-sign"])
def test_directional_derivatives_match_finite_differences(setup, fault):
    # under the fault K' and K'' stay the derivatives of the pressure as built
    _, path, g, _ = setup
    op = RadialOperator(g, path, fault=fault)
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


def _linearized_spectrum(op):
    """Sorted eigenvalues of K'(0), assembled column by column."""
    m = op.grid.num_nodes
    zero, basis = np.zeros(m), np.eye(m)
    matrix = np.column_stack([op.stiffness_linearized(zero, e) for e in basis])
    eig = np.linalg.eigvals(matrix)
    assert np.max(np.abs(eig.imag)) <= 1e-11 * np.max(np.abs(eig.real))
    return np.sort(eig.real)


def _exact_linearized_spectrum(p, m):
    j = np.arange(1, m + 1)
    return (1.0 + p.lam) * j * (2.0 * j + p.n + 2.0 * p.iota - 2.0) / (p.n + 2.0 * p.iota)


@pytest.mark.parametrize("n,lam,gamma", [(3, 0.0, 2.0), (2, 0.5, 2.0),
                                         (3, 0.3, 1.5), (2, 0.0, 5.0 / 3.0)])
@pytest.mark.parametrize("m", [10, 32, 256])
def test_linearized_stiffness_has_the_closed_form_spectrum(n, lam, gamma, m):
    # K'(0) is triangular on the monomials r s^k, so its spectrum is exact
    p = derive_constants(n, lam, gamma, 1.0)
    op = RadialOperator(WeightedGrid(p, m))
    eig = _linearized_spectrum(op)
    exact = _exact_linearized_spectrum(p, m)
    assert np.max(np.abs(eig - exact) / exact) <= 1e-11
    assert op.spectral_radius() == pytest.approx(eig[-1], rel=1e-11)


@pytest.mark.parametrize("n,lam,gamma", [(3, 0.0, 2.0), (2, 0.5, 1.5)])
@pytest.mark.parametrize("m", [32, 64, 128, 256])
def test_jacobi_modes_are_the_eigenvectors_of_the_linearized_stiffness(n, lam, gamma, m):
    # r P_j^(iota, n/2)(2s - 1) is the eigenvector of K'(0) for lambda_(j+1),
    # and the grid's m-node rule (weight (1-s)^iota s^(n/2-1)) integrates
    # the product of two modes, R0^2 s P_i P_j, exactly.  Bounds: residual
    # |K v - lambda v| <= 1e-10 (|K| + lambda) |v| in the max norm (at
    # m = 256 it is 1.2e-11 and 2.0e-11, the same with SciPy's eval_jacobi
    # modes: the rounding of the assembled K'(0)), and Gram entries off the
    # diagonal <= 1e-12 of the geometric mean of their diagonal entries
    p = derive_constants(n, lam, gamma, 1.0)
    g = WeightedGrid(p, m)
    op = RadialOperator(g)
    zero, basis = np.zeros(m), np.eye(m)
    stiffness = np.column_stack([op.stiffness_linearized(zero, e) for e in basis])
    modes = g.r * jacobi_polynomials(m - 1, p.iota, n / 2.0, 2.0 * g.s - 1.0)
    exact = _exact_linearized_spectrum(p, m)
    residual = modes @ stiffness.T - exact[:, None] * modes
    scale = (np.max(np.sum(np.abs(stiffness), axis=1)) + exact[:, None]) \
        * np.max(np.abs(modes), axis=1, keepdims=True)
    assert np.max(np.abs(residual) / scale) <= 1e-10

    s, w = jacobi_rule_01(m, p.iota, n / 2.0 - 1.0)
    assert np.array_equal(s, g.s)
    gram = (modes * w) @ modes.T
    diag = np.sqrt(np.diag(gram))
    off = np.abs(gram) / np.outer(diag, diag)
    np.fill_diagonal(off, 0.0)
    assert np.max(off) <= 1e-12


def test_closed_form_spectrum_detects_a_perturbed_tangential_term():
    p = derive_constants(3, 0.0, 2.0, 1.0)
    op = RadialOperator(WeightedGrid(p, 32))
    op._tangential_coef = op._tangential_coef * (1.0 + 1e-3)
    exact = _exact_linearized_spectrum(p, 32)
    assert np.max(np.abs(_linearized_spectrum(op) - exact) / exact) > 1e-5


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


def _pressure_term_by_term(op, w, dtype):
    """N(w) in ``dtype``, each factor formed as derived: p = w/r,
    w_r = p + 2 s p'(s), alpha = X^p1 Y^q1 - 1 and 1 + beta = X^p2 Y^q2 with
    X = 1 + w_r, Y = 1 + p, and N = sigma' (iota+1) alpha + sigma alpha_r
    + (n-1) sigma (alpha - beta)/r, where alpha_r = (2r/R0^2) alpha'(s) and
    (alpha - beta)/r = -(1 + beta) (2r/R0^2) p'(s)/X."""
    g, p = op.grid, op.params
    r, s, d_s, w = (np.asarray(a, dtype=dtype) for a in (g.r, g.s, g.d_s, w))
    pvals = w / r
    dp = d_s @ pvals
    u = pvals + 2 * s * dp
    la, lb = np.log1p(u), np.log1p(pvals)
    alpha = np.expm1(op._p1 * la + op._q1 * lb)
    one_plus_beta = np.exp(op._p2 * la + op._q2 * lb)
    radial = 2 / np.asarray(p.R0, dtype=dtype) ** 2 * r
    sigma = p.A_bar - p.B_bar * r ** 2
    sigma_prime = -2 * np.asarray(p.B_bar, dtype=dtype) * r
    tangential = -one_plus_beta * radial * dp / (1 + u)
    return (sigma_prime * (p.iota + 1) * alpha + sigma * (radial * (d_s @ alpha))
            + (p.n - 1) * sigma * tangential)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("m", [32, 128, 256])
def test_pressure_rounding_is_no_worse_than_the_term_by_term_formula(n, m):
    # against the same formula in extended precision on the same d_s
    if np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps:
        pytest.skip("long double is not wider than double here")
    p = derive_constants(n, 0.0, 2.0, 1.0)
    g = WeightedGrid(p, m)
    op = RadialOperator(g)
    rng = np.random.default_rng(3)
    for w in (seed_profile("parabolic", 0.3, g), seed_profile("quartic", 0.05, g),
              seed_profile("random", 0.2, g, rng)):
        reference = _pressure_term_by_term(op, w, np.longdouble)

        def error(values):
            return float(np.max(np.abs(np.asarray(values, dtype=np.longdouble) - reference))
                         / np.max(np.abs(reference)))

        assert error(op.pressure(w)) <= 1.25 * error(_pressure_term_by_term(op, w, np.float64))


@pytest.mark.parametrize("p_of_s,x_of_s", [
    (lambda s: -1.5 + 0.0 * s, lambda s: -0.5 + 0.0 * s),    # fails at every node
    (lambda s: -s ** 2, lambda s: 1.0 - 5.0 * s ** 2),        # fails past s = 0.447
])
def test_pressure_names_the_first_node_that_breaks_the_invariant(setup, p_of_s, x_of_s):
    # w = r p(s): 1 + w_r = 1 + p + 2 s p' fails, and is named before 1 + w/r = 1 + p
    _, _, g, op = setup
    with pytest.raises(RadialInvariantError) as raised:
        op.pressure(g.r * p_of_s(g.s), 2.5)
    node = int(np.argmax(x_of_s(g.s) <= 0.0))
    assert (raised.value.t, raised.value.node, raised.value.factor) == (2.5, node, "1 + w_r")


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
    assert traj.energies["t"].tolist() == [0.0]
    with np.errstate(invalid="ignore"):
        series = gap_series(traj, path, p)
    assert np.isfinite(series["density_gap"][0]) and np.isnan(series["density_gap"][1])
    assert np.all(np.isfinite(series["position_gap"]))


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


def _full_box_pressure_on_ray(bgrid, p, w_of_r, ray_idx):
    """Reference: the Cartesian pressure's first component on the whole box,
    read along the first axis through the centre."""
    from vaclab.kinematics import apply_d, build_deformation, radial_vector_field

    fld = build_deformation(bgrid, radial_vector_field(bgrid, w_of_r))
    weight = (p.A_bar - p.B_bar * bgrid.radius() ** 2) ** (p.iota + 1.0)
    jfac = fld.jacobian ** (1.0 - p.gamma)
    out = np.zeros(bgrid.shape)
    for k in range(bgrid.n):
        g_k0 = weight * (fld.inverse_matrix[..., k, 0] * jfac - (1.0 if k == 0 else 0.0))
        out += apply_d(bgrid, g_k0, k)
    centre = tuple(m // 2 for m in bgrid.shape[1:])
    return np.array([out[(i,) + centre] for i in ray_idx])


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", [0, 12345])
def test_pressure_on_ray_slab_equals_full_box(n, seed):
    from vaclab.kinematics import box_grid
    from vaclab.radial import _cartesian_pressure_on_ray

    p = derive_constants(n, 0.0, 2.0, 1.0)
    half_width = 0.95 * p.R0 / np.sqrt(n)
    bgrid = box_grid(n, half_width, 41)
    axis = bgrid.axes[0]
    ray_idx = np.flatnonzero((axis > 0.15 * p.R0) & (axis < 0.9 * half_width))
    coeffs = np.random.default_rng(seed).standard_normal(3) * np.array([1.0, 0.5, 0.25])
    scale = 0.05 * p.R0 / np.max(np.abs(coeffs))

    def w_of_r(r):
        s = (r / p.R0) ** 2
        return scale * r * (coeffs[0] + coeffs[1] * s + coeffs[2] * s ** 2)

    slab = _cartesian_pressure_on_ray(bgrid, p, w_of_r, ray_idx)
    full = _full_box_pressure_on_ray(bgrid, p, w_of_r, ray_idx)
    assert np.max(np.abs(full)) > 1e-3
    assert np.array_equal(slab, full)


@pytest.fixture(scope="module")
def oracle_grids():
    return {n: WeightedGrid(derive_constants(n, 0.0, 2.0, 1.0), 48) for n in (3, 2)}


@pytest.mark.parametrize("n", [3, 2])
def test_radial_oracle_seed_sweep(oracle_grids, n):
    # the suite's radial-oracle settings on 64 seeds; its coarse bound
    # (coarse <= 2e-3) is not asserted: at n = 2 it fails on some seeds
    # (12345 among them), an open defect of the check
    g = oracle_grids[n]
    for seed in range(64):
        coarse = radial_oracle_check(g, num_samples=2, box_points=41, seed=seed)
        fine = radial_oracle_check(g, num_samples=2, box_points=81, seed=seed)
        faulty = radial_oracle_check(g, num_samples=2, box_points=41, seed=seed,
                                     fault="pressure-sign")
        assert fine <= 2e-4, seed
        assert coarse / fine > 4.0, seed
        assert faulty > 2e-3, seed
