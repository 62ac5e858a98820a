"""Correction ODE: initial data, long-time envelopes, and bound checks."""
import dataclasses
import inspect
import math
import sys

import numpy as np
import pytest
from numpy.polynomial import Polynomial
import radau_reference as reference
from scipy.integrate import solve_ivp

from vaclab import correction
from vaclab.correction import (H_ENVELOPE_TOL, CorrectionPath, CorrectionSolveError,
                               boundary_layer_integral, correction_path,
                               fit_h_envelope,
                               integrating_factor_bound_check,
                               lyapunov_violations, ode_residual,
                               solve_correction, verify_theta_properties)
from vaclab.fitting import decay_fit
from vaclab.params import derive_constants

# Converged reference (two independent integrators agree to 2e-11 relative):
# h(1e6) for n=3, lambda=0, gamma=2, M=1.
H_AT_1E6_REFERENCE = 3.7683016519e-05
# High-accuracy h(100) for the same parameters.
H_AT_100_REFERENCE = 0.022275469555738


@pytest.fixture(scope="module")
def params3():
    return derive_constants(3, 0.0, 2.0, 1.0)


@pytest.fixture(scope="module")
def path3(params3):
    return solve_correction(params3, 1e6)


def test_initial_values(path3, params3):
    assert path3.h[0] == 0.0
    assert path3.h_t[0] == 0.0
    assert path3.theta[0] == pytest.approx(1.0, abs=0)
    assert path3.theta_t[0] == pytest.approx(params3.kappa, abs=0)


def rk4_reference(params, t_end, dt):
    """(h, h_t) at t_end by classical fixed-step RK4 on the (h, h') system,
    an integrator apart from the adaptive path's."""
    rhs = correction._correction_rhs(params)
    h = z = t = 0.0
    for _ in range(int(round(t_end / dt))):
        k1 = rhs(t, (h, z))
        k2 = rhs(t + 0.5 * dt, (h + 0.5 * dt * k1[0], z + 0.5 * dt * k1[1]))
        k3 = rhs(t + 0.5 * dt, (h + 0.5 * dt * k2[0], z + 0.5 * dt * k2[1]))
        k4 = rhs(t + dt, (h + dt * k3[0], z + dt * k3[1]))
        h = h + dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        z = z + dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        t += dt
    return h, z


def test_rk4_oracle_agreement(params3, path3):
    # independent fixed-step classical integrator, ~10x finer than the
    # adaptive steps in this range
    h_rk4, ht_rk4 = rk4_reference(params3, 100.0, 2e-3)
    assert h_rk4 == pytest.approx(H_AT_100_REFERENCE, rel=1e-10)
    assert float(path3.h_at(100.0)) == pytest.approx(h_rk4, rel=1e-9)
    assert float(path3.h_t_at(100.0)) == pytest.approx(ht_rk4, rel=1e-7)


def test_long_time_value_and_ratio(path3, params3):
    ratio = float(path3.theta_at(1e6)) / (1.0 + 1e6) ** params3.kappa
    assert 0.5 <= ratio <= 2.0
    assert float(path3.h_at(1e6)) == pytest.approx(H_AT_1E6_REFERENCE, rel=1e-6)


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.7])
def test_theta_monotonicity_and_envelopes(lam):
    p = derive_constants(3, lam, 2.0, 1.0)
    path = solve_correction(p, 1e5)
    rep = verify_theta_properties(path)
    assert rep.theta_t_positive and rep.theta_above_one
    assert rep.first_violation is None
    assert 0.0 < rep.theta_over_nu_min <= rep.theta_over_nu_max < np.inf
    assert abs(rep.theta_over_nu_drift) <= 0.01   # no trend in the tail
    for m in (1, 2, 3):
        assert rep.derivative_slopes[m] <= rep.derivative_slope_targets[m] + 0.12


def test_very_long_horizon_supported():
    p = derive_constants(3, 0.0, 2.0, 1.0)
    path = solve_correction(p, 1e8)
    ratio = float(path.theta_at(1e8)) / (1.0 + 1e8) ** p.kappa
    assert ratio == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("lam,expected", [(0.0, -0.8), (0.3, -0.44), (0.7, 0.04)])
def test_h_envelope_exponents(lam, expected):
    p = derive_constants(3, lam, 2.0, 1.0)
    path = solve_correction(p, 1e6)
    env = fit_h_envelope(path, window=(1e2, 1e6))
    assert env.expected_exponent == pytest.approx(p.kappa + lam - 1.0, rel=1e-12)
    assert env.best_exponent() == pytest.approx(expected, abs=0.05)
    assert (env.log_corrected is not None) == (lam == 0.0)


def test_h_envelope_default_window_is_the_suite_window(path3):
    # `vaclab ode` fits with the default window, the suite's h-envelope
    # check and the acceptance test over [1e2, 1e6]: one rule, one window
    assert fit_h_envelope(path3) == fit_h_envelope(path3, window=(1e2, 1e6))


def test_h_envelope_degenerate_for_zero_fixture(params3, path3):
    zeros = np.zeros_like(path3.t_grid)
    fake = CorrectionPath(
        params=params3, t_end=path3.t_end, rel_tol=path3.rel_tol,
        abs_tol=path3.abs_tol, t_grid=path3.t_grid, h=zeros, h_t=zeros,
        theta=(1.0 + path3.t_grid) ** params3.kappa,
        theta_t=params3.kappa * (1.0 + path3.t_grid) ** (params3.kappa - 1.0),
        step_times=path3.step_times, segments=path3.segments,
    )
    env = fit_h_envelope(fake)
    assert env.degenerate
    with pytest.raises(ValueError):
        env.best_exponent()
    assert not env.ok


def test_h_envelope_fit_is_ok_within_its_bound(path3):
    env = fit_h_envelope(path3)
    assert env.ok and env.error == abs(env.best_exponent() - env.expected_exponent)
    for off in (1.01 * H_ENVELOPE_TOL, -1.01 * H_ENVELOPE_TOL):
        assert not dataclasses.replace(env, expected_exponent=env.best_exponent() + off).ok


def test_pure_power_fixture_slope(params3):
    # synthetic theta = nu: the first-derivative envelope slope is exactly
    # kappa - 1 for a pure power
    t = np.geomspace(1.0, 1e5, 400)
    nu_t = params3.kappa * (1.0 + t) ** (params3.kappa - 1.0)
    fit = decay_fit(t, nu_t, window=(10.0, 1e5))
    assert fit.exponent == pytest.approx(params3.kappa - 1.0, abs=1e-9)


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.7])
def test_lyapunov_functional_monotone_in_decay_phase(lam):
    p = derive_constants(3, lam, 2.0, 1.0)
    assert lyapunov_violations(solve_correction(p, 1e5)) == 0


def test_dense_output_residual_below_10x_tolerance(path3):
    assert ode_residual(path3) <= 10.0


def test_ode_residual_differentiates_the_collocation_polynomial(path3):
    # each sample time's step polynomial y_old + Q (x, x^2, x^3), rebuilt
    # and differentiated by numpy.polynomial, against the ODE
    rhs = correction._correction_rhs(path3.params)
    worst = 0.0
    for t in path3.t_grid[2:-2:5]:
        i = min(max(np.searchsorted(path3.step_times, t) - 1, 0), len(path3.segments) - 1)
        t_old, step, q00, q01, q02, q10, q11, q12, h0, z0 = path3.segments[i]
        x = (t - t_old) / step
        polys = (Polynomial([h0, q00, q01, q02]), Polynomial([z0, q10, q11, q12]))
        h, z = (poly(x) for poly in polys)
        dh, dz = (poly.deriv()(x) / step for poly in polys)
        defect = np.abs([dh - z, dz - rhs(t, (h, z))[1]])
        tol = path3.abs_tol + path3.rel_tol * np.abs([h, z])
        worst = max(worst, float(np.max(defect * step / tol)))
    assert ode_residual(path3) == pytest.approx(worst, rel=1e-12)


def test_solver_input_validation(params3):
    with pytest.raises(ValueError):
        solve_correction(params3, 0.5)
    with pytest.raises(ValueError):
        solve_correction(params3, 1e9)
    with pytest.raises(ValueError):
        solve_correction(params3, 100.0, rel_tol=1e-2)


def test_integrating_factor_zero_at_origin():
    # F(0) = 0: the boundary-layer quadrature over an empty interval
    for lam, k in ((0.0, 2.0), (0.5, 1.0)):
        assert boundary_layer_integral(lam, k, np.array([0.0])).tolist() == [0.0]


@pytest.mark.parametrize("lam,k,t_max", [(0.0, 2.0, 100.0), (0.5, 1.0, 1000.0)])
def test_boundary_layer_integral_matches_quad(lam, k, t_max):
    # the integrating-factor check's integrands at its 40 times, against
    # QUADPACK at the check's 1e-10 relative tolerance
    from scipy.integrate import quad

    times = np.geomspace(1.0, t_max, 40)
    got = boundary_layer_integral(lam, k, times)
    for t, value in zip(times, got):
        def integrand(tau):
            return math.exp(((1.0 + tau) ** (1.0 - lam) - (1.0 + t) ** (1.0 - lam))
                            / (1.0 - lam)) * (1.0 + tau) ** (-k)

        lo = max(0.0, t - 45.0 * (1.0 + t) ** lam)
        ref, _ = quad(integrand, lo, t, epsabs=0.0, epsrel=1e-12, limit=400)
        assert value == pytest.approx(ref, rel=1e-10)


def test_boundary_layer_integral_raises_when_unresolved(monkeypatch):
    # one panel across 45 e-folds: the 8- and 16-node values disagree
    monkeypatch.setattr(correction, "_LAYER_PANELS", 1)
    with pytest.raises(RuntimeError, match="did not converge"):
        boundary_layer_integral(0.0, 2.0, np.array([100.0]))


def test_integrating_factor_bound_stability():
    r100 = integrating_factor_bound_check(0.0, 2.0, 100.0)
    r50 = integrating_factor_bound_check(0.0, 2.0, 50.0)
    assert np.isfinite(r100["max_ratio"])
    assert abs(r100["max_ratio"] - r50["max_ratio"]) <= 0.10 * r50["max_ratio"]


def test_integrating_factor_no_growth_trend():
    r = integrating_factor_bound_check(0.5, 1.0, 1000.0)
    tail = r["times"] >= 100.0
    trend = decay_fit(r["times"][tail], r["ratios"][tail]).exponent
    assert np.isfinite(r["max_ratio"])
    assert abs(trend) <= 0.02


def test_integrating_factor_input_validation():
    with pytest.raises(ValueError):
        integrating_factor_bound_check(1.0, 2.0, 100.0)
    with pytest.raises(ValueError):
        integrating_factor_bound_check(0.0, -1.0, 100.0)
    with pytest.raises(ValueError):
        integrating_factor_bound_check(0.0, 2.0, 5.0)


def test_csv_export_columns(tmp_path, path3):
    out = tmp_path / "correction.csv"
    path3.write_csv(out)
    header = out.read_text().splitlines()[0]
    assert header == "t,h,h_t,theta,theta_t"


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_time_coefficient_derivatives_match_differences(n, lam):
    # d', d'', c', c'' from the ODE chain against Richardson-extrapolated
    # central differences of d and c themselves
    path = solve_correction(derive_constants(n, lam, 2.0, 1.0), 1e4)

    def values(t):
        co = path.coefficients(t)
        return np.array([co.d[0], co.c[0]])

    for t in (0.5, 5.0, 100.0, 5e3):
        step = 1e-2 * (1.0 + t)

        def central(h):
            plus, mid, minus = values(t + h), values(t), values(t - h)
            return (plus - minus) / (2.0 * h), (plus - 2.0 * mid + minus) / h ** 2

        (first_h, second_h), (first_h2, second_h2) = central(step), central(step / 2.0)
        first = (4.0 * first_h2 - first_h) / 3.0
        second = (4.0 * second_h2 - second_h) / 3.0
        co = path.coefficients(t)
        exact_first = np.array([co.d[1], co.c[1]])
        exact_second = np.array([co.d[2], co.c[2]])
        assert np.all(np.abs(first - exact_first) <= 1e-4 * np.abs(exact_first)), t
        assert np.all(np.abs(second - exact_second) <= 1e-4 * np.abs(exact_second)), t


def test_time_coefficients_reuse_one_dense_evaluation(params3, path3, monkeypatch):
    calls = []
    dense = path3._dense

    def counting(t):
        calls.append(float(t))
        return dense(t)

    monkeypatch.setattr(path3, "_dense", counting)
    first = path3.coefficients(7.25)
    assert path3.coefficients(7.25) is first
    assert calls == [7.25]
    th, th_t, _, _ = path3.theta_derivatives(7.25)
    assert float(th) == float(path3.theta_at(7.25))
    assert float(th_t) == float(path3.theta_t_at(7.25))
    assert first.d[0] == pytest.approx((8.25) ** (-params3.lam) + 2.0 * th_t / th, rel=1e-15)
    assert first.c[0] == float(th) ** (-params3.damping_power)


def _scipy_radau(params, t_end, rel_tol=1e-10, abs_tol=1e-13, **options):
    """SciPy's Radau on the same right-hand side and Jacobian: the oracle."""
    return solve_ivp(correction._correction_rhs(params), (0.0, t_end), [0.0, 0.0],
                     method="Radau", rtol=rel_tol, atol=abs_tol,
                     jac=correction._correction_jac(params), **options)


def test_dense_evaluator_matches_scipy_dense_output(params3):
    # the evaluator under test reads a table built here from the
    # interpolants of SciPy's OdeSolution; SciPy evaluates the same steps
    t_end = 1e6
    sol = _scipy_radau(params3, t_end, dense_output=True)
    steps = sol.sol.interpolants
    segments = np.array([(step.t_old, step.h, *step.Q.ravel(), *step.y_old)
                         for step in steps])
    t_grid = correction.sample_grid(t_end)
    h, h_t = sol.sol(t_grid)
    path = CorrectionPath(
        params=params3, t_end=t_end, rel_tol=1e-10, abs_tol=1e-13, t_grid=t_grid,
        h=h, h_t=h_t, theta=params3.nu(t_grid) + h, theta_t=params3.nu_t(t_grid) + h_t,
        step_times=sol.t, segments=segments,
    )
    np.testing.assert_array_equal(sol.t, path.step_times)
    rng = np.random.default_rng(20)
    t = np.concatenate([rng.uniform(0.0, t_end, 5000),
                        10.0 ** rng.uniform(-4.0, 6.0, 15000)])
    ours = np.array(path._dense(t))
    assert np.array_equal(np.array([path._dense(float(x)) for x in t]).T, ours)
    # rounding bound: the summed magnitudes |y_old| + |Q_k x^k| of each
    # collocation polynomial y_old + Q (x, x^2, x^3)
    index = np.clip(np.searchsorted(sol.t, t, side="left") - 1, 0, len(steps) - 1)
    q = np.array([step.Q for step in steps])[index]
    y_old = np.array([step.y_old for step in steps])[index]
    x = (t - sol.t[index]) / np.diff(sol.t)[index]
    powers = np.stack([x, x * x, x * x * x], axis=-1)
    scale = (np.abs(y_old) + np.einsum("kij,kj->ki", np.abs(q), np.abs(powers))).T
    for reference in (sol.sol(t), np.array([sol.sol(x) for x in t]).T):
        assert np.all(np.abs(ours - reference) <= 4e-16 * scale)
    # a step time belongs to the step on its left, where SciPy's value is
    # the same to the bit; the step on its right differs at some of them
    at_steps = np.array([sol.sol(x) for x in sol.t]).T
    assert np.array_equal(np.array(path._dense(sol.t)), at_steps)
    assert np.array_equal(np.array([path._dense(x) for x in sol.t.tolist()]).T, at_steps)
    assert path._dense(0.0) == (0.0, 0.0)
    assert path._dense(t_end) == tuple(sol.sol(t_end))


# (n, lambda, t_end, rel_tol, abs_tol): six parameter sets at the default
# tolerances, a loose and a medium tolerance
ORACLE_SETS = [(3, 0.0, 1e6, 1e-10, 1e-13), (3, 0.3, 1e6, 1e-10, 1e-13),
               (3, 0.7, 1e6, 1e-10, 1e-13), (2, 0.0, 1e6, 1e-10, 1e-13),
               (2, 0.5, 1e6, 1e-10, 1e-13), (3, 0.5, 1e6, 1e-10, 1e-13),
               (3, 0.0, 1e6, 1e-3, 1e-3), (3, 0.0, 1e4, 1e-6, 1e-9)]


def _assert_matches_scipy(path, sol):
    # theta within 1e-14 relative on the sample grid, steps within 1%
    theta = path.params.nu(path.t_grid) + sol.sol(path.t_grid)[0]
    assert np.max(np.abs(path.theta - theta) / theta) <= 1e-14
    assert abs(len(path.segments) - (sol.t.size - 1)) <= 0.01 * (sol.t.size - 1)
    assert path.step_times[0] == 0.0 and path.step_times[-1] == path.t_end
    if path.step_times.size == sol.t.size:
        # step for step: the times drift apart only by rounding (<= 5.4e-7 seen)
        assert np.max(np.abs(path.step_times - sol.t) / np.maximum(sol.t, 1.0)) <= 1e-5


@pytest.mark.parametrize("n,lam,t_end,rel_tol,abs_tol", ORACLE_SETS)
def test_radau_matches_scipy_radau(n, lam, t_end, rel_tol, abs_tol):
    p = derive_constants(n, lam, 2.0, 1.0)
    path = solve_correction(p, t_end, rel_tol, abs_tol)
    _assert_matches_scipy(path, _scipy_radau(p, t_end, rel_tol, abs_tol, dense_output=True))
    assert ode_residual(path) < 10.0


def test_tiny_rel_tol_is_floored_as_scipy_floors_it(params3):
    # rtol = 1e-16 runs at 100 eps, with the Newton tolerance of the
    # requested 1e-16, as in SciPy
    path = solve_correction(params3, 100.0, rel_tol=1e-16)
    with pytest.warns(UserWarning, match="rtol"):
        sol = _scipy_radau(params3, 100.0, 1e-16, dense_output=True)
    _assert_matches_scipy(path, sol)
    # the Newton tolerance still comes from the requested rtol
    floored = solve_correction(params3, 100.0, rel_tol=100 * np.finfo(float).eps)
    assert not np.array_equal(floored.segments, path.segments)


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_radau_theta_matches_dop853(lam):
    # theta'' + (1+t)^-lam theta' = kappa theta^q directly, by an explicit
    # pair at tight tolerances; within 1e-10 relative for t <= 1e3
    p = derive_constants(3, lam, 2.0, 1.0)
    path = correction_path(p, 1e6)
    q = p.n - p.n * p.gamma - 1.0
    t = path.t_grid[path.t_grid <= 1e3]
    ref = solve_ivp(lambda s, y: [y[1], p.kappa * y[0] ** q - (1.0 + s) ** -lam * y[1]],
                    (0.0, 1e3), [1.0, p.kappa], method="DOP853", rtol=1e-13,
                    atol=1e-13, t_eval=t)
    assert np.max(np.abs(path.theta[: t.size] - ref.y[0]) / ref.y[0]) <= 1e-10


@pytest.mark.parametrize("t_bad", [0.0, 10.0])
def test_non_finite_rhs_ends_in_solve_error(monkeypatch, params3, t_bad):
    rhs = correction._correction_rhs

    def broken(params):
        f = rhs(params)

        def g(t, y):
            h_t, h_tt = f(t, y)
            return h_t, (math.nan if t >= t_bad else h_tt)

        return g

    monkeypatch.setattr(correction, "_correction_rhs", broken)
    with pytest.raises(CorrectionSolveError):
        solve_correction(params3, 100.0)


def test_correction_path_is_solved_once_per_argument_set(monkeypatch):
    correction._memoized_path.cache_clear()
    solves = []
    solve = correction.solve_correction

    def counting(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(correction, "solve_correction", counting)
    p = derive_constants(3, 0.0, 2.0, 1.0)
    path = correction_path(p, 100.0)
    assert correction_path(p, 100, 1e-10, 1e-13) is path
    assert correction_path(p, t_end=100.0, rel_tol=1e-10, abs_tol=1e-13) is path
    assert len(solves) == 1
    others = [correction_path(derive_constants(3, 0.3, 2.0, 1.0), 100.0),
              correction_path(derive_constants(2, 0.0, 2.0, 1.0), 100.0),
              correction_path(p, 200.0),
              correction_path(p, 100.0, rel_tol=1e-9),
              correction_path(p, 100.0, abs_tol=1e-12)]
    assert all(other is not path for other in others)
    assert len(solves) == 6
    assert correction_path(p, 100.0) is path


# the floored rtol = 1e-16 case beside the oracle sets
REFERENCE_SETS = ORACLE_SETS + [(3, 0.0, 100.0, 1e-16, 1e-13)]


@pytest.mark.parametrize("n,lam,t_end,rel_tol,abs_tol", REFERENCE_SETS)
def test_radau_equals_its_loop_reference(n, lam, t_end, rel_tol, abs_tol):
    # the flat loop keeps the helper-call version's arithmetic: same steps,
    # same collocation tables, bit for bit
    p = derive_constants(n, lam, 2.0, 1.0)
    path = solve_correction(p, t_end, rel_tol, abs_tol)
    times, rows = reference._radau(correction._correction_rhs(p),
                                   correction._correction_jac(p), t_end, rel_tol, abs_tol)
    assert np.array_equal(path.step_times, times)
    assert np.array_equal(path.segments, rows)


def _reference_lines(text):
    """Line numbers of the reference ``_radau`` whose source contains text."""
    lines, first = inspect.getsourcelines(reference._radau)
    found = [first + i for i, line in enumerate(lines) if text in line]
    assert found, text
    return set(found)


# Scripted right-hand sides, each with the reference branch it must reach;
# no oracle set reaches any of them.  The k-th call of the script returns
# NaN or a finite outlier in h'' in place of the true value.
SCRIPTS = {
    # Newton fails on the first step, whose Jacobian is fresh: the step halves
    "halving": (lambda k, t: math.nan if k == 3 else None, "h_abs *= 0.5"),
    # an outlier at an accepted point rejects the next step twice, and the
    # second rejection re-evaluates the error estimate
    "error-reevaluation": (lambda k, t: 1e10 if k == 30 else None,
                           "g = fun(t, (y[0] + error[0], y[1] + error[1]))"),
    # an outlier at t = 0 proposes a zero first step, raised to the
    # min_step floor, where Newton fails and the solve ends
    "min-step-floor": (lambda k, t: 1e300 if k == 1 else None,
                       "h_abs, h_old, err_old = min_step, None, None"),
    # NaN from t = 10 on: the steps shrink below ten ulps of t
    "step-below-min-step": (lambda k, t: math.nan if t >= 10.0 else None,
                            "step below"),
}


def _scripted_solve(radau, script, params):
    """Run radau on the scripted right-hand side: its outcome (the step
    times and table, or the error message) and every call's arguments."""
    rhs, calls = correction._correction_rhs(params), []

    def fun(t, y):
        calls.append((t, y))
        h_t, h_tt = rhs(t, y)
        outlier = script(len(calls), t)
        return h_t, h_tt if outlier is None else outlier

    try:
        outcome = radau(fun, correction._correction_jac(params), 100.0, 1e-10, 1e-13)
    except CorrectionSolveError as exc:
        outcome = str(exc)
    return outcome, [repr(call) for call in calls]


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_radau_equals_its_loop_reference_on_scripted_rhs(params3, name):
    script, marker = SCRIPTS[name]
    branch, reached = _reference_lines(marker), set()

    def trace(frame, event, arg):
        if frame.f_code is not reference._radau.__code__:
            return None

        def lines(frame, event, arg):
            if event == "line" and frame.f_lineno in branch:
                reached.add(frame.f_lineno)
            return lines
        return lines

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        expected, expected_calls = _scripted_solve(reference._radau, script, params3)
    finally:
        sys.settrace(previous)
    assert reached, f"the script does not reach {marker!r}"
    outcome, calls = _scripted_solve(correction._radau, script, params3)
    # every right-hand side call, argument for argument (repr keeps each bit)
    first = next((i for i, pair in enumerate(zip(calls, expected_calls))
                  if pair[0] != pair[1]), None)
    assert first is None, f"call {first + 1}: {calls[first]} != {expected_calls[first]}"
    assert len(calls) == len(expected_calls)
    if isinstance(expected, str):
        assert outcome == expected
    else:
        assert np.array_equal(outcome[0], expected[0])
        assert np.array_equal(outcome[1], expected[1])


@pytest.mark.parametrize("n,lam", [(3, 0.0), (3, 0.5), (2, 0.3)])
def test_time_coefficients_equal_their_reference(n, lam):
    # the inline lookup and theta_derivatives keep the reference's
    # arithmetic: equal theta derivatives, d and c at random uniform and
    # log-spaced times, at every step time (which belongs to the step on
    # its left), at 0, t_end and beyond, as floats and as one array;
    # lambda = 0.3 also checks the order of products with lambda, which 0
    # and 0.5 (a power of two) leave exact
    path = solve_correction(derive_constants(n, lam, 2.0, 1.0), 1e6)
    rng = np.random.default_rng(22)
    times = np.concatenate([rng.uniform(0.0, 1e6, 5000), 10.0 ** rng.uniform(-6.0, 6.0, 5000),
                            path.step_times, [0.0, 1e6, 2e6]])
    for t in times.tolist():
        assert path._dense(t) == reference._evaluate(path.step_times, path.segments, t)
        assert path.theta_derivatives(t) == reference.theta_derivatives(path, t), t
        coefficients = reference.coefficients(path, t)
        assert path.coefficients(t) == coefficients, t
        assert path.stage_coefficients(t) == (coefficients.d[0], coefficients.c[0]), t
    for ours, theirs in zip(path.theta_derivatives(times),
                            reference.theta_derivatives(path, times)):
        assert np.array_equal(ours, theirs)

