"""Correction ODE: initial data, long-time envelopes, and bound checks."""
import numpy as np
import pytest

from vaclab import correction
from vaclab.correction import (CorrectionPath, correction_path, fit_h_envelope,
                               integrating_factor_bound_check,
                               lyapunov_violations, ode_residual, rk4_reference,
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


def test_h_envelope_degenerate_for_zero_fixture(params3, path3):
    zeros = np.zeros_like(path3.t_grid)
    fake = CorrectionPath(
        params=params3, t_end=path3.t_end, rel_tol=path3.rel_tol,
        abs_tol=path3.abs_tol, t_grid=path3.t_grid, h=zeros, h_t=zeros,
        theta=(1.0 + path3.t_grid) ** params3.kappa,
        theta_t=params3.kappa * (1.0 + path3.t_grid) ** (params3.kappa - 1.0),
        step_times=path3.step_times, _dense=path3._dense,
    )
    env = fit_h_envelope(fake)
    assert env.degenerate
    with pytest.raises(ValueError):
        env.best_exponent()


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


def test_solver_input_validation(params3):
    with pytest.raises(ValueError):
        solve_correction(params3, 0.5)
    with pytest.raises(ValueError):
        solve_correction(params3, 1e9)
    with pytest.raises(ValueError):
        solve_correction(params3, 100.0, rel_tol=1e-2)


def test_integrating_factor_zero_at_origin():
    # F(0) = 0: the boundary-layer quadrature over an empty interval
    from scipy.integrate import quad

    value, _ = quad(lambda tau: np.exp(tau - 0.0) * (1 + tau) ** -2.0, 0.0, 0.0)
    assert value == 0.0


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
