"""The Radau IIA(5) correction solve and the time-coefficient lookup as
they stood before ``vaclab.correction`` wrote them in flat local floats.

The program's ``_radau`` keeps every floating-point expression of
``_radau`` here, in the same order, and ``CorrectionPath.coefficients``
keeps the arithmetic of ``coefficients`` here, so the tests require equal
results, bit for bit.  The solve is kept as it was: a step loop that calls
the simplified Newton iteration ``_newton``, which calls the 3x2 products
``_mix``, the norm ``_rms`` and the closed-form 2x2 solves ``_lu`` and
``_lu_solve``.  The lookup reads the step table through the NumPy-array
bisection of ``_evaluate`` and the theta derivatives of
``theta_derivatives``.
"""
import bisect
import math

import numpy as np

from vaclab.correction import (_C, _E, _EPS, _MAX_FACTOR, _MIN_FACTOR, _MU_COMPLEX,
                               _MU_REAL, _NEWTON_MAXITER, _P_T, _T, _TI, _TI_COMPLEX,
                               CorrectionSolveError, TimeCoefficients, _as_time,
                               _collocation, _predict_factor)


def _mix(m, v):
    """The 3x2 product m @ v of a 3x3 matrix and a flat row-major 3x2 v."""
    (a, b, c), (d, e, f), (g, h, i) = m
    v0, v1, v2, v3, v4, v5 = v
    return [a * v0 + b * v2 + c * v4, a * v1 + b * v3 + c * v5,
            d * v0 + e * v2 + f * v4, d * v1 + e * v3 + f * v5,
            g * v0 + h * v2 + i * v4, g * v1 + h * v3 + i * v5]


def _rms(*values):
    """Root mean square of a few floats (SciPy's ``norm``)."""
    return math.sqrt(sum(v * v for v in values)) / len(values) ** 0.5


def _lu(m, J):
    """m I - J for a 2x2 Jacobian, with its determinant (real or complex m)."""
    a00, a01, a10, a11 = m - J[0][0], -J[0][1], -J[1][0], m - J[1][1]
    return a00, a01, a10, a11, a00 * a11 - a01 * a10


def _lu_solve(lu, r0, r1):
    """The solution of (m I - J) x = r by Cramer's rule."""
    a00, a01, a10, a11, det = lu
    return (a11 * r0 - a01 * r1) / det, (a00 * r1 - a10 * r0) / det


def _newton(fun, t, y, h, z, s0, s1, tol, lu_real, lu_complex):
    """Simplified Newton iteration for the stage increments z (flat 3x2),
    SciPy's ``solve_collocation_system``: (converged, iterations, z, rate).
    A non-finite or failing right-hand side ends it unconverged."""
    m_real, m_complex = _MU_REAL / h, _MU_COMPLEX / h
    w = _mix(_TI, z)
    rate = norm_old = None
    for k in range(_NEWTON_MAXITER):
        try:
            f = [v for i in range(3)
                 for v in fun(t + h * _C[i], (y[0] + z[2 * i], y[1] + z[2 * i + 1]))]
            if not all(map(math.isfinite, f)):
                break
            r = [f[j] * _TI[0][0] + f[2 + j] * _TI[0][1] + f[4 + j] * _TI[0][2]
                 - m_real * w[j] for j in (0, 1)]
            c = [f[j] * _TI_COMPLEX[0] + f[2 + j] * _TI_COMPLEX[1]
                 + f[4 + j] * _TI_COMPLEX[2] - m_complex * (w[2 + j] + 1j * w[4 + j])
                 for j in (0, 1)]
            dr, dc = _lu_solve(lu_real, *r), _lu_solve(lu_complex, *c)
        except (ArithmeticError, ValueError):
            break
        dw = (dr[0], dr[1], dc[0].real, dc[1].real, dc[0].imag, dc[1].imag)
        dw_norm = _rms(dw[0] / s0, dw[1] / s1, dw[2] / s0, dw[3] / s1, dw[4] / s0, dw[5] / s1)
        if norm_old is not None:
            rate = dw_norm / norm_old
        if rate is not None and (
                rate >= 1 or rate ** (_NEWTON_MAXITER - k) / (1 - rate) * dw_norm > tol):
            break
        w = [a + b for a, b in zip(w, dw)]
        z = _mix(_T, w)
        if dw_norm == 0 or rate is not None and rate / (1 - rate) * dw_norm < tol:
            return True, k + 1, z, rate
        norm_old = dw_norm
    return False, k + 1, z, rate


def _radau(fun, jac, t_end: float, rtol: float, atol: float):
    """Radau IIA(5) for a two-component system y' = fun(t, y), y(0) = 0, on
    [0, t_end], in Python floats: SciPy's ``Radau`` step for step (Newton
    rate tests, error estimate, predictive step control, Jacobian reuse,
    initial step), with the real and complex 2x2 systems in closed form.

    Returns the step times and the rows (t_old, step, Q[0], Q[1], y_old)
    of the steps' collocation polynomials.  Raises
    :class:`CorrectionSolveError` when the step falls below ten ulps of t
    or a right-hand side at an accepted point is not finite.
    """
    newton_tol = max(10 * _EPS / rtol, min(0.03, rtol ** 0.5))
    rtol = max(rtol, 100 * _EPS)          # SciPy floors rtol, not newton_tol
    t, y = 0.0, (0.0, 0.0)
    try:
        f = fun(t, y)
        # initial step (Hairer, Norsett & Wanner I, II.4) for the order-3
        # error estimate; y(0) = 0, so h0 = 1e-6
        h0 = min(1e-6, t_end)
        f1 = fun(t + h0, (h0 * f[0], h0 * f[1]))
        d1 = _rms(f[0] / atol, f[1] / atol)
        d2 = _rms((f1[0] - f[0]) / atol, (f1[1] - f[1]) / atol) / h0
        h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
              else (0.01 / max(d1, d2)) ** 0.25)
        proposal = min(100 * h0, h1, t_end)
        J, current_jac = jac(t, y), True
        lu_real = lu_complex = h_abs_old = error_norm_old = previous = None
        times, rows = [t], []
        while t < t_end:
            min_step = 10 * (math.nextafter(t, math.inf) - t)
            h_abs, h_old, err_old = proposal, h_abs_old, error_norm_old
            if proposal < min_step:
                h_abs, h_old, err_old = min_step, None, None
            rejected = False
            while True:
                if not h_abs >= min_step:
                    raise CorrectionSolveError(f"correction ODE solve failed: step below "
                                               f"{min_step:.3g} at t={t:.6g}")
                t_new = min(t + h_abs, t_end)
                h = h_abs = t_new - t
                if previous is None:
                    z0 = [0.0] * 6
                else:
                    z0 = [v - y[j] for i in range(3)
                          for j, v in enumerate(_collocation(t + h * _C[i], *previous))]
                s0, s1 = atol + abs(y[0]) * rtol, atol + abs(y[1]) * rtol
                converged = False
                while not converged:
                    if lu_real is None or lu_complex is None:
                        lu_real, lu_complex = _lu(_MU_REAL / h, J), _lu(_MU_COMPLEX / h, J)
                    converged, n_iter, z, rate = _newton(
                        fun, t, y, h, z0, s0, s1, newton_tol, lu_real, lu_complex)
                    if not converged:
                        if current_jac:
                            break
                        J, current_jac = jac(t, y), True
                        lu_real = lu_complex = None
                if not converged:
                    h_abs *= 0.5
                    lu_real = lu_complex = None
                    continue
                y_new = (y[0] + z[4], y[1] + z[5])
                ze = [(z[j] * _E[0] + z[2 + j] * _E[1] + z[4 + j] * _E[2]) / h
                      for j in (0, 1)]
                error = _lu_solve(lu_real, f[0] + ze[0], f[1] + ze[1])
                s0 = atol + max(abs(y[0]), abs(y_new[0])) * rtol
                s1 = atol + max(abs(y[1]), abs(y_new[1])) * rtol
                error_norm = _rms(error[0] / s0, error[1] / s1)
                safety = 0.9 * (2 * _NEWTON_MAXITER + 1) / (2 * _NEWTON_MAXITER + n_iter)
                if rejected and error_norm > 1:
                    g = fun(t, (y[0] + error[0], y[1] + error[1]))
                    error = _lu_solve(lu_real, g[0] + ze[0], g[1] + ze[1])
                    error_norm = _rms(error[0] / s0, error[1] / s1)
                if error_norm > 1:
                    factor = _predict_factor(h_abs, h_old, error_norm, err_old)
                    h_abs *= max(_MIN_FACTOR, safety * factor)
                    lu_real = lu_complex = None
                    rejected = True
                else:
                    break
            recompute_jac = n_iter > 2 and rate > 1e-3
            factor = _predict_factor(h_abs, h_old, error_norm, err_old)
            growth = min(_MAX_FACTOR, safety * factor)
            if not recompute_jac and growth < 1.2:
                growth = 1.0
            else:
                lu_real = lu_complex = None
            f = fun(t_new, y_new)
            if not (math.isfinite(f[0]) and math.isfinite(f[1])):
                raise CorrectionSolveError(f"correction ODE solve failed: non-finite "
                                           f"right-hand side at t={t_new:.6g}")
            J, current_jac = (jac(t_new, y_new), True) if recompute_jac else (J, False)
            h_abs_old, error_norm_old, proposal = proposal, error_norm, h_abs * growth
            q = _mix(_P_T, z)
            previous = (t, h, q[0], q[2], q[4], q[1], q[3], q[5], y[0], y[1])
            rows.append(previous)
            t, y = t_new, y_new
            times.append(t)
    except (ArithmeticError, ValueError) as exc:   # overflow, zero pivot, domain
        raise CorrectionSolveError(f"correction ODE solve failed at t={t:.6g}: {exc}") from exc
    return np.array(times), np.array(rows)


def _evaluate(step_times, segments, t):
    """(h, h_t) at t from the collocation table: a step time belongs to the
    step on its left, times outside [0, t_end] use the first or last step."""
    t = _as_time(t)
    last = len(segments) - 1
    if isinstance(t, float):
        i = bisect.bisect_left(step_times, t) - 1
        return _collocation(t, *segments[min(max(i, 0), last)].tolist())
    i = np.clip(np.searchsorted(step_times, t, side="left") - 1, 0, last)
    return _collocation(t, *np.moveaxis(segments[i], -1, 0))


def theta_derivatives(path, t):
    """(theta, theta_t, theta_tt, theta_ttt) from one dense evaluation;
    the second and third derivatives come from the ODE
    theta'' + (1+t)^(-lam) theta' = kappa theta^q and its derivative.
    Floats for a scalar t, arrays otherwise."""
    t = _as_time(t)
    p = path.params
    q = p.n - p.n * p.gamma - 1.0
    h, h_t = _evaluate(path.step_times, path.segments, t)
    th = p.nu(t) + h
    th_t = p.nu_t(t) + h_t
    th_tt = p.kappa * th ** q - (1.0 + t) ** (-p.lam) * th_t
    th_ttt = (
        p.kappa * q * th ** (q - 1.0) * th_t
        + p.lam * (1.0 + t) ** (-p.lam - 1.0) * th_t
        - (1.0 + t) ** (-p.lam) * th_tt
    )
    return th, th_t, th_tt, th_ttt


def coefficients(path, t: float) -> TimeCoefficients:
    """d, c and their first two derivatives at a scalar t, without the kept
    last result."""
    t = float(t)
    lam, e = path.params.lam, path.params.damping_power
    th, th1, th2, th3 = theta_derivatives(path, t)
    u = 1.0 + t
    d = (
        u ** (-lam) + 2.0 * th1 / th,
        -lam * u ** (-lam - 1.0) + 2.0 * (th2 / th - th1 ** 2 / th ** 2),
        lam * (lam + 1.0) * u ** (-lam - 2.0) + 2.0 * (
            th3 / th - 3.0 * th1 * th2 / th ** 2 + 2.0 * th1 ** 3 / th ** 3),
    )
    c = (
        th ** (-e),
        -e * th ** (-e - 1.0) * th1,
        e * (e + 1.0) * th ** (-e - 2.0) * th1 ** 2 - e * th ** (-e - 1.0) * th2,
    )
    return TimeCoefficients(t=t, d=d, c=c)
