"""Correction ODE for the background dilation and its long-time envelopes.

The ansatz dilation is theta(t) = nu(t) + h(t) where h solves

    h'' + (1+t)^(-lam) h' = kappa [(nu+h)^q - nu^q] + nu''-free forcing,
    q = n - n*gamma - 1,     h(0) = h'(0) = 0,

equivalently theta'' + (1+t)^(-lam) theta' = kappa theta^q with
(theta, theta')(0) = (1, kappa).  Integrating h directly (rather than
theta) keeps full relative accuracy in h at late times when h/nu ~ 1e-5.

The (h, h') system is solved by the module's own Radau IIA(5) collocation
integrator in Python floats (Hairer & Wanner, *Solving ODEs II*, IV.8).  It
follows SciPy's ``Radau`` step for step, with the same constants, Newton
iteration, error estimate, step controller and Jacobian reuse, and solves
its real and complex 2x2 systems in closed form; for two unknowns it costs
a fraction of SciPy's general n-dimensional machinery.  SciPy's ``Radau``
serves as the test oracle.

At the default settings a solve to t = 1e6 at rtol 1e-10 takes a few
thousand steps, and the right-hand side is a small share of a step: with
2x2 algebra, calling a helper, building a list or packing a tuple costs as
much as the arithmetic it wraps.  So the step loop and the simplified
Newton iteration are one function on local floats: about 17 us per step on
a 2-CPU x86-64 VM, where the loop that called helpers took 35-45 us.  That
version is kept in ``tests/radau_reference.py``.  The loop here keeps each
of its floating-point expressions, in the same order, and the tests
require equal step times and tables, bit for bit, on the oracle parameter
sets and on scripted right-hand sides that reach the rarer branches.

A solved path keeps the steps' collocation polynomials as one float64
table and evaluates them itself: a scalar time in Python floats, an array
of times with the same elementwise arithmetic in NumPy, so both agree
bitwise.  The damping d and the wave coefficient c of the perturbation
equations are read at every stage of every step, and no stage reads their
derivatives, so ``CorrectionPath.stage_coefficients`` forms only (d, c)
from one dense evaluation and keeps the last time's pair.
``CorrectionPath.coefficients``, which the output pass reads, forms d and
c by the same code (``_values``) and their first two derivatives with
``_theta_ode``, which forms theta'' and theta''' from the ODE and which
``theta_derivatives`` shares; the test reference keeps the version that
called ``theta_derivatives``.

One rule accepts a solved path, in the suite and the CLI alike:
``ThetaPropertyReport.ok`` (theta_t > 0, theta > 1, each derivative slope
at most ``SLOPE_SLACK`` above its envelope), an ODE residual of at most
``RESIDUAL_BOUND`` and, where it is fitted, ``HEnvelopeFit.ok`` (an h tail
exponent within ``H_ENVELOPE_TOL`` of its envelope).
"""
from __future__ import annotations

import bisect
import functools
import logging
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .config import OdeConfig
from .fitting import DecayFit, decay_fit
from .params import PhysParams
from .quadrature import jacobi_rule_01
from .tables import write_csv

logger = logging.getLogger(__name__)

SAMPLES_PER_DECADE = 200
FIRST_SAMPLE_TIME = 1e-2
SLOPE_WINDOW_START = 1e2  # tail fits start here or at t_end/1e4 (see tail_window)
SLOPE_MIN_SAMPLES = 4     # samples a slope fit needs in its window
# t_end from which the slope window keeps SLOPE_MIN_SAMPLES samples: one spacing more
# than they span, as sample_grid's is a little over 1/SAMPLES_PER_DECADE decade
MIN_SLOPE_HORIZON = SLOPE_WINDOW_START * 10.0 ** (SLOPE_MIN_SAMPLES / SAMPLES_PER_DECADE)
SLOPE_SLACK = 0.12       # a |theta^(m)| tail slope may exceed kappa - m by this
RESIDUAL_BOUND = 10.0    # largest accepted step-scaled residual of ode_residual
H_ENVELOPE_TOL = 0.05    # largest accepted error of the fitted h tail exponent


class CorrectionSolveError(RuntimeError):
    """Raised when the correction ODE solve fails or theta degenerates."""


def _correction_rhs(params: PhysParams):
    """The (h, h') system as f(t, y) -> (h', h'') in Python floats."""
    q = params.n - params.n * params.gamma - 1.0
    kappa, lam = params.kappa, params.lam
    expm1, log1p = math.expm1, math.log1p

    def rhs(t, y):
        h, z = y
        u = 1.0 + t
        nu = u ** kappa
        # kappa * ((nu+h)^q - nu^q), written to stay accurate for |h| << nu
        drive = kappa * u ** (kappa * q) * expm1(q * log1p(h / nu))
        nu_tt = kappa * (kappa - 1.0) * u ** (kappa - 2.0)
        return z, -u ** (-lam) * z + drive - nu_tt

    return rhs


def _correction_jac(params: PhysParams):
    """The Jacobian of :func:`_correction_rhs` as a 2x2 tuple of floats;
    ``math.pow`` raises rather than turn complex when theta = nu + h < 0."""
    q = params.n - params.n * params.gamma - 1.0
    kappa, lam = params.kappa, params.lam

    def jac(t, y):
        u = 1.0 + t
        return ((0.0, 1.0),
                (kappa * q * math.pow(u ** kappa + y[0], q - 1.0), -u ** (-lam)))

    return jac


# Radau IIA(5) in SciPy's formulation (``scipy.integrate.Radau``; Hairer &
# Wanner, *Solving ODEs II*, IV.8): nodes C, error weights E, the
# eigenvalues MU of the inverse Butcher matrix with its eigenvectors T and
# their inverse TI, and the collocation-polynomial coefficients P.
_S6 = 6 ** 0.5
_C = ((4 - _S6) / 10, (4 + _S6) / 10, 1.0)
_E = ((-13 - 7 * _S6) / 3, (-13 + 7 * _S6) / 3, -1 / 3)
_MU_REAL = 3 + 3 ** (2 / 3) - 3 ** (1 / 3)
_MU_COMPLEX = (3 + 0.5 * (3 ** (1 / 3) - 3 ** (2 / 3))
               - 0.5j * (3 ** (5 / 6) + 3 ** (7 / 6)))
_T = ((0.09443876248897524, -0.14125529502095421, 0.03002919410514742),
      (0.25021312296533332, 0.20412935229379994, -0.38294211275726192),
      (1.0, 1.0, 0.0))
_TI = ((4.17871859155190428, 0.32768282076106237, 0.52337644549944951),
       (-4.17871859155190428, -0.32768282076106237, 0.47662355450055044),
       (0.50287263494578682, -2.57192694985560522, 0.59603920482822492))
_TI_COMPLEX = tuple(a + 1j * b for a, b in zip(_TI[1], _TI[2]))
_P = ((13 / 3 + 7 * _S6 / 3, -23 / 3 - 22 * _S6 / 3, 10 / 3 + 5 * _S6),
      (13 / 3 - 7 * _S6 / 3, -23 / 3 + 22 * _S6 / 3, 10 / 3 - 5 * _S6),
      (1 / 3, -8 / 3, 10 / 3))
_P_T = tuple(zip(*_P))
_NEWTON_MAXITER = 6
_MIN_FACTOR, _MAX_FACTOR = 0.2, 10.0
_EPS = np.finfo(float).eps
_ROW = struct.Struct("10d")     # a row of CorrectionPath.segments, packed


def _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old):
    """Step factor of the predictive (Gustafsson) controller, as SciPy's."""
    if error_norm == 0:
        return math.inf
    multiplier = (1.0 if error_norm_old is None or h_abs_old is None
                  else h_abs / h_abs_old * (error_norm_old / error_norm) ** 0.25)
    return min(1.0, multiplier) * error_norm ** -0.25


def _radau(fun, jac, t_end: float, rtol: float, atol: float):
    """Radau IIA(5) for a two-component system y' = fun(t, y), y(0) = 0, on
    [0, t_end], in Python floats: SciPy's ``Radau`` step for step (Newton
    rate tests, error estimate, predictive step control, Jacobian reuse,
    initial step), with the real and complex 2x2 systems in closed form.

    Returns the step times and the rows (t_old, step, Q[0], Q[1], y_old)
    of the steps' collocation polynomials.  Raises
    :class:`CorrectionSolveError` when the step falls below ten ulps of t
    or a right-hand side at an accepted point is not finite.

    The step loop and the simplified Newton iteration (SciPy's
    ``solve_collocation_system``) work on local floats: the stage
    increments z, their transform w = TI z, the real matrix m I - J with
    its determinant, and the complex one.  SciPy's ``norm`` of k values,
    sqrt(sum(v*v)) / sqrt(k), keeps ``sum``: it rounds differently from
    chained additions from Python 3.12 on.
    """
    c0, c1, c2 = _C
    e0, e1, e2 = _E
    (ti00, ti01, ti02), (ti10, ti11, ti12), (ti20, ti21, ti22) = _TI
    tc0, tc1, tc2 = _TI_COMPLEX
    (tt00, tt01, tt02), (tt10, tt11, tt12), (tt20, tt21, tt22) = _T
    (pp00, pp01, pp02), (pp10, pp11, pp12), (pp20, pp21, pp22) = _P_T
    maxiter, isfinite, sqrt, inf = _NEWTON_MAXITER, math.isfinite, math.sqrt, math.inf
    root2, root6 = 2 ** 0.5, 6 ** 0.5
    newton_tol = max(10 * _EPS / rtol, min(0.03, rtol ** 0.5))
    rtol = max(rtol, 100 * _EPS)          # SciPy floors rtol, not newton_tol
    t, y0, y1 = 0.0, 0.0, 0.0
    try:
        fy0, fy1 = fun(t, (y0, y1))
        # initial step (Hairer, Norsett & Wanner I, II.4) for the order-3
        # error estimate; y(0) = 0, so h0 = 1e-6
        h0 = min(1e-6, t_end)
        f1 = fun(t + h0, (h0 * fy0, h0 * fy1))
        u0, u1 = fy0 / atol, fy1 / atol
        d1 = sqrt(sum((u0 * u0, u1 * u1))) / root2
        u0, u1 = (f1[0] - fy0) / atol, (f1[1] - fy1) / atol
        d2 = sqrt(sum((u0 * u0, u1 * u1))) / root2 / h0
        h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
              else (0.01 / max(d1, d2)) ** 0.25)
        proposal = min(100 * h0, h1, t_end)
        (j00, j01), (j10, j11) = jac(t, (y0, y1))
        # lu_stale: m I - J is formed again before the next Newton
        # iteration, where SciPy sets its LU factors to None
        current_jac, lu_stale = True, True
        h_abs_old = error_norm_old = previous = None
        times, rows = [t], []
        while t < t_end:
            min_step = 10 * (math.nextafter(t, inf) - t)
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
                ts0, ts1, ts2 = t + h * c0, t + h * c1, t + h * c2
                m_real, m_complex = _MU_REAL / h, _MU_COMPLEX / h
                # predictor: the previous step's collocation polynomial at
                # the stages, as _collocation evaluates it, less y
                if previous is None:
                    zp0 = zp1 = zp2 = zp3 = zp4 = zp5 = 0.0
                else:
                    t_old, step, q00, q01, q02, q10, q11, q12, v0, v1 = previous
                    x = (ts0 - t_old) / step
                    x2 = x * x
                    x3 = x2 * x
                    zp0 = q00 * x + q01 * x2 + q02 * x3 + v0 - y0
                    zp1 = q10 * x + q11 * x2 + q12 * x3 + v1 - y1
                    x = (ts1 - t_old) / step
                    x2 = x * x
                    x3 = x2 * x
                    zp2 = q00 * x + q01 * x2 + q02 * x3 + v0 - y0
                    zp3 = q10 * x + q11 * x2 + q12 * x3 + v1 - y1
                    x = (ts2 - t_old) / step
                    x2 = x * x
                    x3 = x2 * x
                    zp4 = q00 * x + q01 * x2 + q02 * x3 + v0 - y0
                    zp5 = q10 * x + q11 * x2 + q12 * x3 + v1 - y1
                s0, s1 = atol + abs(y0) * rtol, atol + abs(y1) * rtol
                converged = False
                while not converged:
                    if lu_stale:
                        a01, a10 = -j01, -j10
                        ra00, ra11 = m_real - j00, m_real - j11
                        rdet = ra00 * ra11 - a01 * a10
                        ca00, ca11 = m_complex - j00, m_complex - j11
                        cdet = ca00 * ca11 - a01 * a10
                        lu_stale = False
                    # simplified Newton iteration from the predictor; a
                    # non-finite or failing right-hand side ends it unconverged
                    z0, z1, z2, z3, z4, z5 = zp0, zp1, zp2, zp3, zp4, zp5
                    w0 = ti00 * z0 + ti01 * z2 + ti02 * z4
                    w1 = ti00 * z1 + ti01 * z3 + ti02 * z5
                    w2 = ti10 * z0 + ti11 * z2 + ti12 * z4
                    w3 = ti10 * z1 + ti11 * z3 + ti12 * z5
                    w4 = ti20 * z0 + ti21 * z2 + ti22 * z4
                    w5 = ti20 * z1 + ti21 * z3 + ti22 * z5
                    rate = norm_old = None
                    for k in range(maxiter):
                        try:
                            f0, f1 = fun(ts0, (y0 + z0, y1 + z1))
                            f2, f3 = fun(ts1, (y0 + z2, y1 + z3))
                            f4, f5 = fun(ts2, (y0 + z4, y1 + z5))
                            if not (isfinite(f0) and isfinite(f1) and isfinite(f2)
                                    and isfinite(f3) and isfinite(f4) and isfinite(f5)):
                                break
                            r0 = f0 * ti00 + f2 * ti01 + f4 * ti02 - m_real * w0
                            r1 = f1 * ti00 + f3 * ti01 + f5 * ti02 - m_real * w1
                            rc0 = f0 * tc0 + f2 * tc1 + f4 * tc2 - m_complex * (w2 + 1j * w4)
                            rc1 = f1 * tc0 + f3 * tc1 + f5 * tc2 - m_complex * (w3 + 1j * w5)
                            dw0 = (ra11 * r0 - a01 * r1) / rdet
                            dw1 = (ra00 * r1 - a10 * r0) / rdet
                            dc0 = (ca11 * rc0 - a01 * rc1) / cdet
                            dc1 = (ca00 * rc1 - a10 * rc0) / cdet
                        except (ArithmeticError, ValueError):
                            break
                        dw2, dw3, dw4, dw5 = dc0.real, dc1.real, dc0.imag, dc1.imag
                        u0, u1, u2 = dw0 / s0, dw1 / s1, dw2 / s0
                        u3, u4, u5 = dw3 / s1, dw4 / s0, dw5 / s1
                        dw_norm = sqrt(sum((u0 * u0, u1 * u1, u2 * u2,
                                            u3 * u3, u4 * u4, u5 * u5))) / root6
                        if norm_old is not None:
                            rate = dw_norm / norm_old
                        if rate is not None and (
                                rate >= 1 or rate ** (maxiter - k) / (1 - rate) * dw_norm
                                > newton_tol):
                            break
                        w0, w1, w2 = w0 + dw0, w1 + dw1, w2 + dw2
                        w3, w4, w5 = w3 + dw3, w4 + dw4, w5 + dw5
                        z0 = tt00 * w0 + tt01 * w2 + tt02 * w4
                        z1 = tt00 * w1 + tt01 * w3 + tt02 * w5
                        z2 = tt10 * w0 + tt11 * w2 + tt12 * w4
                        z3 = tt10 * w1 + tt11 * w3 + tt12 * w5
                        z4 = tt20 * w0 + tt21 * w2 + tt22 * w4
                        z5 = tt20 * w1 + tt21 * w3 + tt22 * w5
                        if dw_norm == 0 or rate is not None and rate / (1 - rate) * dw_norm \
                                < newton_tol:
                            converged = True
                            break
                        norm_old = dw_norm
                    n_iter = k + 1
                    if not converged:
                        if current_jac:
                            break
                        (j00, j01), (j10, j11) = jac(t, (y0, y1))
                        current_jac, lu_stale = True, True
                if not converged:
                    h_abs *= 0.5
                    lu_stale = True
                    continue
                yn0, yn1 = y0 + z4, y1 + z5
                ze0 = (z0 * e0 + z2 * e1 + z4 * e2) / h
                ze1 = (z1 * e0 + z3 * e1 + z5 * e2) / h
                r0, r1 = fy0 + ze0, fy1 + ze1
                err0, err1 = (ra11 * r0 - a01 * r1) / rdet, (ra00 * r1 - a10 * r0) / rdet
                s0 = atol + max(abs(y0), abs(yn0)) * rtol
                s1 = atol + max(abs(y1), abs(yn1)) * rtol
                u0, u1 = err0 / s0, err1 / s1
                error_norm = sqrt(sum((u0 * u0, u1 * u1))) / root2
                safety = 0.9 * (2 * maxiter + 1) / (2 * maxiter + n_iter)
                if rejected and error_norm > 1:
                    g0, g1 = fun(t, (y0 + err0, y1 + err1))
                    r0, r1 = g0 + ze0, g1 + ze1
                    err0, err1 = (ra11 * r0 - a01 * r1) / rdet, (ra00 * r1 - a10 * r0) / rdet
                    u0, u1 = err0 / s0, err1 / s1
                    error_norm = sqrt(sum((u0 * u0, u1 * u1))) / root2
                if error_norm > 1:
                    factor = _predict_factor(h_abs, h_old, error_norm, err_old)
                    h_abs *= max(_MIN_FACTOR, safety * factor)
                    lu_stale = rejected = True
                else:
                    break
            recompute_jac = n_iter > 2 and rate > 1e-3
            factor = _predict_factor(h_abs, h_old, error_norm, err_old)
            growth = min(_MAX_FACTOR, safety * factor)
            if not recompute_jac and growth < 1.2:
                growth = 1.0
            else:
                lu_stale = True
            fy0, fy1 = fun(t_new, (yn0, yn1))
            if not (isfinite(fy0) and isfinite(fy1)):
                raise CorrectionSolveError(f"correction ODE solve failed: non-finite "
                                           f"right-hand side at t={t_new:.6g}")
            if recompute_jac:
                (j00, j01), (j10, j11) = jac(t_new, (yn0, yn1))
            current_jac = recompute_jac
            h_abs_old, error_norm_old, proposal = proposal, error_norm, h_abs * growth
            previous = (t, h,
                        pp00 * z0 + pp01 * z2 + pp02 * z4,
                        pp10 * z0 + pp11 * z2 + pp12 * z4,
                        pp20 * z0 + pp21 * z2 + pp22 * z4,
                        pp00 * z1 + pp01 * z3 + pp02 * z5,
                        pp10 * z1 + pp11 * z3 + pp12 * z5,
                        pp20 * z1 + pp21 * z3 + pp22 * z5,
                        y0, y1)
            rows.append(previous)
            t, y0, y1 = t_new, yn0, yn1
            times.append(t)
    except (ArithmeticError, ValueError) as exc:   # overflow, zero pivot, domain
        raise CorrectionSolveError(f"correction ODE solve failed at t={t:.6g}: {exc}") from exc
    return np.array(times), np.array(rows)


@dataclass(frozen=True)
class TimeCoefficients:
    """The time coefficients of every perturbation equation at one time t,

        d(t) = (1+t)^(-lam) + 2 theta_t/theta,   c(t) = theta^-(n*gamma-n+2),

    each as (value, first, second) time derivative: floats at one time,
    or arrays over a stack of output times (:meth:`CorrectionPath.coefficients`).
    """

    t: float
    d: tuple[float, float, float]
    c: tuple[float, float, float]

    def derivatives(self, u, u_t, k0, k1_ut, k2_ut, k1_of) -> dict:
        """partial_t^k u, k = 0..4, of u_tt = -d u_t - c K(u), obtained by
        differentiating the equation rather than differencing a trajectory.
        It reads K(u), K'(u)[u_t], K''(u)[u_t, u_t] and the map
        v -> K'(u)[v], elementwise on arrays of any shape."""
        d0, d1, d2 = self.d
        c0, c1, c2 = self.c
        acc = -d0 * u_t - c0 * k0
        jerk = -d1 * u_t - d0 * acc - c1 * k0 - c0 * k1_ut
        snap = (-d2 * u_t - 2.0 * d1 * acc - d0 * jerk
                - c2 * k0 - 2.0 * c1 * k1_ut - c0 * (k2_ut + k1_of(acc)))
        return {0: u, 1: u_t, 2: acc, 3: jerk, 4: snap}


def per_output(t, f) -> tuple:
    """The tuple of Python floats f(t) at a scalar time t.  At an array of
    output times, one array shaped like ``t`` per entry of f, holding f at
    each time: every value is formed in Python floats as at a scalar time,
    since NumPy's array ``**`` does not round as Python's float ``**``."""
    if np.ndim(t) == 0:
        return f(t)
    return tuple(np.reshape(column, np.shape(t))
                 for column in zip(*map(f, np.ravel(t).tolist())))


def _as_time(t):
    """A scalar time as a Python float, any other time as a float array."""
    if isinstance(t, float) or np.ndim(t) == 0:
        return float(t)
    return np.asarray(t, dtype=float)


def _collocation(t, t_old, step, q00, q01, q02, q10, q11, q12, y0, y1):
    """(h, h_t) = y_old + Q (x, x^2, x^3) with x = (t - t_old)/step, the
    arithmetic of SciPy's ``RadauDenseOutput`` summed left to right; floats
    and arrays alike."""
    x = (t - t_old) / step
    x2 = x * x
    x3 = x2 * x
    return q00 * x + q01 * x2 + q02 * x3 + y0, q10 * x + q11 * x2 + q12 * x3 + y1


def _evaluate(step_times, segments, t):
    """(h, h_t) at an array of times from the collocation table: a step time
    belongs to the step on its left, times outside [0, t_end] use the first
    or last step."""
    i = np.clip(np.searchsorted(step_times, t, side="left") - 1, 0, len(segments) - 1)
    return _collocation(t, *np.moveaxis(segments[i], -1, 0))


@dataclass
class CorrectionPath:
    """Solved correction trajectory with its own dense evaluator.

    Samples are stored on a log-spaced grid.  Any time evaluates the cubic
    Radau collocation polynomial of the integrator step that contains it:
    row i of ``segments`` holds (t_old, step, Q[0], Q[1], y_old) of step i,
    one float64 table laid out like SciPy's ``RadauDenseOutput``.  As in
    SciPy's ``OdeSolution``, a step time belongs to the step on its left,
    and times outside [0, t_end] use the first or last step.  A scalar time is evaluated in
    Python floats, an array of times with the same arithmetic in NumPy.  For
    a scalar the path keeps the step times as a Python list to bisect and
    the table as packed float64 bytes, from which a row is read as floats.
    """

    params: PhysParams
    t_end: float
    rel_tol: float
    abs_tol: float
    t_grid: np.ndarray
    h: np.ndarray
    h_t: np.ndarray
    theta: np.ndarray
    theta_t: np.ndarray
    step_times: np.ndarray = field(repr=False)
    segments: np.ndarray = field(repr=False)
    _last_coefficients: TimeCoefficients | None = field(default=None, init=False, repr=False)
    _last_stage: tuple = field(default=(None, None), init=False, repr=False)
    _times: list = field(init=False, repr=False, compare=False)
    _table: bytes = field(init=False, repr=False, compare=False)
    _exponents: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._times = self.step_times.tolist()
        self._table = np.asarray(self.segments, dtype=float).tobytes()
        p = self.params
        # lam, kappa, q = n - n gamma - 1 and e = n gamma - n + 2
        self._exponents = (p.lam, p.kappa, p.n - p.n * p.gamma - 1.0, p.damping_power)

    def _dense(self, t):
        """(h, h_t) at t: floats for a scalar t, arrays shaped like t."""
        t = _as_time(t)
        if not isinstance(t, float):
            return _evaluate(self.step_times, self.segments, t)
        times = self._times
        # the searchsorted-and-clip of _evaluate, in one bisection
        i = bisect.bisect_left(times, t, 1, len(times) - 1) - 1
        return _collocation(t, *_ROW.unpack_from(self._table, _ROW.size * i))

    def h_at(self, t):
        return self._dense(t)[0]

    def h_t_at(self, t):
        return self._dense(t)[1]

    def theta_at(self, t):
        t = _as_time(t)
        return self.params.nu(t) + self.h_at(t)

    def theta_t_at(self, t):
        t = _as_time(t)
        return self.params.nu_t(t) + self.h_t_at(t)

    def _theta_ode(self, u, th, th1):
        """(u^-lam, u^(-lam-1), theta_tt, theta_ttt) at u = 1 + t from theta
        and theta_t, by the ODE theta'' + u^(-lam) theta' = kappa theta^q and
        its derivative.  Floats or arrays."""
        lam, kappa, q, _ = self._exponents
        u_lam, u_lam1 = u ** (-lam), u ** (-lam - 1.0)
        th2 = kappa * th ** q - u_lam * th1
        th3 = kappa * q * th ** (q - 1.0) * th1 + lam * u_lam1 * th1 - u_lam * th2
        return u_lam, u_lam1, th2, th3

    def theta_derivatives(self, t):
        """(theta, theta_t, theta_tt, theta_ttt): floats for a scalar t,
        arrays otherwise."""
        t = _as_time(t)
        th, th1 = self.theta_at(t), self.theta_t_at(t)
        return (th, th1) + self._theta_ode(1.0 + t, th, th1)[2:]

    def _values(self, t: float):
        """(u, theta, theta_t, d, c) at a float t, u = 1 + t, from one dense
        evaluation.  Theta and theta_t are those of :meth:`theta_derivatives`,
        same arithmetic, with nu and nu_t of PhysParams written out."""
        lam, kappa, _, e = self._exponents
        h, h_t = self._dense(t)
        u = 1.0 + t
        th = u ** kappa + h
        th1 = kappa * u ** (kappa - 1.0) + h_t
        return u, th, th1, u ** (-lam) + 2.0 * th1 / th, th ** (-e)

    def stage_coefficients(self, t: float) -> tuple[float, float]:
        """(d, c) at a scalar t, the two values a stage of the perturbation
        equations reads.  The last time's pair is kept, so the damping, the
        wave coefficient and the step cap at one time cost one dense
        evaluation."""
        last_t, last = self._last_stage
        if last_t == t:
            return last
        pair = self._values(float(t))[3:]
        self._last_stage = (t, pair)
        return pair

    def coefficients(self, t) -> TimeCoefficients:
        """d, c and their first two derivatives at a scalar t.  The last
        result is kept, so the coefficients of one time cost one dense
        evaluation however many callers read them.  d and c are those of
        :meth:`stage_coefficients`, formed by the same code.  At an array of
        output times each entry is an array shaped like t, formed time by
        time (:func:`per_output`)."""
        if isinstance(t, np.ndarray):
            values = per_output(t, lambda s: self.coefficients(s).d + self.coefficients(s).c)
            return TimeCoefficients(t, values[:3], values[3:])
        last = self._last_coefficients
        if last is not None and last.t == t:
            return last
        t = float(t)
        lam, _, _, e = self._exponents
        u, th, th1, d0, c0 = self._values(t)
        _, u_lam1, th2, th3 = self._theta_ode(u, th, th1)
        d = (
            d0,
            -lam * u_lam1 + 2.0 * (th2 / th - th1 ** 2 / th ** 2),
            lam * (lam + 1.0) * u ** (-lam - 2.0) + 2.0 * (
                th3 / th - 3.0 * th1 * th2 / th ** 2 + 2.0 * th1 ** 3 / th ** 3),
        )
        th_e1 = th ** (-e - 1.0)
        c = (
            c0,
            -e * th_e1 * th1,
            e * (e + 1.0) * th ** (-e - 2.0) * th1 ** 2 - e * th_e1 * th2,
        )
        coefficients = self._last_coefficients = TimeCoefficients(t, d, c)
        return coefficients

    def write_csv(self, path) -> None:
        write_csv(path, {"t": self.t_grid, "h": self.h, "h_t": self.h_t,
                         "theta": self.theta, "theta_t": self.theta_t})


def sample_grid(t_end: float) -> np.ndarray:
    decades = max(math.log10(t_end / FIRST_SAMPLE_TIME), 1.0)
    count = int(decades * SAMPLES_PER_DECADE)
    return np.concatenate([[0.0], np.geomspace(FIRST_SAMPLE_TIME, t_end, count)])


def solve_correction(params: PhysParams, t_end: float, rel_tol: float = OdeConfig.rel_tol,
                     abs_tol: float = OdeConfig.abs_tol) -> CorrectionPath:
    """Adaptive high-order integration of the correction ODE with dense output."""
    if t_end < 1.0:
        raise ValueError("t_end must be at least 1")
    if t_end > 1e8:
        raise ValueError("t_end above 1e8 is not supported")
    if not 0.0 < rel_tol <= 1e-3 or not 0.0 < abs_tol <= 1e-3:
        raise ValueError("tolerances must lie in (0, 1e-3]")
    # At lambda=0 the damping coefficient stays O(1) while solution time
    # scales grow like t, so an explicit pair would be stability-limited to
    # O(t_end) steps; the implicit Radau collocation method handles the
    # whole admissible range in a few thousand steps.
    step_times, segments = _radau(_correction_rhs(params), _correction_jac(params),
                                  float(t_end), rel_tol, abs_tol)
    t_grid = sample_grid(t_end)
    h, h_t = _evaluate(step_times, segments, t_grid)
    theta = params.nu(t_grid) + h
    if np.any(theta <= 0.0) or not np.all(np.isfinite(h)):
        raise CorrectionSolveError("theta lost positivity; solver failure")
    path = CorrectionPath(
        params=params, t_end=float(t_end), rel_tol=rel_tol, abs_tol=abs_tol,
        t_grid=t_grid, h=h, h_t=h_t, theta=theta,
        theta_t=params.nu_t(t_grid) + h_t,
        step_times=step_times, segments=segments,
    )
    logger.debug(
        "correction solved to t=%.3g in %d steps (h(T)=%.3e)", t_end, len(segments), h[-1]
    )
    return path


@functools.lru_cache(maxsize=8)
def _memoized_path(params: PhysParams, t_end: float, rel_tol: float,
                   abs_tol: float) -> CorrectionPath:
    return solve_correction(params, t_end, rel_tol, abs_tol)


def correction_path(params: PhysParams, t_end: float, rel_tol: float = OdeConfig.rel_tol,
                    abs_tol: float = OdeConfig.abs_tol) -> CorrectionPath:
    """:func:`solve_correction`, solved once per process for each argument set.

    Every caller with equal arguments, defaulted or explicit, receives the
    same path object; the few most recent paths are kept.  Callers must not
    modify it.
    """
    return _memoized_path(params, float(t_end), float(rel_tol), float(abs_tol))


@dataclass(frozen=True)
class ThetaPropertyReport:
    """Outcome of the monotonicity / envelope checks on a solved path."""

    theta_t_positive: bool
    theta_above_one: bool
    first_violation: tuple[float, float, float] | None  # (t, theta, theta_t)
    theta_over_nu_min: float
    theta_over_nu_max: float
    theta_over_nu_drift: float   # tail slope of theta/nu (no-trend check)
    derivative_slopes: dict[int, float]
    derivative_slope_targets: dict[int, float]

    @property
    def ok(self) -> bool:
        """theta_t > 0, theta > 1, and each derivative slope at most
        ``SLOPE_SLACK`` above its envelope."""
        return self.theta_t_positive and self.theta_above_one and all(
            slope <= self.derivative_slope_targets[m] + SLOPE_SLACK
            for m, slope in self.derivative_slopes.items())


def tail_window(t_end: float) -> tuple[float, float]:
    """The window of the path's tail fits: the derivative slopes and the
    h envelope, over the last four decades (from t = 100 at least)."""
    return (max(SLOPE_WINDOW_START, t_end / 1e4), t_end)


def verify_theta_properties(path: CorrectionPath) -> ThetaPropertyReport:
    """Check theta_t > 0 and theta > 1 on interior samples and estimate the
    derivative envelopes |theta^(m)| <= C (1+t)^(kappa-m), m = 1..3, over
    :func:`tail_window`."""
    t = path.t_grid[1:]
    theta = path.theta[1:]
    theta_t = path.theta_t[1:]
    pos = theta_t > 0.0
    above = theta > 1.0
    first_violation = None
    bad = ~(pos & above)
    if np.any(bad):
        i = int(np.argmax(bad))
        first_violation = (float(t[i]), float(theta[i]), float(theta_t[i]))
    ratio = theta / path.params.nu(t)
    fit_window = tail_window(path.t_end)
    # no-trend check on theta/nu over the last two decades
    drift = decay_fit(t, ratio, window=(path.t_end / 100.0, path.t_end)).exponent
    derivatives = path.theta_derivatives(t)
    slopes = {}
    targets = {}
    for m in (1, 2, 3):
        fit = decay_fit(t, np.abs(derivatives[m]), window=fit_window,
                        min_samples=SLOPE_MIN_SAMPLES)
        slopes[m] = fit.exponent
        targets[m] = path.params.kappa - m
    return ThetaPropertyReport(
        theta_t_positive=bool(np.all(pos)),
        theta_above_one=bool(np.all(above)),
        first_violation=first_violation,
        theta_over_nu_min=float(ratio.min()),
        theta_over_nu_max=float(ratio.max()),
        theta_over_nu_drift=float(drift),
        derivative_slopes=slopes,
        derivative_slope_targets=targets,
    )


@dataclass(frozen=True)
class HEnvelopeFit:
    """Tail fit of |h| against the proved envelope exponent kappa+lambda-1."""

    expected_exponent: float
    plain: DecayFit | None
    log_corrected: DecayFit | None
    degenerate: bool

    def best_exponent(self) -> float:
        fit = self.log_corrected if self.log_corrected is not None else self.plain
        if fit is None:
            raise ValueError("degenerate fit has no exponent")
        return fit.exponent

    @property
    def error(self) -> float:
        """Distance of the fitted exponent from the envelope's; a degenerate
        fit has none."""
        return abs(self.best_exponent() - self.expected_exponent)

    @property
    def ok(self) -> bool:
        """Not degenerate, and an error of at most ``H_ENVELOPE_TOL``."""
        return not self.degenerate and self.error <= H_ENVELOPE_TOL


def fit_h_envelope(path: CorrectionPath,
                   window: tuple[float, float] | None = None) -> HEnvelopeFit:
    """Fit the tail of |h(t)| over ``window``, by default the
    :func:`tail_window` of the derivative slopes; at lambda=0 a
    (1+ln(1+t)) factor is included since the envelope carries a logarithm
    there."""
    if path.t_end < 1e4:
        raise ValueError("h-envelope fitting needs t_end >= 1e4")
    if window is None:
        window = tail_window(path.t_end)
    p = path.params
    expected = p.kappa + p.lam - 1.0
    habs = np.abs(path.h)
    if habs.max() < 1e-13:
        return HEnvelopeFit(expected_exponent=expected, plain=None,
                            log_corrected=None, degenerate=True)
    plain = decay_fit(path.t_grid, habs, window=window)
    logfit = decay_fit(path.t_grid, habs, window=window, log_corrected=True) \
        if p.lam == 0.0 else None
    return HEnvelopeFit(expected_exponent=expected, plain=plain,
                        log_corrected=logfit, degenerate=False)


def lyapunov_violations(path: CorrectionPath) -> int:
    """Count sample pairs violating monotonicity of the damped-oscillator
    functional kappa (n*gamma-n+1) h^2 + (1+t)^(lam+1) h_t^2 while h_t <= 0,
    beyond a relative and absolute slack of 1e-9."""
    slack = 1e-9
    p = path.params
    coef = p.kappa * (p.n * p.gamma - p.n + 1.0)
    value = coef * path.h ** 2 + (1.0 + path.t_grid) ** (p.lam + 1.0) * path.h_t ** 2
    both_down = (path.h_t[:-1] <= 0.0) & (path.h_t[1:] <= 0.0)
    increase = value[1:] > value[:-1] * (1.0 + slack) + slack * value.max()
    return int(np.count_nonzero(both_down & increase))


def ode_residual(path: CorrectionPath) -> float:
    """Max step-scaled defect of the dense output against the ODE.

    The defect |d/dt y_dense - f(t, y_dense)| takes the exact derivative
    (Q[0] + 2 Q[1] x + 3 Q[2] x^2) / step of the collocation polynomial that
    evaluates t.  It is multiplied by that step and divided by the local
    error tolerance atol + rtol*|y|; step control keeps this ratio O(1),
    and a path is accepted while it stays at most ``RESIDUAL_BOUND``.
    Every fifth sample time is checked.
    """
    times = path.t_grid[2:-2:5]
    rows = np.clip(np.searchsorted(path.step_times, times, side="left") - 1,
                   0, len(path.segments) - 1)
    rhs = _correction_rhs(path.params)
    worst = 0.0
    for t, row in zip(times.tolist(), path.segments[rows].tolist()):
        t_old, step, q00, q01, q02, q10, q11, q12, _, _ = row
        x = (t - t_old) / step
        h, z = _collocation(t, *row)
        f = rhs(t, (h, z))
        defect = np.array([abs((q00 + 2.0 * q01 * x + 3.0 * q02 * x * x) / step - z),
                           abs((q10 + 2.0 * q11 * x + 3.0 * q12 * x * x) / step - f[1])])
        tol = path.abs_tol + path.rel_tol * np.abs([h, z])
        worst = max(worst, float(np.max(defect * step / tol)))
    return worst


_LAYER_EFOLDS = 45.0      # the boundary layer keeps the integrand above e^-45 of its peak
_LAYER_PANELS = 45        # Gauss-Legendre panels across the layer
_PANEL_NODES = 8          # nodes per panel of the coarse rule; the fine rule has twice
_LAYER_REL_TOL = 1e-10


def boundary_layer_integral(lam: float, k: float, times) -> np.ndarray:
    """int_lo^t e^(psi(tau) - psi(t)) (1+tau)^(-k) dtau at each t of ``times``,
    with psi(t) = (1+t)^(1-lam)/(1-lam) and lo = max(0, t - 45 (1+t)^lam).

    psi' = (1+tau)^(-lam), so the layer spans at least 45 e-folds of the
    integrand below its peak at tau = t, and the discarded head is below
    e^-45 of the result.  The exponential is shifted so that only
    nonpositive exponents are exponentiated.  Composite Gauss-Legendre on 45
    equal panels, all times at once, with 8 and 16 nodes per panel; the
    16-node value is returned, and a RuntimeError is raised where the two
    differ by more than 1e-10 relative.
    """
    times = np.asarray(times, dtype=float)
    t = times[:, None, None]
    lo = np.maximum(0.0, t - _LAYER_EFOLDS * (1.0 + t) ** lam)
    width = (t - lo) / _LAYER_PANELS
    starts = lo + width * np.arange(_LAYER_PANELS)[:, None]
    psi_t = (1.0 + t) ** (1.0 - lam) / (1.0 - lam)

    def composite(nodes):
        s, w = jacobi_rule_01(nodes, 0.0, 0.0)
        tau = starts + width * s
        f = np.exp((1.0 + tau) ** (1.0 - lam) / (1.0 - lam) - psi_t) * (1.0 + tau) ** (-k)
        return (f @ w).sum(axis=1) * width[:, 0, 0]

    coarse, fine = composite(_PANEL_NODES), composite(2 * _PANEL_NODES)
    failed = np.abs(fine - coarse) > _LAYER_REL_TOL * np.abs(fine)
    if np.any(failed):
        raise RuntimeError("integrating-factor quadrature did not converge at "
                           f"t={times[failed][0]:g}")
    return fine


def integrating_factor_bound_check(lam: float, k: float, t_max: float) -> dict:
    """Evaluate F(t) = e^(-psi(t)) int_0^t e^(psi(tau)) (1+tau)^(-k) dtau
    with psi(t) = (1+t)^(1-lam)/(1-lam), and return the max of
    F(t) / (1+t)^(lam-k) over 40 log-spaced t in [1, t_max], each integral
    over the boundary layer of :func:`boundary_layer_integral` to a relative
    tolerance of 1e-10.
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError("lambda must lie in [0, 1)")
    if k <= 0.0 or t_max < 10.0:
        raise ValueError("need k > 0 and t_max >= 10")
    times = np.geomspace(1.0, t_max, 40)
    ratios = boundary_layer_integral(lam, k, times) / (1.0 + times) ** (lam - k)
    return {
        "times": times,
        "ratios": ratios,
        "max_ratio": float(ratios.max()),
    }
