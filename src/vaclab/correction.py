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

A solved path keeps the steps' collocation polynomials as one float64
table and evaluates them itself: a scalar time in Python floats, an array
of times with the same elementwise arithmetic in NumPy, so both agree
bitwise.  The time coefficients of the perturbation equations are read at
every stage of every step.
"""
from __future__ import annotations

import bisect
import functools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .fitting import DecayFit, decay_fit
from .params import PhysParams
from .quadrature import jacobi_rule_01
from .tables import write_csv

logger = logging.getLogger(__name__)

SAMPLES_PER_DECADE = 200
FIRST_SAMPLE_TIME = 1e-2


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


def _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old):
    """Step factor of the predictive (Gustafsson) controller, as SciPy's."""
    if error_norm == 0:
        return math.inf
    multiplier = (1.0 if error_norm_old is None or h_abs_old is None
                  else h_abs / h_abs_old * (error_norm_old / error_norm) ** 0.25)
    return min(1.0, multiplier) * error_norm ** -0.25


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


@dataclass(frozen=True)
class TimeCoefficients:
    """The time coefficients of every perturbation equation at one time t,

        d(t) = (1+t)^(-lam) + 2 theta_t/theta,   c(t) = theta^-(n*gamma-n+2),

    each as (value, first, second) time derivative.
    """

    t: float
    d: tuple[float, float, float]
    c: tuple[float, float, float]


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
    """(h, h_t) at t from the collocation table: a step time belongs to the
    step on its left, times outside [0, t_end] use the first or last step."""
    t = _as_time(t)
    last = len(segments) - 1
    if isinstance(t, float):
        i = bisect.bisect_left(step_times, t) - 1
        return _collocation(t, *segments[min(max(i, 0), last)].tolist())
    i = np.clip(np.searchsorted(step_times, t, side="left") - 1, 0, last)
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
    Python floats, an array of times with the same arithmetic in NumPy.
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

    def _dense(self, t):
        """(h, h_t) at t: floats for a scalar t, arrays shaped like t."""
        return _evaluate(self.step_times, self.segments, t)

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

    def theta_derivatives(self, t):
        """(theta, theta_t, theta_tt, theta_ttt) from one dense evaluation;
        the second and third derivatives come from the ODE
        theta'' + (1+t)^(-lam) theta' = kappa theta^q and its derivative.
        Floats for a scalar t, arrays otherwise."""
        t = _as_time(t)
        p = self.params
        q = p.n - p.n * p.gamma - 1.0
        h, h_t = self._dense(t)
        th = p.nu(t) + h
        th_t = p.nu_t(t) + h_t
        th_tt = p.kappa * th ** q - (1.0 + t) ** (-p.lam) * th_t
        th_ttt = (
            p.kappa * q * th ** (q - 1.0) * th_t
            + p.lam * (1.0 + t) ** (-p.lam - 1.0) * th_t
            - (1.0 + t) ** (-p.lam) * th_tt
        )
        return th, th_t, th_tt, th_ttt

    def theta_derivative(self, t, order: int):
        if order == 0:
            return self.theta_at(t)
        if order == 1:
            return self.theta_t_at(t)
        if order in (2, 3):
            return self.theta_derivatives(t)[order]
        raise ValueError(f"theta derivatives available up to order 3, got {order}")

    def coefficients(self, t: float) -> TimeCoefficients:
        """d, c and their first two derivatives at a scalar t.  The last
        result is kept, so the coefficients of one time cost one dense
        evaluation however many callers read them."""
        last = self._last_coefficients
        if last is not None and last.t == t:
            return last
        t = float(t)
        lam, e = self.params.lam, self.params.damping_power
        th, th1, th2, th3 = self.theta_derivatives(t)
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
        coefficients = self._last_coefficients = TimeCoefficients(t=t, d=d, c=c)
        return coefficients

    def write_csv(self, path) -> None:
        write_csv(path, ("t", "h", "h_t", "theta", "theta_t"),
                  zip(self.t_grid, self.h, self.h_t, self.theta, self.theta_t))


def sample_grid(t_end: float) -> np.ndarray:
    decades = max(math.log10(t_end / FIRST_SAMPLE_TIME), 1.0)
    count = int(decades * SAMPLES_PER_DECADE)
    return np.concatenate([[0.0], np.geomspace(FIRST_SAMPLE_TIME, t_end, count)])


def solve_correction(params: PhysParams, t_end: float,
                     rel_tol: float = 1e-10, abs_tol: float = 1e-13) -> CorrectionPath:
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


def correction_path(params: PhysParams, t_end: float,
                    rel_tol: float = 1e-10, abs_tol: float = 1e-13) -> CorrectionPath:
    """:func:`solve_correction`, solved once per process for each argument set.

    Every caller with equal arguments, defaulted or explicit, receives the
    same path object; the few most recent paths are kept.  Callers must not
    modify it.
    """
    return _memoized_path(params, float(t_end), float(rel_tol), float(abs_tol))


def rk4_reference(params: PhysParams, t_end: float, dt: float) -> tuple[float, float]:
    """Classical fixed-step RK4 integration of (h, h'), as an independent
    cross-check of the adaptive path.  Returns (h, h_t) at t_end."""
    rhs = _correction_rhs(params)
    steps = int(round(t_end / dt))
    h = z = t = 0.0
    for _ in range(steps):
        k1 = rhs(t, (h, z))
        k2 = rhs(t + 0.5 * dt, (h + 0.5 * dt * k1[0], z + 0.5 * dt * k1[1]))
        k3 = rhs(t + 0.5 * dt, (h + 0.5 * dt * k2[0], z + 0.5 * dt * k2[1]))
        k4 = rhs(t + dt, (h + dt * k3[0], z + dt * k3[1]))
        h = h + dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        z = z + dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        t += dt
    return h, z


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
        return self.theta_t_positive and self.theta_above_one


def verify_theta_properties(path: CorrectionPath) -> ThetaPropertyReport:
    """Check theta_t > 0 and theta > 1 on interior samples and estimate the
    derivative envelopes |theta^(m)| <= C (1+t)^(kappa-m), m = 1..3, over
    the last four decades (from t = 100 at least)."""
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
    fit_window = (max(1e2, path.t_end / 1e4), path.t_end)
    # no-trend check on theta/nu over the last two decades
    drift = decay_fit(t, ratio, window=(path.t_end / 100.0, path.t_end)).exponent
    slopes = {}
    targets = {}
    for m in (1, 2, 3):
        values = np.abs(path.theta_derivative(t, m))
        fit = decay_fit(t, values, window=fit_window)
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


def fit_h_envelope(path: CorrectionPath,
                   window: tuple[float, float] | None = None) -> HEnvelopeFit:
    """Fit the tail of |h(t)|; at lambda=0 a (1+ln(1+t)) factor is included
    since the envelope carries a logarithm there."""
    if path.t_end < 1e4:
        raise ValueError("h-envelope fitting needs t_end >= 1e4")
    if window is None:
        window = (path.t_end / 100.0, path.t_end)
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

    The defect |d/dt y_dense - f(t, y_dense)| (derivatives by
    Richardson-extrapolated central differences) is multiplied by the local
    integrator step and divided by the local error tolerance
    atol + rtol*|y|; step control keeps this ratio O(1), and the invariant
    suite asserts it stays below 10.  Every fifth sample time is checked.
    """
    times = path.t_grid[2:-2:5]
    steps = np.diff(path.step_times)
    rhs = _correction_rhs(path.params)
    worst = 0.0
    for t in times:
        idx = np.searchsorted(path.step_times, t, side="right") - 1
        local_step = steps[min(max(idx, 0), steps.size - 1)]
        delta = min(1e-3 * (1.0 + t), 0.25 * local_step)

        def deriv(component):
            d1 = (path._dense(t + delta)[component] - path._dense(t - delta)[component]) / (2 * delta)
            d2 = (path._dense(t + delta / 2)[component] - path._dense(t - delta / 2)[component]) / delta
            return (4.0 * d2 - d1) / 3.0

        h, z = path._dense(t)
        f = rhs(t, (h, z))
        defect = np.array([abs(deriv(0) - z), abs(deriv(1) - f[1])])
        tol = path.abs_tol + path.rel_tol * np.abs([h, z])
        worst = max(worst, float(np.max(defect * local_step / tol)))
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
