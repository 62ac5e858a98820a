"""Correction ODE for the background dilation and its long-time envelopes.

The ansatz dilation is theta(t) = nu(t) + h(t) where h solves

    h'' + (1+t)^(-lam) h' = kappa [(nu+h)^q - nu^q] + nu''-free forcing,
    q = n - n*gamma - 1,     h(0) = h'(0) = 0,

equivalently theta'' + (1+t)^(-lam) theta' = kappa theta^q with
(theta, theta')(0) = (1, kappa).  Integrating h directly (rather than
theta) keeps full relative accuracy in h at late times when h/nu ~ 1e-5.

A solved path keeps SciPy's Radau collocation polynomials as one float64
table and evaluates them itself (Hairer & Wanner, *Solving ODEs II*,
IV.8): a scalar time in Python floats, an array of times with the same
elementwise arithmetic in NumPy, so both agree bitwise.  The time
coefficients of the perturbation equations are read at every stage of
every step, and the scalar route costs a fraction of SciPy's.
"""
from __future__ import annotations

import bisect
import functools
import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad, solve_ivp

from .fitting import DecayFit, decay_fit
from .params import PhysParams
from .tables import write_csv

logger = logging.getLogger(__name__)

SAMPLES_PER_DECADE = 200
FIRST_SAMPLE_TIME = 1e-2


class CorrectionSolveError(RuntimeError):
    """Raised when the correction ODE solve fails or theta degenerates."""


def _correction_rhs(params: PhysParams):
    q = params.n - params.n * params.gamma - 1.0
    kappa, lam = params.kappa, params.lam

    def rhs(t, y):
        h, z = y
        u = 1.0 + t
        nu = u ** kappa
        # kappa * ((nu+h)^q - nu^q), written to stay accurate for |h| << nu
        drive = kappa * u ** (kappa * q) * np.expm1(q * np.log1p(h / nu))
        nu_tt = kappa * (kappa - 1.0) * u ** (kappa - 2.0)
        return [z, -u ** (-lam) * z + drive - nu_tt]

    return rhs


def _correction_jac(params: PhysParams):
    q = params.n - params.n * params.gamma - 1.0
    kappa, lam = params.kappa, params.lam

    def jac(t, y):
        h, _ = y
        u = 1.0 + t
        nu = u ** kappa
        return [[0.0, 1.0],
                [kappa * q * (nu + h) ** (q - 1.0), -u ** (-lam)]]

    return jac


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


@dataclass
class CorrectionPath:
    """Solved correction trajectory with its own dense evaluator.

    Samples are stored on a log-spaced grid.  Any time evaluates the cubic
    Radau collocation polynomial of the integrator step that contains it:
    row i of ``segments`` holds (t_old, step, Q[0], Q[1], y_old) of step i,
    one float64 table in place of SciPy's ``OdeSolution``.  As there, a
    step time belongs to the step on its left, and times outside
    [0, t_end] use the first or last step.  A scalar time is evaluated in
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
        t = _as_time(t)
        last = len(self.segments) - 1
        if isinstance(t, float):
            i = bisect.bisect_left(self.step_times, t) - 1
            return _collocation(t, *self.segments[min(max(i, 0), last)].tolist())
        i = np.clip(np.searchsorted(self.step_times, t, side="left") - 1, 0, last)
        return _collocation(t, *np.moveaxis(self.segments[i], -1, 0))

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


def sample_grid(t_end: float, samples_per_decade: int = SAMPLES_PER_DECADE) -> np.ndarray:
    decades = max(math.log10(t_end / FIRST_SAMPLE_TIME), 1.0)
    count = int(decades * samples_per_decade)
    return np.concatenate([[0.0], np.geomspace(FIRST_SAMPLE_TIME, t_end, count)])


def solve_correction(params: PhysParams, t_end: float = 1e6,
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
    sol = solve_ivp(
        _correction_rhs(params), (0.0, t_end), [0.0, 0.0],
        method="Radau", rtol=rel_tol, atol=abs_tol, dense_output=True,
        jac=_correction_jac(params),
    )
    if not sol.success:
        raise CorrectionSolveError(f"correction ODE solve failed: {sol.message}")
    t_grid = sample_grid(t_end)
    steps = sol.sol.interpolants
    segments = np.empty((len(steps), 10))
    for row, step in zip(segments, steps):   # row by row: no temporary table
        row[:] = (step.t_old, step.h, *step.Q.ravel(), *step.y_old)
    # the samples (correction.csv) are SciPy's evaluation; the path's own
    # evaluator agrees with it to rounding
    h, h_t = sol.sol(t_grid)
    theta = params.nu(t_grid) + h
    if np.any(theta <= 0.0) or not np.all(np.isfinite(h)):
        raise CorrectionSolveError("theta lost positivity; solver failure")
    path = CorrectionPath(
        params=params, t_end=float(t_end), rel_tol=rel_tol, abs_tol=abs_tol,
        t_grid=t_grid, h=h, h_t=h_t, theta=theta,
        theta_t=params.nu_t(t_grid) + h_t,
        step_times=sol.t, segments=segments,
    )
    logger.debug(
        "correction solved to t=%.3g in %d steps (h(T)=%.3e)", t_end, sol.t.size, h[-1]
    )
    return path


@functools.lru_cache(maxsize=8)
def _memoized_path(params: PhysParams, t_end: float, rel_tol: float,
                   abs_tol: float) -> CorrectionPath:
    return solve_correction(params, t_end, rel_tol, abs_tol)


def correction_path(params: PhysParams, t_end: float = 1e6,
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
    y = np.array([0.0, 0.0])
    t = 0.0
    for _ in range(steps):
        k1 = np.asarray(rhs(t, y))
        k2 = np.asarray(rhs(t + 0.5 * dt, y + 0.5 * dt * k1))
        k3 = np.asarray(rhs(t + 0.5 * dt, y + 0.5 * dt * k2))
        k4 = np.asarray(rhs(t + dt, y + dt * k3))
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
    return float(y[0]), float(y[1])


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


def verify_theta_properties(path: CorrectionPath,
                            fit_window: tuple[float, float] | None = None,
                            ) -> ThetaPropertyReport:
    """Check theta_t > 0 and theta > 1 on interior samples and estimate the
    derivative envelopes |theta^(m)| <= C (1+t)^(kappa-m), m = 1..3."""
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
    if fit_window is None:
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


def lyapunov_violations(path: CorrectionPath, slack: float = 1e-9) -> int:
    """Count sample pairs violating monotonicity of the damped-oscillator
    functional kappa (n*gamma-n+1) h^2 + (1+t)^(lam+1) h_t^2 while h_t <= 0."""
    p = path.params
    coef = p.kappa * (p.n * p.gamma - p.n + 1.0)
    value = coef * path.h ** 2 + (1.0 + path.t_grid) ** (p.lam + 1.0) * path.h_t ** 2
    both_down = (path.h_t[:-1] <= 0.0) & (path.h_t[1:] <= 0.0)
    increase = value[1:] > value[:-1] * (1.0 + slack) + slack * value.max()
    return int(np.count_nonzero(both_down & increase))


def ode_residual(path: CorrectionPath, times=None) -> float:
    """Max step-scaled defect of the dense output against the ODE.

    The defect |d/dt y_dense - f(t, y_dense)| (derivatives by
    Richardson-extrapolated central differences) is multiplied by the local
    integrator step and divided by the local error tolerance
    atol + rtol*|y|; step control keeps this ratio O(1), and the invariant
    suite asserts it stays below 10.
    """
    if times is None:
        times = path.t_grid[2:-2:5]
    times = np.asarray(times, dtype=float)
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


def integrating_factor_bound_check(lam: float, k: float, t_max: float,
                                   num_times: int = 40,
                                   quad_tol: float = 1e-10) -> dict:
    """Evaluate F(t) = e^(-psi(t)) int_0^t e^(psi(tau)) (1+tau)^(-k) dtau
    with psi(t) = (1+t)^(1-lam)/(1-lam), and return the max of
    F(t) / (1+t)^(lam-k) over log-spaced t in [1, t_max].

    The exponential is shifted inside the integrand so that only
    nonpositive exponents are exponentiated; the integral is restricted to
    the boundary layer where the integrand exceeds ~1e-18 of its peak.
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError("lambda must lie in [0, 1)")
    if k <= 0.0 or t_max < 10.0:
        raise ValueError("need k > 0 and t_max >= 10")

    def psi(x):
        return (1.0 + x) ** (1.0 - lam) / (1.0 - lam)

    times = np.geomspace(1.0, t_max, num_times)
    ratios = np.empty_like(times)
    for i, t in enumerate(times):
        width = 45.0 * (1.0 + t) ** lam
        lo = max(0.0, t - width)
        value, err = quad(
            lambda tau: math.exp(psi(tau) - psi(t)) * (1.0 + tau) ** (-k),
            lo, t, epsabs=0.0, epsrel=quad_tol, limit=400,
        )
        if err > 100 * quad_tol * abs(value) + 1e-280:
            raise RuntimeError(
                f"integrating-factor quadrature did not converge at t={t:g}"
            )
        # Discarded head of the integral is below e^-45 of the retained part.
        ratios[i] = value / (1.0 + t) ** (lam - k)
    return {
        "times": times,
        "ratios": ratios,
        "max_ratio": float(ratios.max()),
    }
