"""One stage of the radial right-hand side and one DP5 step as they stood
before ``vaclab`` trimmed the NumPy work of each stage.

``RadialOperator`` once read the full ``TimeCoefficients`` (d, c and their
first two derivatives) in ``damping`` and ``wave_coefficient``, formed the
deformation factors and their logarithms as separate arrays with two
minima for the invertibility check, combined the pressure's two exponents
one product at a time, and joined w_t and the acceleration with
``np.concatenate``, as the planar and toroidal mode right-hand sides did;
``_dp5_step`` sliced the Butcher rows at every stage, and the step's error
norm went through ``np.mean``.  This module keeps those functions, taking
the operators' constant node vectors, grids and force potential as they
are, so the tests can require the program's stage kernel to equal them
bit for bit.
"""
import numpy as np

from vaclab.radial import RadialInvariantError
from vaclab.timestepping import _A, _B5, _C


def radial_strain(grid, w):
    p = w / grid.r
    p_s = p @ grid.d_s_t
    return p, p_s, p + grid._two_s * p_s


def deformation(grid, w, t=None, check=True):
    p, p_s, u = radial_strain(grid, w)
    x = 1.0 + u
    # 1 + p <= 0 exactly when p <= -1 (1 + p is exact for p near -1)
    if check and (x.min() <= 0.0 or p.min() <= -1.0):
        failed_x = x <= 0.0
        factor, failed = ("1 + w_r", failed_x) if failed_x.any() else ("1 + w/r", p <= -1.0)
        raise RadialInvariantError(np.nan if t is None else t, int(np.argmax(failed)), factor)
    return p, p_s, x, 1.0 + p, np.log1p(u), np.log1p(p)


def pressure(op, w, t=None):
    _, dp, x, _, la, lb = deformation(op.grid, w, t)
    alpha = np.expm1(op._p1 * la + op._q1 * lb)
    one_plus_beta = np.exp(op._p2 * la + op._q2 * lb)
    return (op._alpha_coef * alpha + op._alpha_slope_coef * (alpha @ op.grid.d_s_t)
            + op._tangential_coef * one_plus_beta * dp / x)


def stiffness(op, w, t=None):
    return op.params.kappa * w + pressure(op, w, t)


def damping(op, t):
    return op.path.coefficients(t).d


def wave_coefficient(op, t):
    return op.path.coefficients(t).c


def acceleration(op, t, w, w_t):
    return -damping(op, t)[0] * w_t - wave_coefficient(op, t)[0] * stiffness(op, w, t)


def rhs(op, t, state):
    m = state.size // 2
    w, w_t = state[:m], state[m:]
    return np.concatenate([w_t, acceleration(op, t, w, w_t)])


def planar_rhs(op, t, y):
    m = y.size // 4
    pf, pg, pf_t, pg_t = y[:m], y[m:2 * m], y[2 * m:3 * m], y[3 * m:]
    coeffs = op.path.coefficients(t)
    d, c = coeffs.d[0], coeffs.c[0]
    acc_f = -d * pf_t - c * op.force_potential(pf, pg)
    acc_g = -d * pg_t
    return np.concatenate([pf_t, pg_t, acc_f, acc_g])


def toroidal_rhs(op, t, y):
    m = y.size // 2
    p, p_t = y[:m], y[m:]
    return np.concatenate([p_t, -op.path.coefficients(t).d[0] * p_t])


def dp5_step(rhs, t, y, dt, k):
    """The 5th-order state at t + dt; fills the stages k[1:] from k[0]."""
    for stage in range(1, 7):
        k[stage] = rhs(t + _C[stage] * dt, y + dt * (_A[stage, :stage] @ k[:stage]))
    return y + dt * (_B5 @ k)


def rms(z):
    """The step's error norm of the scaled error z, through ``np.mean``."""
    return float(np.sqrt(np.mean(z ** 2)))
