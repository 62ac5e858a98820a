"""Gauss-Jacobi quadrature and barycentric interpolation on the unit ball.

All radial integrals in this package reduce, after the substitution
s = (r / R0)^2, to weighted integrals of the form

    int_0^1 (1 - s)^a s^(n/2 - 1) f(s) ds,

where the (1 - s)^a factor absorbs the degenerate density weight
sigma(r) = A - B r^2 vanishing at the vacuum boundary.  Gauss-Jacobi rules
with exactly that weight keep full accuracy despite the fractional endpoint
behaviour, which plain Gauss-Legendre loses.

The rules are built here with NumPy alone and without LAPACK, so no rule
starts a BLAS thread.  The nodes start from the Gatteschi-Pittaluga
asymptotic guesses (as in Hale & Townsend, *SIAM J. Sci. Comput.* 35,
2013) and converge by simultaneous Newton steps with Aberth-Ehrlich
deflation, within three evaluations of P_n for every exponent the program
uses; one last Newton step on P_n polishes them.  The weights come from
P_n' and P_(n-1), taken at the corrected nodes and normalized to the
Beta-function integral of the weight, much as in SciPy's ``roots_jacobi``.
One three-term recurrence, :func:`jacobi_polynomials`, evaluates the
polynomials for both.  A rule costs about 0.6 / 1.1 / 3.7-6.6 ms at
32 / 96 / 262 nodes on a 2-CPU VM, all on the calling thread.  SciPy is
the independent oracle of the tests, not a dependency.
"""
from __future__ import annotations

import math

import numpy as np

# Newton iterations, each one evaluation of P_n, that a rule may take: every
# rule of up to 300 nodes with a in [-0.999, 5] and |b| <= 1/2 converges within
# three, and a rule that has not converged after this many is refused
MAX_ITERATIONS = 8
# the iteration stops once every Newton correction is below NEWTON_TOL times
# 1 - x^2, or within a few roundings; the polishing step then leaves an
# error of order NEWTON_TOL^2 (1 - x^2), far below rounding
NEWTON_TOL = 1e-9
_ROUNDING = 4.0 * np.finfo(float).eps
# a rule is refused when one rounding of its node next to s = 0 can move its
# weights by more than this, relative (see jacobi_rule_01).  With b near -1
# the moments of the rules let through are off by at most 0.75 times that
# estimate; the program's rules (b = 0 or 1/2) estimate at most 3e-15
RESOLUTION_TOL = 1e-7


def unit_sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n (2*pi for n=2, 4*pi for n=3)."""
    return float(2.0 * np.pi ** (n / 2.0) / math.exp(math.lgamma(n / 2.0)))


def jacobi_polynomials(k: int, a: float, b: float, x, last: int | None = None) -> np.ndarray:
    """Jacobi polynomials P_0^(a,b), ..., P_k^(a,b) at the points ``x``.

    Returns an array of shape (k + 1,) + x.shape, one degree per row, in
    the standard normalization P_j(1) = binom(j + a, j), from the
    three-term recurrence P_(j+1) = (A_j x + B_j) P_j - C_j P_(j-1)
    (DLMF 18.9.1-2).  Needs a, b > -1.  With ``last``, only the rows of
    the top ``last`` degrees are kept (fewer if k + 1 < last), each equal
    bit for bit to its row of the full table.
    """
    x = np.asarray(x, dtype=float)
    keep = k + 1 if last is None else last
    rows = [np.ones(x.shape)]
    if k > 0:
        rows.append(0.5 * ((a + b + 2.0) * x + (a - b)))
    # coefficients of the steps j -> j + 1, j = 1..k-1, one row per step
    j = np.arange(1.0, k).reshape((-1,) + (1,) * x.ndim)
    c = 2.0 * j + a + b
    den = 2.0 * (j + 1.0) * (j + a + b + 1.0) * c
    # run the recurrence on Q_j = P_j / h_j with h_(j+1) = C_j h_(j-1), which
    # turns C_j into 1, so each degree costs one multiply and one subtract
    back = 2.0 * (j + a) * (j + b) * (c + 2.0) / den
    h = np.ones((k + 1,) + back.shape[1:])
    h[2::2] = np.cumprod(back[0::2], axis=0)
    h[3::2] = np.cumprod(back[1::2], axis=0)
    scale = (c + 1.0) * h[1:k] / (den * h[2:])
    for f in (scale * (c + 2.0) * c) * x + scale * (a * a - b * b):
        new = f * rows[-1]
        new -= rows[-2]
        rows.append(new)
        if len(rows) > max(keep, 2):
            del rows[0]
    rows = rows[-keep:]
    return np.array(rows) * h[k + 1 - len(rows):]


def jacobi_rule_01(num_nodes: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for int_0^1 (1-s)^a s^b f(s) ds.

    The returned weights include the full weight function, so the integral
    is approximated by ``w @ f(s)``.  Exact for polynomials f of degree
    <= 2*num_nodes - 1.  The rule is built on [-1, 1] for the weight
    (1-x)^a (1+x)^b and mapped by s = (x + 1) / 2.
    """
    if a <= -1 or b <= -1:
        raise ValueError(f"Jacobi exponents must exceed -1, got a={a}, b={b}")
    n = int(num_nodes)
    if n < 1 or n != num_nodes:
        raise ValueError(f"need a positive integer number of nodes, got {num_nodes}")
    # Gatteschi-Pittaluga guesses, x = cos(theta) falling from the a end
    # (Hale & Townsend 2013), reversed into increasing order
    big_n = n + 0.5 * (a + b + 1.0)
    phi = (np.arange(n, 0, -1) + 0.5 * a - 0.25) * (np.pi / big_n)
    theta = phi + ((0.25 - a * a) / np.tan(0.5 * phi)
                   - (0.25 - b * b) * np.tan(0.5 * phi)) / (4.0 * big_n * big_n)
    x = np.cos(theta)
    rule = f"{n}-node Gauss-Jacobi rule for a={a}, b={b}"
    unresolved = f"{rule} is not resolved in double precision"
    inner = np.nextafter(1.0, 0.0)
    cn = 2.0 * n + a + b
    for _ in range(MAX_ITERATIONS):
        # an iterate within rounding of an end, where P_n' below cancels to
        # noise, is a node that double precision does not resolve
        if not np.all(np.abs(x) < inner):
            raise ValueError(unresolved)
        # Newton correction -r = -P_n / P_n', with (2j+a+b)(1-x^2) P_j' =
        # j(a-b-(2j+a+b)x) P_j + 2(j+a)(j+b) P_(j-1) (DLMF 18.9.16), j = n
        # rows P_(n-2), P_(n-1), P_n (P_0, P_1 at n = 1)
        p = jacobi_polynomials(n, a, b, x, last=3)
        span = (1.0 - x) * (1.0 + x)
        dp = (n * ((a - b) - cn * x) * p[-1] + 2.0 * (n + a) * (n + b) * p[-2]) / (cn * span)
        step = -p[-1] / dp
        if np.all(np.abs(step) <= NEWTON_TOL * span + _ROUNDING):
            break
        # Aberth-Ehrlich: x_k - r_k / (1 - r_k sum_(j != k) 1 / (x_k - x_j))
        pull = np.subtract.outer(x, x)
        pull.flat[::n + 1] = np.inf
        np.divide(1.0, pull, out=pull)
        new = x + step / (1.0 + step * pull.sum(axis=1))
        # a node stepped past an end is moved halfway to that end instead
        past = ~(np.abs(new) < 1.0)
        x = np.where(past, 0.5 * (x + np.copysign(1.0, new)), new)
    else:
        if np.any(past):
            raise ValueError(f"{unresolved}: a node still steps past an end after "
                             f"{MAX_ITERATIONS} Newton iterations")
        raise ValueError(f"{rule} did not converge in {MAX_ITERATIONS} Newton iterations")
    if not np.all(np.diff(x) > 0.0):
        raise ValueError(f"{rule} has nodes that are not strictly increasing")

    # The last Newton correction polishes the nodes.  The log-derivative of
    # the weight 1 / (P_(n-1) P_n') is as large as 1 / (1 - |x|) near the
    # ends, so the weight is taken at the corrected node, to first order in
    # the step, with DLMF 18.9.16 for j = n - 1 and the Jacobi equation for
    # P_n''
    slope = ((a + b + 2.0) * x - (b - a) + n * (n + a + b + 1.0) * step) / span
    if n > 1:
        cm = cn - 2.0
        slope += ((n - 1) * ((a - b) - cm * x) + 2.0 * (n - 1 + a) * (n - 1 + b)
                  * p[-3] / p[-2]) / (cm * span)
    w = (1.0 - step * slope) / (p[-2] * dp)
    if not np.all(np.isfinite(w) & (w > 0.0)):
        # happens only where an exponent is so close to -1 that the node
        # next to that end lies within a few roundings of it
        raise ValueError(unresolved)
    s = 0.5 * (x + step + 1.0)
    # The node next to s = 0 keeps only x's absolute accuracy, about eps,
    # and its weight varies like 1 / s there.  As b nears -1 that weight
    # carries most of the sum that normalizes all the others, so one
    # rounding of the node moves every weight by about eps / s_0 times its
    # share of the sum.  (At the a end the node next to s = 1 carries as
    # much of every moment as of the sum, so no such check is needed.)
    if np.finfo(float).eps * w[0] > RESOLUTION_TOL * s[0] * w.sum():
        raise ValueError(f"{unresolved}: the node next to s = 0 is {s[0]:.3e}")
    log_beta = math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0)
    return s, w * (math.exp(log_beta) / w.sum())


def sigma_moment(n: int, a_bar: float, b_bar: float, a: float, k: int = 0) -> float:
    """Closed form of int_Omega sigma^a |y|^(2k) dy via the Beta function.

    Omega is the ball of radius R0 = sqrt(a_bar/b_bar) and
    sigma = a_bar - b_bar |y|^2.  It has two readers: the mass constraint
    of :func:`vaclab.params.derive_constants`, which fixes A_bar from it,
    and the quadrature-exactness checks, as their independent oracle.
    """
    r0_sq = a_bar / b_bar
    log_beta = (math.lgamma(n / 2.0 + k) + math.lgamma(a + 1.0)
                - math.lgamma(n / 2.0 + k + a + 1.0))
    return float(
        unit_sphere_area(n)
        * 0.5
        * r0_sq ** (n / 2.0 + k)
        * a_bar ** a
        * math.exp(log_beta)
    )


def barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    """Barycentric interpolation weights, rescaled for conditioning."""
    nodes = np.asarray(nodes, dtype=float)
    m = nodes.size
    scale = 4.0 / (nodes.max() - nodes.min())
    w = np.ones(m)
    for j in range(m):
        diff = scale * (nodes[j] - nodes)
        diff[j] = 1.0
        w[j] = 1.0 / np.prod(diff)
    return w


def differentiation_matrix(nodes: np.ndarray, bary_w: np.ndarray) -> np.ndarray:
    """Spectral differentiation matrix for the polynomial interpolant with
    barycentric weights ``bary_w``."""
    nodes = np.asarray(nodes, dtype=float)
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    d = (bary_w[None, :] / bary_w[:, None]) / diff
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return d


def resample_matrix(nodes: np.ndarray, targets: np.ndarray,
                    bary_w: np.ndarray | None = None) -> np.ndarray:
    """Matrix mapping nodal values to interpolant values at ``targets``."""
    nodes = np.asarray(nodes, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if bary_w is None:
        bary_w = barycentric_weights(nodes)
    diff = targets[:, None] - nodes[None, :]
    exact = diff == 0.0
    diff[exact] = 1.0
    m = bary_w[None, :] / diff
    m /= m.sum(axis=1, keepdims=True)
    hit_rows = exact.any(axis=1)
    if np.any(hit_rows):
        m[hit_rows] = 0.0
        m[exact] = 1.0
    return m
