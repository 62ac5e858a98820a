"""Gauss-Jacobi rules and the Jacobi recurrence against independent oracles.

The oracles are SciPy's ``roots_jacobi``, the Beta-function moments of the
weight and, at a few sizes, a 30-digit mpmath Newton solve.  Tolerances:

- nodes within 1e-14 of SciPy's;
- weights within 1e-12 relative of the 30-digit rule.  Against SciPy they
  agree within 1e-8 relative for a >= -1/2 and 1e-6 below; that gap is
  SciPy's error: its weights are off by up to 1.4e-9 relative from the
  30-digit rule at 262-270 nodes (these by at most 8e-13), and its Beta
  moments by up to 1e-9 relative at 270 nodes (these by 3e-11);
- every moment int_0^1 s^k (1-s)^a s^b ds, k <= 2m-1, within 1e-12
  relative for a >= -1/2 (every exponent the program uses) and 1e-10 for
  a in [-0.999, -1/2), where the node next to s = 1 lies within
  ~(a+1)/m^2 of it and the weight there carries most of the integral.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_jacobi, roots_jacobi

from vaclab import quadrature
from vaclab.quadrature import jacobi_polynomials, jacobi_rule_01

# sizes the program builds: verify's grids (32, 48, 96) and their m + 6
# rules, the mass rule (96), and the m + 6 rules of 128 and 256 nodes
PROGRAM_SIZES = (32, 38, 48, 54, 96, 102, 134, 262)
PROGRAM_EXPONENTS = [(iota + shift, b) for iota in (1.0, 1.5)
                     for shift in (-0.5, 0.0, 1.0, 2.0, 3.0) for b in (0.0, 0.5)]


def _moment_error(s, w, a, b) -> float:
    """Largest relative error of sum w s^k against the Beta moments
    B(k+b+1, a+1), k = 0..2m-1 (the moments by their ratio recurrence)."""
    k = np.arange(2 * s.size)
    ratio = (k[:-1] + b + 1.0) / (k[:-1] + a + b + 2.0)
    first = math.exp(math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0))
    exact = first * np.concatenate(([1.0], np.cumprod(ratio)))
    got = (s[None, :] ** k[:, None]) @ w
    return float(np.max(np.abs(got - exact) / exact))


def _moment_tol(a: float) -> float:
    return 1e-12 if a >= -0.5 else 1e-10


def _check_against_scipy(m, a, b):
    s, w = jacobi_rule_01(m, a, b)
    x_ref, w_ref = roots_jacobi(m, a, b)
    assert np.max(np.abs(s - 0.5 * (x_ref + 1.0))) <= 1e-14
    w_ref = w_ref * 2.0 ** (-(a + b + 1.0))
    assert np.max(np.abs(w - w_ref) / w_ref) <= (1e-8 if a >= -0.5 else 1e-6)
    assert _moment_error(s, w, a, b) <= _moment_tol(a)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 270), a=st.floats(-0.999, 5.0), b=st.sampled_from([0.0, 0.5]))
def test_rule_matches_scipy_and_is_exact(m, a, b):
    # the asymptotic starting guesses are least accurate at small m
    _check_against_scipy(m, a, b)


@pytest.mark.parametrize("m", PROGRAM_SIZES)
def test_program_rules_match_scipy_and_are_exact(m):
    for a, b in PROGRAM_EXPONENTS:
        _check_against_scipy(m, a, b)


def test_program_rules_build_without_lapack(monkeypatch):
    # a dense eigensolve runs on a second OpenBLAS thread from about 72 nodes
    def refuse(*args, **kwargs):
        raise AssertionError("a Gauss-Jacobi rule called numpy.linalg")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for m in PROGRAM_SIZES:
        for a, b in PROGRAM_EXPONENTS:
            s, w = jacobi_rule_01(m, a, b)
            assert np.all(np.diff(s) > 0.0) and np.all(w > 0.0)


def test_rule_refuses_an_iteration_that_has_not_converged(monkeypatch):
    # (32, 1, 1/2) converges at its second evaluation of P_n
    jacobi_rule_01(32, 1.0, 0.5)
    monkeypatch.setattr(quadrature, "MAX_ITERATIONS", 1)
    with pytest.raises(ValueError, match="did not converge in 1 Newton iterations"):
        jacobi_rule_01(32, 1.0, 0.5)


def test_moving_one_node_fails_the_exactness_check():
    s, w = jacobi_rule_01(96, 1.0, 0.5)
    assert _moment_error(s, w, 1.0, 0.5) <= _moment_tol(1.0)
    moved = s.copy()
    moved[48] += 1e-8
    assert _moment_error(moved, w, 1.0, 0.5) > _moment_tol(1.0)


def _reference_rule(m, a, b, start):
    """30-digit Gauss-Jacobi rule on [0, 1] by Newton from ``start``."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    a, b = mp.mpf(a), mp.mpf(b)

    def last_two(k, al, be, x):
        before, p = mp.mpf(1), ((al + be + 2) * x + (al - be)) / 2
        for j in range(1, k):
            c = 2 * j + al + be
            before, p = p, (((c + 1) * ((c + 2) * c * x + al * al - be * be) * p
                             - 2 * (j + al) * (j + be) * (c + 2) * before)
                            / (2 * (j + 1) * (j + al + be + 1) * c))
        return p, before

    nodes, weights = [], []
    for x0 in start:
        x = mp.mpf(2 * float(x0) - 1)
        for _ in range(3):
            pn = last_two(m, a, b, x)[0]
            x -= pn / ((m + a + b + 1) / 2 * last_two(m - 1, a + 1, b + 1, x)[0])
        derivative = (m + a + b + 1) / 2 * last_two(m - 1, a + 1, b + 1, x)[0]
        nodes.append((x + 1) / 2)
        weights.append(1 / (last_two(m, a, b, x)[1] * derivative))
    scale = mp.beta(a + 1, b + 1) / mp.fsum(weights)
    return (np.array([float(v) for v in nodes]),
            np.array([float(v * scale) for v in weights]))


@pytest.mark.parametrize("m,a,b", [(32, 1.0, 0.5), (38, 2.0, 0.5), (48, 0.5, 0.0),
                                   (54, 1.5, 0.0), (38, -0.5, 0.5)])
def test_weights_match_a_30_digit_rule(m, a, b):
    s, w = jacobi_rule_01(m, a, b)
    s_ref, w_ref = _reference_rule(m, a, b, s)
    assert np.max(np.abs(s - s_ref)) <= 1e-14
    assert np.max(np.abs(w - w_ref) / w_ref) <= 1e-12


@pytest.mark.parametrize("gap", [1e-4, 1e-6, 1e-9, 1e-12, 2.0 ** -52])
@pytest.mark.parametrize("m", [8, 54, 270])
def test_exponents_near_minus_one_build_a_rule_or_refuse(gap, m):
    # next to a = -1 the node by s = 1 is closer to it than double precision
    # resolves at some sizes: the rule is then refused, never returned wrong
    a = -1.0 + gap
    try:
        s, w = jacobi_rule_01(m, a, 0.5)
    except ValueError as exc:
        assert gap < 1e-6 and "not resolved in double precision" in str(exc)
        return
    assert np.all(np.isfinite(w)) and np.all(w > 0.0)
    assert np.all((s > 0.0) & (s <= 1.0))
    assert _moment_error(s, w, a, 0.5) <= 1e-6


@pytest.mark.parametrize("a", [0.5, 1.0])
def test_b_near_minus_one_builds_a_rule_or_refuses(a):
    # next to b = -1 the node by s = 0 keeps only the absolute accuracy of
    # x = 2s - 1, and its weight sets the others' normalization
    for k in range(6, 17):
        b = -1.0 + 10.0 ** -k
        for m in (1, 2, 3, 5, 8, 13, 20, 54, 100, 200, 270):
            try:
                s, w = jacobi_rule_01(m, a, b)
            except ValueError as exc:
                assert "not resolved in double precision" in str(exc), (k, m)
                continue
            assert _moment_error(s, w, a, b) <= 1e-6, (k, m)


@pytest.mark.parametrize("m", PROGRAM_SIZES)
def test_last_rows_equal_the_full_table(m):
    # the rule evaluates only P_(n-2), P_(n-1), P_n: bit for bit the rows of
    # the full table, so the rules stay what the full recurrence gave
    x = np.cos(np.linspace(0.01, 3.13, m))
    for a, b in PROGRAM_EXPONENTS:
        full = jacobi_polynomials(m, a, b, x)
        assert np.array_equal(jacobi_polynomials(m, a, b, x, last=3), full[-3:])
    for k in (0, 1, 2):
        assert np.array_equal(jacobi_polynomials(k, 1.0, 0.5, x, last=3),
                              jacobi_polynomials(k, 1.0, 0.5, x))


def test_rule_rejects_bad_arguments():
    with pytest.raises(ValueError, match="exceed -1"):
        jacobi_rule_01(8, -1.0, 0.0)
    with pytest.raises(ValueError, match="positive integer"):
        jacobi_rule_01(0, 1.0, 0.0)


@pytest.mark.parametrize("a,b", [(1.0, 0.5), (-0.5, 0.0), (4.0, 1.5)])
def test_recurrence_matches_scipy_eval_jacobi(a, b):
    x = np.linspace(-1.0, 1.0, 41)
    table = jacobi_polynomials(60, a, b, x)
    assert table.shape == (61, 41)
    for j in (0, 1, 2, 7, 30, 60):
        ref = eval_jacobi(j, a, b, x)
        assert np.max(np.abs(table[j] - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
