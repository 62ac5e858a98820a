"""Degenerate-weight quadrature, Hardy ratios, and energy functionals."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaclab import suite, weighted
from vaclab.derivnorms import SUPPORTED_FORMS, radial_form
from vaclab.energy import RadialEnergies, UnsupportedOrderError, energy_indices, energy_row
from vaclab.params import derive_constants
from vaclab.quadrature import sigma_moment
from vaclab.weighted import WeightedGrid, hardy_check, weighted_norm


@pytest.fixture(scope="module")
def setup3():
    p = derive_constants(3, 0.0, 2.0, 1.0)
    return p, WeightedGrid(p, 48)


@pytest.mark.parametrize("n,gamma", [(3, 2.0), (2, 2.0), (3, 5.0 / 3.0), (2, 1.5)])
def test_quadrature_matches_beta_closed_forms(n, gamma):
    p = derive_constants(n, 0.0, gamma, 1.0)
    g = WeightedGrid(p, 48)
    for k in range(3):
        a = p.iota + k
        got = weighted_norm(g, np.ones_like(g.r), a)
        exact = sigma_moment(n, p.A_bar, p.B_bar, a)
        assert got == pytest.approx(exact, rel=1e-10)


def test_weighted_norm_special_fields(setup3):
    p, g = setup3
    assert weighted_norm(g, np.zeros_like(g.r), p.iota) == 0.0
    got = weighted_norm(g, np.sqrt(p.sigma(g.r)), p.iota)
    assert got == pytest.approx(sigma_moment(3, p.A_bar, p.B_bar, p.iota + 1.0),
                                rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(coeffs=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5),
       k=st.integers(0, 2))
def test_polynomial_exactness(coeffs, k):
    # polynomials in r^2 times sigma^a integrate to Beta-moment sums
    p = derive_constants(3, 0.0, 2.0, 1.0)
    g = WeightedGrid(p, 48)
    a = p.iota + k
    f = sum(c * g.s ** j for j, c in enumerate(coeffs)) + 0.0 * g.s
    got = weighted_norm(g, f, a)
    # |f|^2 expands into monomials s^m = (r/R0)^(2m)
    sq = np.polynomial.polynomial.polymul(coeffs, coeffs)
    exact = sum(c * sigma_moment(3, p.A_bar, p.B_bar, a, k=m) / p.R0 ** (2 * m)
                for m, c in enumerate(sq))
    assert got == pytest.approx(exact, rel=1e-10, abs=1e-14)


def test_negative_exponent_rejected(setup3):
    _, g = setup3
    with pytest.raises(ValueError, match="nonnegative"):
        weighted_norm(g, np.ones_like(g.r), -0.5)


def test_hardy_zero_field_and_constant(setup3):
    p, g = setup3
    zeros = np.zeros_like(g.r)
    assert hardy_check(g, zeros, zeros, 0.0) == 0.0
    ones = np.ones_like(g.r)
    got = hardy_check(g, ones, zeros, 0.0)
    exact = (sigma_moment(3, p.A_bar, p.B_bar, 0.0)
             / sigma_moment(3, p.A_bar, p.B_bar, 2.0))
    assert got == pytest.approx(exact, rel=1e-10)


def test_hardy_family_bounded(setup3):
    p, _ = setup3
    g_fine = WeightedGrid(p, 96)
    worst = 0.0
    for nodes in (48, 96):
        g = WeightedGrid(p, nodes)
        for k in (p.iota - 0.5, p.iota, p.iota + 1.0):
            for power in (1, 2, 3):
                f = (p.R0 - g.r) ** power
                df = -power * (p.R0 - g.r) ** (power - 1)
                ratio = hardy_check(g, f, df, k)
                assert np.isfinite(ratio) and ratio >= 0.0
                worst = max(worst, ratio)
    # doubled-node oracle: ratios grid-independent to a percent
    for k in (p.iota, p.iota + 1.0):
        f48 = hardy_check(WeightedGrid(p, 48), (p.R0 - WeightedGrid(p, 48).r) ** 2,
                          -2 * (p.R0 - WeightedGrid(p, 48).r), k)
        f96 = hardy_check(g_fine, (p.R0 - g_fine.r) ** 2,
                          -2 * (p.R0 - g_fine.r), k)
        assert f48 == pytest.approx(f96, rel=0.01)
    assert worst < 1e3


def test_hardy_check_of_verify_builds_its_two_grids_once(monkeypatch):
    # 2 grids of 48 and 96 nodes: their base rules and 6 sigma^k rules each
    builds = []
    build = weighted.jacobi_rule_01

    def counting(num_nodes, *exponents):
        builds.append(num_nodes)
        return build(num_nodes, *exponents)

    monkeypatch.setattr(weighted, "jacobi_rule_01", counting)
    passed, details = suite._check_hardy(0, None)
    assert passed
    assert details == {"max_ratio": 192.5864639337734,
                       "refinement_drift": 7.390391770108518e-06}
    assert len(builds) <= 14


def test_energy_zero_field(setup3):
    _, g = setup3
    en = RadialEnergies(g)
    zeros = np.zeros_like(g.r)
    for idx in energy_indices():
        derivs = {m: zeros for m in range(max(idx[0] + 2, 2))}
        assert en.component(en.norms(derivs), *idx, 1.7) == 0.0


def test_energy_static_dilation_matches_moments(setup3):
    p, g = setup3
    en = RadialEnergies(g)
    eps = 1e-3
    value = en.component(en.norms({0: eps * g.r, 1: np.zeros_like(g.r)}), 0, 0, 0, 0.0)
    exact = eps ** 2 * (sigma_moment(3, p.A_bar, p.B_bar, p.iota, k=1)
                        + 3.0 * sigma_moment(3, p.A_bar, p.B_bar, p.iota + 1.0))
    assert value == pytest.approx(exact, rel=1e-12)


@settings(max_examples=15, deadline=None)
@given(scale=st.floats(0.1, 4.0), m=st.integers(0, 1), i=st.integers(0, 1),
       j=st.integers(0, 1))
def test_energy_quadratic_homogeneity(scale, m, i, j):
    p = derive_constants(3, 0.0, 2.0, 1.0)
    g = WeightedGrid(p, 32)
    en = RadialEnergies(g)
    rng = np.random.default_rng(5)
    derivs = {k: 1e-3 * g.r * (1.0 + 0.1 * k) * (1.0 - 0.4 * g.s) for k in range(3)}
    base = en.component(en.norms(derivs), m, i, j, 2.0)
    scaled = en.component(en.norms({k: scale * v for k, v in derivs.items()}), m, i, j, 2.0)
    assert scaled == pytest.approx(scale ** 2 * base, rel=1e-12)
    assert base >= 0.0


def test_energy_unsupported_orders(setup3):
    _, g = setup3
    en = RadialEnergies(g)
    zeros = np.zeros_like(g.r)
    with pytest.raises(UnsupportedOrderError):
        en.component(en.norms({0: zeros}), 0, 0, 0, 1.0)          # missing m+1
    norms = en.norms({0: zeros, 1: zeros})
    with pytest.raises(UnsupportedOrderError):
        en.component(norms, 0, 4, 0, 1.0)    # derivative too high
    with pytest.raises(UnsupportedOrderError):
        en.component(norms, 0, 0, 3, 1.0)


def _reference_norm(g, w, i, j, exponent):
    """One field's norm through per-scalar matvecs and integrate_ball."""
    p = g.params
    pv = w / g.r
    p1 = g.d_s @ pv
    su = pv + 2.0 * g.s * p1
    g_vp = (2.0 / p.R0 ** 2) * p1
    g_up = (2.0 / p.R0 ** 2) * (g.d_s @ su)
    g_vpp = g_vp + 2.0 * g.s * (g.d_s @ g_vp)
    g_upp = g_up + 2.0 * g.s * (g.d_s @ g_up)
    rule = g.rule(exponent)
    odd = {"w": pv, "vp": g_vp, "up": g_up}
    even = {"v": pv, "u": su, "vpp": g_vpp, "upp": g_upp}
    vals = {"r": rule.r}
    vals.update({k: g.to_rule(rule, v) * rule.r for k, v in odd.items()})
    vals.update({k: g.to_rule(rule, v) for k, v in even.items()})
    return g.integrate_ball(exponent, radial_form(i, j, p.n, vals))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("nodes", [32, 128])
def test_stacked_norms_match_single_field_norms(n, nodes):
    p = derive_constants(n, 0.5, 2.0, 1.0)
    g = WeightedGrid(p, nodes)
    en = RadialEnergies(g)
    rng = np.random.default_rng(11)
    derivs = {k: g.r * np.polyval(rng.standard_normal(5), g.s) * 10.0 ** -k
              for k in range(5)}
    norms = en.norms(derivs)
    assert set(norms) == set(SUPPORTED_FORMS)
    for (i, j), column in norms.items():
        for k, w in derivs.items():
            assert column[k] == pytest.approx(
                _reference_norm(g, w, i, j, p.iota + i), rel=1e-12)


class _CountingMatrix(np.ndarray):
    """Counts the matrix products it takes part in."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _CountingMatrix.products += 1
        inputs = tuple(np.asarray(x) for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


def test_one_stacked_pass_per_output():
    # one pass per block of outputs: a (T, 1, m) stack of each time derivative
    p = derive_constants(3, 0.0, 2.0, 1.0)
    g = WeightedGrid(p, 32)
    for i in range(4):
        rule = g.rule(p.iota + i)
        g._rules[rule.exponent] = dataclasses.replace(
            rule, resample=rule.resample.view(_CountingMatrix))
    en = RadialEnergies(g)
    scales = np.array([1.0, 0.5, -2.0])[:, None, None]
    derivs = {k: 1e-3 * g.r * (1.0 + 0.1 * k) * (1.0 - 0.4 * g.s) * scales for k in range(5)}
    t = np.array([3.0, 3.5, 4.0])
    _CountingMatrix.products = 0

    def output(mapping, t):
        row = energy_row(en, mapping, t)
        return [row[idx] for idx in energy_indices()]

    block = output(derivs, t)
    assert _CountingMatrix.products == 4        # one per sigma exponent
    assert all(column.shape == (3,) for column in block)
    scaled = {k: 2.0 * v for k, v in derivs.items()}
    assert np.allclose(output(scaled, t), [4.0 * e for e in block], rtol=1e-13, atol=0)
    assert _CountingMatrix.products == 8
    # each output of the block, bit for bit, as evaluated alone
    for k in range(3):
        alone = output({order: v[k, 0] for order, v in derivs.items()}, float(t[k]))
        assert [column[k] for column in block] == alone


def test_energy_index_set():
    indices = energy_indices()
    base = [idx for idx in indices if sum(idx) <= 2]
    assert len(base) == 10
    top = [idx for idx in indices if idx not in base]
    assert sorted(top) == sorted(
        [(m + 1, i, j) for (m, i, j) in base if m + i + j == 2])


# -- closed-form derivative norms against a finite-difference oracle ---------

def _fd_derivative_norm(n, a, b, w_fun, probe_radius, h):
    """|d^a dbar^b omega|^2 at a point, via centered differences on a local
    tensor grid around (probe_radius, 0, ...)."""
    reach = 4
    axes = [np.arange(-reach, reach + 1) * h + (probe_radius if ax == 0 else 0.0)
            for ax in range(n)]
    grids = np.meshgrid(*axes, indexing="ij")
    r = np.sqrt(sum(g ** 2 for g in grids))
    fields = [w_fun(r) * grids[i] / r for i in range(n)]

    def d_axis(f, ax):
        return np.gradient(f, h, axis=ax, edge_order=2)

    def dbar_all(flat):
        if n == 2:
            return [grids[0] * d_axis(f, 1) - grids[1] * d_axis(f, 0) for f in flat]
        out = []
        lev = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
        for j in range(3):
            for f in flat:
                acc = np.zeros_like(f)
                for (i1, j1, k1) in lev:
                    if i1 == j:
                        acc += grids[j1] * d_axis(f, k1) - grids[k1] * d_axis(f, j1)
                out.append(acc)
        return out

    flat = fields
    for _ in range(b):
        flat = dbar_all(flat)
    for _ in range(a):
        flat = [d_axis(f, ax) for f in flat for ax in range(n)]
    center = (reach,) * n
    return sum(f[center] ** 2 for f in flat)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("form", SUPPORTED_FORMS)
def test_derivative_norm_closed_forms(n, form):
    a, b = form
    coeffs = (0.3, 0.11, -0.07)

    def w_fun(r):
        return coeffs[0] * r + coeffs[1] * r ** 3 + coeffs[2] * r ** 5

    rp = 0.71
    r = np.array([rp])
    w = w_fun(r)
    v = w / r
    u = coeffs[0] + 3 * coeffs[1] * r ** 2 + 5 * coeffs[2] * r ** 4
    up = 6 * coeffs[1] * r + 20 * coeffs[2] * r ** 3
    upp = 6 * coeffs[1] + 60 * coeffs[2] * r ** 2
    vp = (u - v) / r
    vpp = (up - vp) / r - vp / r
    vals = dict(r=r, w=w, v=v, u=u, up=up, upp=upp, vp=vp, vpp=vpp)
    closed = radial_form(a, b, n, vals)[0]
    h = 0.008 if n == 2 else 0.015
    # the central differences err by O(h^2); Richardson's step pair by O(h^4)
    fd = (4.0 * _fd_derivative_norm(n, a, b, w_fun, rp, h / 2)
          - _fd_derivative_norm(n, a, b, w_fun, rp, h)) / 3.0
    assert closed == pytest.approx(fd, rel=1e-4)
