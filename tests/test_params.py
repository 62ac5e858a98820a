"""Background-profile constants, fields, and porous-media residual checks."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaclab.params import (ParameterError, SelfSimilarProfile, barenblatt_fields,
                           derive_constants)


def closed_form_a_bar(n, gamma, b_bar, mass):
    # Beta-function reduction of the mass integral, evaluated independently
    # of the package's quadrature/bisection path.
    iota = 1.0 / (gamma - 1.0)
    if (n, gamma) == (3, 2.0):
        return (15.0 * b_bar ** 1.5 * mass / (8.0 * math.pi)) ** 0.4
    if (n, gamma) == (2, 2.0):
        return math.sqrt(2.0 * b_bar * mass / math.pi)
    raise NotImplementedError


# A_bar and R0 of the bisection that built the Gauss-Jacobi rule at every step
BISECTION_RESULTS = {
    (3, 0.0, 2.0, 1.0): ("0x1.141756cfe8180p-3", "0x1.a45ae2f9b7e57p+0"),
    (2, 0.5, 2.0, 1.0): ("0x1.f454378578100p-3", "0x1.9d410d11747f5p+0"),
    (3, 0.7, 1.5, 1.0): ("0x1.61044be79ac00p-2", "0x1.0825311107586p+1"),
    (2, 0.3, 5.0 / 3.0, 2.5): ("0x1.e5fe29a22bc00p-2", "0x1.3bbd11f9791c6p+1"),
    (3, 0.3, 2.0, 0.01): ("0x1.99bd79e8fc520p-6", "0x1.3d954ef31ef2bp-1"),
}


@pytest.mark.parametrize("args", list(BISECTION_RESULTS))
def test_derive_constants_builds_one_rule(args, monkeypatch):
    import vaclab.params as params_module

    rules = []
    rule = params_module.jacobi_rule_01

    def counting(*a):
        rules.append(a)
        return rule(*a)

    monkeypatch.setattr(params_module, "jacobi_rule_01", counting)
    p = derive_constants(*args)
    assert len(rules) == 1
    assert (p.A_bar.hex(), p.R0.hex()) == BISECTION_RESULTS[args]


def test_derived_exponents_n3():
    p = derive_constants(3, 0.0, 2.0, 1.0)
    assert p.kappa == pytest.approx(0.2, abs=0)
    assert p.iota == pytest.approx(1.0, abs=0)
    assert p.B_bar == pytest.approx(0.05, abs=0)


def test_derived_exponents_n2():
    p = derive_constants(2, 0.0, 2.0, 1.0)
    assert p.kappa == pytest.approx(0.25, abs=0)
    assert p.B_bar == pytest.approx(0.0625, abs=0)


@pytest.mark.parametrize("n,gamma", [(2, 1.5), (3, 1.4), (3, 2.5)])
def test_classical_exponent_without_time_weight(n, gamma):
    p = derive_constants(n, 0.0, gamma, 1.0)
    assert p.kappa == pytest.approx(1.0 / (n * gamma - n + 2.0), rel=1e-15)


@pytest.mark.parametrize("n", [2, 3])
def test_profile_constant_matches_closed_form(n):
    p = derive_constants(n, 0.0, 2.0, 1.0)
    expected = closed_form_a_bar(n, 2.0, p.B_bar, 1.0)
    assert p.A_bar == pytest.approx(expected, rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    lam=st.floats(0.0, 0.9),
    gamma=st.floats(1.2, 3.0),
    mass=st.floats(0.1, 10.0),
)
def test_mass_conserved_for_random_parameters(n, lam, gamma, mass):
    prof = SelfSimilarProfile(derive_constants(n, lam, gamma, mass))
    for t in (0.0, 1.0, 37.0, 1e3):
        assert prof.mass_error(t) <= 1e-8


def test_density_center_value_and_boundary_zero():
    p = derive_constants(3, 0.0, 2.0, 1.0)
    prof = SelfSimilarProfile(p)
    dens, vel = barenblatt_fields(p, 0.0, np.zeros((1, 3)))
    assert dens[0] == pytest.approx(closed_form_a_bar(3, 2.0, p.B_bar, 1.0), rel=1e-10)
    assert np.allclose(vel, 0.0)
    for t in (0.0, 3.7, 120.0):
        edge = prof.support_radius(t)
        x = np.array([[edge, 0.0, 0.0]])
        assert prof.density(t, x)[0] == 0.0
        inside = np.linspace(0.05, 0.95, 10)[:, None] * x
        assert np.all(prof.density(t, inside) > 0.0)


def test_velocity_is_kappa_x_over_time():
    p = derive_constants(3, 0.0, 2.0, 1.0)
    prof = SelfSimilarProfile(p)
    x = np.array([[0.5 * prof.support_radius(1.0), 0.0, 0.0]])
    vel = prof.velocity(1.0, x)
    assert vel[0, 0] == pytest.approx(0.1 * x[0, 0], rel=1e-15)
    assert vel[0, 1] == vel[0, 2] == 0.0


def test_position_outside_support_rejected():
    p = derive_constants(3, 0.0, 2.0, 1.0)
    prof = SelfSimilarProfile(p)
    with pytest.raises(ValueError, match="outside the support"):
        prof.density(0.0, np.array([[1.001 * p.R0, 0.0, 0.0]]))


def test_vacuum_gradient_value():
    p = derive_constants(3, 0.0, 2.0, 1.0)
    prof = SelfSimilarProfile(p)
    a_bar = closed_form_a_bar(3, 2.0, p.B_bar, 1.0)
    assert prof.vacuum_gradient(0.0) == pytest.approx(
        -2.0 * 2.0 * math.sqrt(a_bar * p.B_bar), rel=1e-10)
    assert prof.vacuum_gradient(0.0) == pytest.approx(-0.3284, abs=5e-5)


@pytest.mark.parametrize("lam", [0.0, 0.4])
def test_vacuum_gradient_decay_exponent(lam):
    prof = SelfSimilarProfile(derive_constants(3, lam, 2.0, 1.0))
    p = prof.params
    t1, t2 = 100.0, 10000.0
    measured = math.log(prof.vacuum_gradient(t2) / prof.vacuum_gradient(t1)) / math.log(
        (1.0 + t2) / (1.0 + t1))
    assert measured == pytest.approx(p.kappa - 1.0 - lam, rel=1e-12)
    assert prof.vacuum_gradient(t2) < 0.0


def test_vacuum_gradient_matches_radial_difference():
    # one-sided finite difference of c^2(rho) at the boundary, O(h) accurate
    prof = SelfSimilarProfile(derive_constants(3, 0.0, 2.0, 1.0))
    p = prof.params
    t = 2.0
    edge = prof.support_radius(t)
    errs = []
    for h in (1e-4, 5e-5):
        c2 = p.gamma * prof.density_radial(t, edge - h) ** (p.gamma - 1.0)
        errs.append(abs((0.0 - c2) / h - prof.vacuum_gradient(t)))
    assert errs[0] <= 2e-4 * abs(prof.vacuum_gradient(t))
    assert errs[1] <= 0.75 * errs[0]


def test_pme_residual_second_order():
    prof = SelfSimilarProfile(derive_constants(3, 0.0, 2.0, 1.0))
    coarse = prof.pme_residual(1.0, 0.01)
    fine = prof.pme_residual(1.0, 0.005)
    assert coarse / fine == pytest.approx(4.0, rel=0.2)
    assert fine < 1e-6


def test_pme_time_derivative_crosscheck():
    prof = SelfSimilarProfile(derive_constants(3, 0.3, 2.0, 1.0))
    r = np.linspace(0.1, 0.8, 12) * prof.support_radius(1.0)
    analytic = prof.density_time_derivative(1.0, r)
    errs = []
    for dt in (1e-3, 5e-4):
        centered = (prof.density_radial(1.0 + dt, r)
                    - prof.density_radial(1.0 - dt, r)) / (2.0 * dt)
        errs.append(np.max(np.abs(centered - analytic)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert np.max(np.abs(analytic)) > 0


@pytest.mark.parametrize("bad", [
    dict(n=1), dict(n=4), dict(lam=-0.1), dict(lam=1.0),
    dict(gamma=1.0), dict(gamma=0.5), dict(mass=0.0), dict(mass=-1.0),
])
def test_parameter_validation(bad):
    kwargs = dict(n=3, lam=0.0, gamma=2.0, mass=1.0)
    kwargs.update(bad)
    with pytest.raises(ParameterError):
        derive_constants(kwargs["n"], kwargs["lam"], kwargs["gamma"], kwargs["mass"])
