"""Background-profile constants, fields, and porous-media residual checks."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaclab.params import ParameterError, SelfSimilarProfile, derive_constants
from vaclab.suite import verify


def closed_form_a_bar(n, gamma, b_bar, mass):
    # Beta-function reduction of the mass integral, M = C A^(iota+n/2)
    # B^(-n/2) with C = pi^(n/2) Gamma(iota+1) / Gamma(iota+n/2+1),
    # written independently of the package's sigma_moment
    iota = 1.0 / (gamma - 1.0)
    log_c = (0.5 * n * math.log(math.pi) + math.lgamma(iota + 1.0)
             - math.lgamma(iota + 0.5 * n + 1.0))
    return math.exp((math.log(mass) + 0.5 * n * math.log(b_bar) - log_c) / (iota + 0.5 * n))


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    lam=st.floats(0.0, 0.95),
    gamma=st.floats(1.05, 3.0),
    mass=st.floats(1e-3, 1e3),
)
def test_derive_constants_is_the_closed_form(n, lam, gamma, mass):
    import vaclab.params as params_module

    rules = []
    rule = params_module.jacobi_rule_01

    def counting(*a):
        rules.append(a)
        return rule(*a)

    params_module.jacobi_rule_01 = counting
    try:
        p = derive_constants(n, lam, gamma, mass)
    finally:
        params_module.jacobi_rule_01 = rule
    assert rules == []
    expected = closed_form_a_bar(n, gamma, p.B_bar, mass)
    assert abs(p.A_bar - expected) <= 1e-14 * expected


# A_bar and R0 of the closed form, and of the earlier bisection that built a
# Gauss-Jacobi rule at every step and stopped at relative tolerance 1e-12
CLOSED_FORM_RESULTS = {
    (3, 0.0, 2.0, 1.0): ("0x1.141756cfe809bp-3", "0x1.a45ae2f9b7da8p+0"),
    (2, 0.5, 2.0, 1.0): ("0x1.f454378577498p-3", "0x1.9d410d11742d5p+0"),
    (3, 0.7, 1.5, 1.0): ("0x1.61044be79aed4p-2", "0x1.0825311107695p+1"),
    (2, 0.3, 5.0 / 3.0, 2.5): ("0x1.e5fe29a22c15cp-2", "0x1.3bbd11f979384p+1"),
    (3, 0.3, 2.0, 0.01): ("0x1.99bd79e8fc953p-6", "0x1.3d954ef31f0cbp-1"),
}
BISECTION_RESULTS = {
    (3, 0.0, 2.0, 1.0): ("0x1.141756cfe8180p-3", "0x1.a45ae2f9b7e57p+0"),
    (2, 0.5, 2.0, 1.0): ("0x1.f454378578100p-3", "0x1.9d410d11747f5p+0"),
    (3, 0.7, 1.5, 1.0): ("0x1.61044be79ac00p-2", "0x1.0825311107586p+1"),
    (2, 0.3, 5.0 / 3.0, 2.5): ("0x1.e5fe29a22bc00p-2", "0x1.3bbd11f9791c6p+1"),
    (3, 0.3, 2.0, 0.01): ("0x1.99bd79e8fc520p-6", "0x1.3d954ef31ef2bp-1"),
}


@pytest.mark.parametrize("args", list(CLOSED_FORM_RESULTS))
def test_derive_constants_builds_one_rule(args, monkeypatch):
    # the constants and their profile's mass check build one rule between
    # them, the mass check's; derive_constants builds none
    import vaclab.params as params_module

    rules = []
    rule = params_module.jacobi_rule_01

    def counting(*a):
        rules.append(a)
        return rule(*a)

    monkeypatch.setattr(params_module, "jacobi_rule_01", counting)
    p = derive_constants(*args)
    assert rules == []
    prof = SelfSimilarProfile(p)
    assert prof.mass_error(0.0) <= 1e-14
    assert prof.mass_error(1.0) <= 1e-14
    assert len(rules) == 1
    assert (p.A_bar.hex(), p.R0.hex()) == CLOSED_FORM_RESULTS[args]
    a_bis, r0_bis = (float.fromhex(h) for h in BISECTION_RESULTS[args])
    assert abs(p.A_bar - a_bis) <= 1e-12 * a_bis
    assert abs(p.R0 - r0_bis) <= 1e-12 * r0_bis


def test_profile_builds_its_mass_rule_once(monkeypatch):
    # the rule of mass_error depends only on (iota, n)
    import vaclab.params as params_module

    prof = SelfSimilarProfile(derive_constants(3, 0.0, 2.0, 1.0))
    rules = []
    rule = params_module.jacobi_rule_01

    def counting(*a):
        rules.append(a)
        return rule(*a)

    monkeypatch.setattr(params_module, "jacobi_rule_01", counting)
    errors = [prof.mass_error(t).hex() for t in (0.0, 1.0, 10.0, 1e3)]
    assert len(rules) == 1
    # the values of a rule built at every call
    assert errors == ["0x1.0000000000000p-50", "0x1.6000000000000p-50",
                      "0x1.8000000000000p-51", "0x1.0000000000000p-51"]


def test_mass_conservation_check_reads_rounding():
    # A_bar is the Beta closed form, so the check's quadrature of the exact
    # profile is off by rounding alone
    report = verify(only="mass-conservation")
    assert report.ok and report.results[0].details["max_rel_err"] <= 1e-14


def test_mass_conservation_check_sees_a_faulty_density(monkeypatch):
    # mass_error integrates density_radial, so a density off by nu^0.5
    # fails the suite's check from t = 1 on
    density = SelfSimilarProfile.density_radial

    def faulty(self, t, r):
        return density(self, t, r) * float(self.params.nu(t)) ** 0.5

    assert verify(only="mass-conservation").ok
    monkeypatch.setattr(SelfSimilarProfile, "density_radial", faulty)
    report = verify(only="mass-conservation")
    assert not report.ok and report.results[0].details["max_rel_err"] > 1e-2


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
    dens, vel = prof.density_radial(0.0, 0.0), prof.velocity(0.0, np.zeros((1, 3)))
    assert dens == pytest.approx(closed_form_a_bar(3, 2.0, p.B_bar, 1.0), rel=1e-10)
    assert np.allclose(vel, 0.0)
    for t in (0.0, 3.7, 120.0):
        edge = prof.support_radius(t)
        assert prof.density_radial(t, edge) == 0.0
        assert np.all(prof.density_radial(t, np.linspace(0.05, 0.95, 10) * edge) > 0.0)


def test_velocity_is_kappa_x_over_time():
    p = derive_constants(3, 0.0, 2.0, 1.0)
    prof = SelfSimilarProfile(p)
    x = np.array([[0.5 * prof.support_radius(1.0), 0.0, 0.0]])
    vel = prof.velocity(1.0, x)
    assert vel[0, 0] == pytest.approx(0.1 * x[0, 0], rel=1e-15)
    assert vel[0, 1] == vel[0, 2] == 0.0


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
