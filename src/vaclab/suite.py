"""One-shot verification suite: named property checks with a JSON report.

Each check is independent and deterministic given the seed; the suite runs
them one after another and reports pass/fail, wall time and CPU time per
name.  Correction paths are solved once per process and shared (see
``correction.correction_path``), so a shared path's solve is charged to the
first check that asks for it.  A deliberate fault can be injected into the
radial-pressure cross-check to exercise the suite's failure reporting
(negative test).
"""
from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .angular import curl_decay_fit, default_planar_state, evolve_mode
from .correction import (RESIDUAL_BOUND, correction_path, fit_h_envelope,
                         integrating_factor_bound_check, lyapunov_violations, ode_residual,
                         verify_theta_properties)
from .diagnostics import PRESERVATION_TOL
from .fitting import decay_fit
from .kinematics import (adjugate_residual, box_grid, build_deformation, check_identities,
                         deformation_on_window, random_smooth_field)
from .params import SelfSimilarProfile, derive_constants
from .quadrature import sigma_moment
from .radial import RadialState, evolve, radial_oracle_check
from .weighted import WeightedGrid, hardy_check, weighted_norm

logger = logging.getLogger(__name__)

ODE_LAMBDAS = (0.0, 0.3, 0.7)   # damping exponents of the correction-ODE checks


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    seconds: float = 0.0
    cpu_seconds: float = 0.0


@dataclass
class SuiteReport:
    results: list[CheckResult]
    fault: str | None = None

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "fault_injected": self.fault,
            "checks": [
                {"name": r.name, "passed": r.passed, "seconds": round(r.seconds, 3),
                 "cpu_seconds": round(r.cpu_seconds, 3), "details": r.details}
                for r in self.results
            ],
        }

    def write_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    def summary_lines(self) -> list[str]:
        lines = []
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"[{status}] {r.name} ({r.seconds:.1f}s)")
        lines.append(f"suite: {'PASS' if self.ok else 'FAIL'} "
                     f"({sum(r.passed for r in self.results)}/{len(self.results)})")
        return lines


def _check_quadrature_exactness(seed, fault):
    worst = 0.0
    for n, gamma in ((3, 2.0), (2, 2.0), (3, 5.0 / 3.0)):
        p = derive_constants(n, 0.0, gamma, 1.0)
        g = WeightedGrid(p, 48)
        for k in range(3):
            a = p.iota + k
            got = weighted_norm(g, np.ones_like(g.r), a)
            exact = sigma_moment(n, p.A_bar, p.B_bar, a)
            worst = max(worst, abs(got - exact) / exact)
        got = weighted_norm(g, np.sqrt(p.sigma(g.r)), p.iota)
        exact = sigma_moment(n, p.A_bar, p.B_bar, p.iota + 1.0)
        worst = max(worst, abs(got - exact) / exact)
        got = weighted_norm(g, g.r, p.iota)
        exact = sigma_moment(n, p.A_bar, p.B_bar, p.iota, k=1)
        worst = max(worst, abs(got - exact) / exact)
    return worst <= 1e-10, {"max_rel_err": worst, "tolerance": 1e-10}


def _check_hardy(seed, fault):
    p = derive_constants(3, 0.0, 2.0, 1.0)
    rng = np.random.default_rng(seed)
    worst_ratio = 0.0
    worst_drift = 0.0
    grids = {nn: WeightedGrid(p, nn) for nn in (48, 96)}
    for k in (p.iota - 0.5, p.iota, p.iota + 1.0):
        if k <= -1.0:
            continue
        for trial in range(6):
            coeffs = rng.standard_normal(4)
            ratios = {}
            for nn, g in grids.items():
                if trial < 3:
                    f = (p.R0 - g.r) ** (trial + 1)
                    df = -(trial + 1) * (p.R0 - g.r) ** trial
                else:
                    f = sum(c * g.s ** j for j, c in enumerate(coeffs))
                    df = sum(c * j * g.s ** (j - 1) for j, c in enumerate(coeffs)
                             if j > 0) * 2.0 * g.r / p.R0 ** 2
                ratios[nn] = hardy_check(g, f, df, k)
            worst_ratio = max(worst_ratio, ratios[48])
            drift = abs(ratios[48] - ratios[96]) / max(abs(ratios[96]), 1e-300)
            worst_drift = max(worst_drift, drift)
    passed = np.isfinite(worst_ratio) and worst_drift <= 0.02
    return passed, {"max_ratio": worst_ratio, "refinement_drift": worst_drift}


def _check_kinematic_identities(seed, fault):
    g = box_grid(3, 1.0, 25)
    grids = g.meshgrid()
    affine = np.stack([0.01 * grids[0] + 0.002 * grids[1],
                       -0.003 * grids[0] + 0.005 * grids[2],
                       0.001 * grids[1]], axis=-1)
    fld = build_deformation(g, affine)
    rep = check_identities(fld, margin=0.2)
    adj = adjugate_residual(fld)
    worst = max(rep.piola, rep.jacobian_derivative, rep.inverse_derivative)
    return (worst <= 1e-12 and adj <= 1e-12), {
        "affine_residual": worst, "adjugate_residual": adj}


def _check_piola_richardson(seed, fault):
    def report(npts):
        g = box_grid(3, 1.0, npts)
        # drawn on the whole box, whose largest gradient sets the field's scale
        om = random_smooth_field(g, np.random.default_rng(seed), 1e-3)
        field = deformation_on_window(g, om, 0.2)
        del om  # free the box's field before the residuals
        return check_identities(field, margin=0.2)

    reports = {npts: report(npts) for npts in (33, 65)}
    ratios = {
        "piola": reports[33].piola / reports[65].piola,
        "jacobian_derivative": (reports[33].jacobian_derivative
                                / reports[65].jacobian_derivative),
        "inverse_derivative": (reports[33].inverse_derivative
                               / reports[65].inverse_derivative),
    }
    ok = all(16.0 * 0.7 <= r <= 16.0 * 1.3 for r in ratios.values())
    return ok, {"ratios": ratios, "nominal": 16.0, "band": 0.3}


def jacobian_expansion_residuals(field) -> dict[str, float]:
    """Sup residuals of a ``kinematics.DeformationField``'s J over the whole
    box against its div/curl expansion, truncated at linear, quadratic, and
    (for n = 3) cubic order.

    The cubic term det(d omega) comes from LAPACK, a route apart from the
    closed-form cofactors that ``build_deformation`` forms J with."""
    n = field.grid.n
    g = field.grad_omega
    div = np.trace(g, axis1=-2, axis2=-1)
    grad_sq = np.sum(g ** 2, axis=(-2, -1))
    if n == 2:
        curl_sq = (g[..., 1, 0] - g[..., 0, 1]) ** 2
    else:
        curl_sq = ((g[..., 2, 1] - g[..., 1, 2]) ** 2
                   + (g[..., 0, 2] - g[..., 2, 0]) ** 2
                   + (g[..., 1, 0] - g[..., 0, 1]) ** 2)
    quad = 0.5 * (div ** 2 + curl_sq - grad_sq)
    expansion = 1.0 + div + quad
    out = {
        "linear": float(np.max(np.abs(field.jacobian - 1.0 - div))),
        "quadratic": float(np.max(np.abs(field.jacobian - expansion))),
    }
    if n == 3:
        cubic = np.linalg.det(g)
        out["cubic"] = float(np.max(np.abs(field.jacobian - expansion - cubic)))
    return out


def _check_jacobian_expansion(seed, fault):
    amp = 1e-3
    out = {}
    ok = True
    for n in (2, 3):
        g = box_grid(n, 1.0, 33)
        om = random_smooth_field(g, np.random.default_rng(seed + n), amp)
        res = jacobian_expansion_residuals(build_deformation(g, om))
        out[f"n{n}"] = res
        if n == 2:
            ok &= res["quadratic"] <= 1e-12            # expansion exact in 2D
        else:
            ok &= res["quadratic"] <= 10.0 * amp ** 3  # cubic term is the gap
            ok &= res["cubic"] <= 1e-12
    return ok, out


def _long_path(lam: float):
    """The correction path of n = 3, gamma = 2, M = 1 to t = 1e6, which the
    ODE checks share (each is solved in the first check that asks for it)."""
    return correction_path(derive_constants(3, lam, 2.0, 1.0), 1e6)


def _check_ode_properties(seed, fault):
    details = {}
    ok = True
    for lam in ODE_LAMBDAS:
        path = _long_path(lam)
        rep = verify_theta_properties(path)
        resid = ode_residual(path)
        ok &= rep.ok and resid <= RESIDUAL_BOUND
        details[f"lam{lam:g}"] = {
            "theta_t_positive": rep.theta_t_positive,
            "theta_above_one": rep.theta_above_one,
            "theta_over_nu": [rep.theta_over_nu_min, rep.theta_over_nu_max],
            "slopes": rep.derivative_slopes,
            "residual": resid,
        }
    return ok, details


def _check_h_envelope(seed, fault):
    details = {}
    ok = True
    for lam in ODE_LAMBDAS:
        path = _long_path(lam)
        env = fit_h_envelope(path)
        ok &= env.ok
        details[f"lam{lam:g}"] = {"degenerate": True} if env.degenerate else {
            "fitted": env.best_exponent(), "expected": env.expected_exponent,
            "error": env.error}
    return ok, details


def _check_integrating_factor(seed, fault):
    r100 = integrating_factor_bound_check(0.0, 2.0, 100.0)
    r50 = integrating_factor_bound_check(0.0, 2.0, 50.0)
    stability = abs(r100["max_ratio"] - r50["max_ratio"]) / r50["max_ratio"]
    r1000 = integrating_factor_bound_check(0.5, 1.0, 1000.0)
    tail = r1000["times"] >= 100.0
    trend = decay_fit(r1000["times"][tail], r1000["ratios"][tail]).exponent
    ok = stability <= 0.10 and np.isfinite(r1000["max_ratio"]) and abs(trend) <= 0.02
    return ok, {"stability": stability, "max_ratio_lam0": r100["max_ratio"],
                "max_ratio_lam05": r1000["max_ratio"], "tail_trend": trend}


def _check_lyapunov(seed, fault):
    counts = {}
    for lam in ODE_LAMBDAS:
        counts[f"lam{lam:g}"] = lyapunov_violations(_long_path(lam))
    return all(v == 0 for v in counts.values()), counts


def _check_radial_oracle(seed, fault):
    details = {}
    ok = True
    for n in (3, 2):
        p = derive_constants(n, 0.0, 2.0, 1.0)
        g = WeightedGrid(p, 48)
        coarse = radial_oracle_check(g, num_samples=2, box_points=41, seed=seed,
                                     fault=fault)
        fine = radial_oracle_check(g, num_samples=2, box_points=81, seed=seed,
                                   fault=fault)
        details[f"n{n}"] = {"coarse": coarse, "fine": fine,
                            "ratio": coarse / max(fine, 1e-300)}
        ok &= fine <= 2e-4 and coarse <= 2e-3 and coarse / max(fine, 1e-300) > 4.0
    return ok, details


def _check_zero_run_preservation(seed, fault):
    path = _long_path(0.0)
    g = WeightedGrid(path.params, 48)
    traj = evolve(g, path, RadialState(0.0, np.zeros(48), np.zeros(48)), 1e3,
                  collect_energies=False, collect_reconstructions=False)
    sup = float(traj.sup_norms().max()) if len(traj.times) else float("inf")
    return (traj.status == "completed" and sup <= PRESERVATION_TOL), {"sup_w": sup}


def _check_curl_envelope(seed, fault):
    details = {}
    ok = True
    for lam in (0.0, 0.5):
        p = derive_constants(2, lam, 2.0, 1.0)
        path = correction_path(p, 100.0)
        g = WeightedGrid(p, 32)
        st = default_planar_state(g, 2)
        traj = evolve_mode(g, path, st, 20.0, collect_energies=False)
        rep = curl_decay_fit(traj)
        fine = curl_decay_fit(evolve_mode(g, path, st, 20.0, dt=traj.dt / 2.0,
                                          collect_energies=False))
        ok &= rep.max_relative_deviation <= 1e-3
        ok &= fine.max_relative_deviation <= 0.6 * rep.max_relative_deviation
        details[f"lam{lam:g}"] = {
            "deviation": rep.max_relative_deviation,
            "deviation_half_dt": fine.max_relative_deviation,
        }
    return ok, details


def _check_pme_residual(seed, fault):
    details = {}
    ok = True
    for n, gamma, lam in ((3, 2.0, 0.0), (2, 2.0, 0.5)):
        p = derive_constants(n, lam, gamma, 1.0)
        prof = SelfSimilarProfile(p)
        coarse = prof.pme_residual(1.0, 0.01)
        fine = prof.pme_residual(1.0, 0.005)
        ratio = coarse / fine
        ok &= 4.0 * 0.8 <= ratio <= 4.0 * 1.2
        details[f"n{n}_lam{lam:g}"] = {"coarse": coarse, "fine": fine, "ratio": ratio}
    return ok, details


def _check_mass_conservation(seed, fault):
    worst = 0.0
    for n, gamma, lam in ((3, 2.0, 0.0), (2, 2.0, 0.3), (3, 1.5, 0.7)):
        prof = SelfSimilarProfile(derive_constants(n, lam, gamma, 1.0))
        for t in (0.0, 1.0, 10.0, 1e3):
            worst = max(worst, prof.mass_error(t))
    return worst <= 1e-8, {"max_rel_err": worst, "tolerance": 1e-8}


CHECKS = {
    "quadrature-exactness": _check_quadrature_exactness,
    "hardy-ratio": _check_hardy,
    "kinematic-identities": _check_kinematic_identities,
    "piola-richardson": _check_piola_richardson,
    "jacobian-expansion": _check_jacobian_expansion,
    "ode-properties": _check_ode_properties,
    "h-envelope": _check_h_envelope,
    "integrating-factor": _check_integrating_factor,
    "lyapunov": _check_lyapunov,
    "radial-oracle": _check_radial_oracle,
    "zero-run-preservation": _check_zero_run_preservation,
    "curl-envelope": _check_curl_envelope,
    "pme-residual": _check_pme_residual,
    "mass-conservation": _check_mass_conservation,
}


def verify(only: str | None = None, fault: str | None = None,
           seed: int = 0) -> SuiteReport:
    """Run the property suite (optionally a name-filtered subset).

    ``fault`` injects a wrong sign into the radial pressure that the
    radial-oracle check compares; that check must then fail and be
    reported by name.
    """
    names = [n for n in CHECKS if only is None or only in n]
    if not names:
        raise ValueError(f"no checks match {only!r}; available: {list(CHECKS)}")

    def run_one(name: str) -> CheckResult:
        t0, cpu0 = time.time(), time.process_time()
        check_fault = fault if name == "radial-oracle" else None
        try:
            passed, details = CHECKS[name](seed, check_fault)
        except Exception as exc:  # a crashed check is a failed check
            logger.exception("check %s crashed", name)
            passed, details = False, {"error": f"{type(exc).__name__}: {exc}"}
        return CheckResult(name=name, passed=bool(passed), details=details,
                           seconds=time.time() - t0,
                           cpu_seconds=time.process_time() - cpu0)

    return SuiteReport(results=[run_one(n) for n in names], fault=fault)
