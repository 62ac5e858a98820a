"""Correctness checks on every repetition's outputs.

Each check compares an output with a computation made here, apart from the
program, or with a property the method must have; none compares against a
stored copy of earlier output.  The references:

* theta(t) from a DOP853 integration of
  theta'' + (1+t)^-lam theta' = kappa theta^(n - n gamma - 1),
  theta(0) = 1, theta'(0) = kappa, kappa = (1+lam)/(n gamma - n + 2);
* R0 from the mass constraint in closed form (a Beta integral);
* the largest collocation radius from the Gauss-Jacobi nodes of the weight
  (1-s)^iota s^(n/2-1).

Every function returns failure messages; an empty list means the check
passed.  Messages that start with ``STATUS`` mean the program itself
reported the failure (exit status, run status); the others mean a wrong
output.
"""
from __future__ import annotations

import csv
import functools
import json
import math
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import gammaln, roots_jacobi

from workloads import (ANCHOR_NODES, ANCHOR_T_END, GAMMA, N, SWEEP_EPSILONS,
                       SWEEP_LAMBDAS, SWEEP_T_END, VERIFY_CHECKS,
                       sweep_cell_name)

SUP_W_TOL = 1e-8          # zero is an exact solution of the anchor run
MASS_TOL = 1e-10          # relative mass error at every output
THETA_TOL = 1e-10         # relative, boundary radius and correction.csv theta
GAP_TOL = 1e-9            # relative to the largest closed-form gap
EXPONENT_SLACK = 0.1      # fitted gap exponent above its envelope
ENERGY_RATIO_MAX = 10.0   # sup_t E / E(0)
ENERGY_AGREEMENT = 0.2    # sup_t E / E(0) at eps against eps/2
LINEARITY_TOL = 0.02      # |sup_w(eps) / sup_w(eps/2) - 2|

STATUS = "status: "       # prefix of failures the program reported itself


def kappa_of(lam: float) -> float:
    return (1.0 + lam) / (N * GAMMA - N + 2.0)


@functools.lru_cache(maxsize=8)
def _theta_solution(lam: float, t_max: float):
    kappa = kappa_of(lam)
    q = N - N * GAMMA - 1.0

    def rhs(t, y):
        return [y[1], kappa * y[0] ** q - (1.0 + t) ** (-lam) * y[1]]

    sol = solve_ivp(rhs, (0.0, t_max), [1.0, kappa], method="DOP853",
                    rtol=1e-13, atol=1e-16, dense_output=True)
    if not sol.success:
        raise RuntimeError(f"reference theta integration failed: {sol.message}")
    return sol.sol


def theta_reference(lam: float, times) -> tuple[np.ndarray, np.ndarray]:
    """(theta, theta_t) at ``times`` from the benchmark's own integration."""
    times = np.asarray(times, dtype=float)
    theta, theta_t = _theta_solution(lam, float(times.max()))(times)
    return theta, theta_t


def reference_radius(lam: float, mass: float = 1.0) -> float:
    """R0 = sqrt(A/B), with A from M = C A^(iota+n/2) B^(-n/2) in closed form."""
    iota = 1.0 / (GAMMA - 1.0)
    b = (GAMMA - 1.0) / (2.0 * GAMMA) * kappa_of(lam)
    log_c = 0.5 * N * math.log(math.pi) + gammaln(iota + 1.0) - gammaln(0.5 * N + iota + 1.0)
    log_a = (math.log(mass) + 0.5 * N * math.log(b) - log_c) / (iota + 0.5 * N)
    return math.sqrt(math.exp(log_a) / b)


def largest_node_radius(lam: float, nodes: int) -> float:
    iota = 1.0 / (GAMMA - 1.0)
    x, _ = roots_jacobi(nodes, iota, N / 2.0 - 1.0)
    return reference_radius(lam) * math.sqrt(0.5 * (x.max() + 1.0))


def output_count(t_end: float, per_decade: int = 60, t_first: float = 0.1) -> int:
    """Number of outputs of the documented schedule: t = 0, then
    max(60 per decade, 8) log-spaced times from 0.1 to t_end."""
    return 1 + max(int(math.log10(t_end / t_first) * per_decade), 8)


def read_csv(path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    return {name: data[:, k] for k, name in enumerate(rows[0])}


def _max_rel(measured, expected) -> float:
    return float(np.max(np.abs(measured - expected)) / (np.max(np.abs(expected)) + 1e-300))


def _completed(run_dir: Path) -> list[str]:
    report_path = run_dir / "run_report.json"
    if not report_path.is_file():
        return [f"{STATUS}{run_dir.name} has no run_report.json"]
    status = json.loads(report_path.read_text()).get("status")
    return [] if status == "completed" else [f"{STATUS}{run_dir.name} {status!r}"]


def _mass(series) -> list[str]:
    mass = series["mass_rel_err"]
    if np.all(np.isfinite(mass)) and mass.max() <= MASS_TOL:
        return []
    return [f"mass_rel_err {np.nanmax(mass):.3g} > {MASS_TOL:g}"]


def check_anchor(run_dir, exit_code: int, nodes: int = ANCHOR_NODES,
                 t_end: float = ANCHOR_T_END) -> list[str]:
    """Zero-seed run at lambda = 0: preservation, theta R0, closed-form gaps, mass."""
    run_dir = Path(run_dir)
    failures = [] if exit_code == 0 else [f"{STATUS}CLI exit {exit_code}"]
    failures += _completed(run_dir)
    if failures:
        return failures
    s = read_csv(run_dir / "series.csv")
    if s["t"].size != output_count(t_end) or s["t"][-1] != t_end:
        failures.append(f"{s['t'].size} outputs ending at t={s['t'][-1]:g}, expected "
                        f"{output_count(t_end)} ending at {t_end:g}")
    if not s["sup_w"].max() <= SUP_W_TOL:
        failures.append(f"sup_w {s['sup_w'].max():.3g} > {SUP_W_TOL:g}")
    failures += _mass(s)
    kappa = kappa_of(0.0)
    theta, theta_t = theta_reference(0.0, s["t"])
    err = _max_rel(s["boundary_radius"], theta * reference_radius(0.0))
    if not err <= THETA_TOL:
        failures.append(f"boundary_radius off theta R0 by {err:.3g} relative")
    nu = (1.0 + s["t"]) ** kappa
    h, h_t = theta - nu, theta_t - kappa * (1.0 + s["t"]) ** (kappa - 1.0)
    r_max = largest_node_radius(0.0, nodes)
    closed = {
        "position_gap": np.abs(h) * r_max,
        "density_gap": nu ** (-N) * np.abs(np.expm1(-N * np.log1p(h / nu))),
        "velocity_gap": np.abs(h_t) * r_max,
    }
    for name, expected in closed.items():
        err = _max_rel(s[name], expected)
        if not err <= GAP_TOL:
            failures.append(f"{name} off its closed form by {err:.3g} relative")
    return failures


def fitted_exponent(t, values, t_end: float) -> float:
    """Least-squares slope of log(values) against log(t) over [t_end/100, t_end]."""
    window = (t >= t_end / 100.0) & (t <= t_end)
    return float(np.polyfit(np.log(t[window]), np.log(values[window]), 1)[0])


def check_sweep(sweep_dir, exit_code: int, lambdas=SWEEP_LAMBDAS,
                epsilons=SWEEP_EPSILONS, t_end: float = SWEEP_T_END) -> dict[str, list[str]]:
    """Failures per cell of the (lambda, epsilon) grid."""
    sweep_dir = Path(sweep_dir)
    summary_path = sweep_dir / "summary.json"
    rows = ({r["cell"]: r for r in json.loads(summary_path.read_text())}
            if summary_path.is_file() else {})
    failures: dict[str, list[str]] = {}
    series, sup_energy = {}, {}
    for lam in lambdas:
        kappa = kappa_of(lam)
        envelopes = {"position_gap": kappa, "density_gap": -N * kappa,
                     "velocity_gap": kappa - 1.0}
        for eps in epsilons:
            cell = sweep_cell_name(lam, eps)
            run_dir = sweep_dir / cell
            found = failures[cell] = []
            status = rows.get(cell, {}).get("status")
            if status != "completed":
                found.append(f"{STATUS}summary {status!r}")
            found += _completed(run_dir)
            if found:
                continue
            s = series[cell] = read_csv(run_dir / "series.csv")
            found += _mass(s)
            corr = read_csv(run_dir / "correction.csv")
            upto = corr["t"] <= t_end
            theta, _ = theta_reference(lam, corr["t"][upto])
            err = _max_rel(corr["theta"][upto], theta)
            if not err <= THETA_TOL:
                found.append(f"correction.csv theta off the reference by {err:.3g}")
            for name, envelope in envelopes.items():
                exponent = fitted_exponent(s["t"], s[name], t_end)
                if not exponent <= envelope + EXPONENT_SLACK:
                    found.append(f"{name} exponent {exponent:+.3f} above envelope "
                                 f"{envelope:+.3f} + {EXPONENT_SLACK:g}")
            total = read_csv(run_dir / "energies.csv")["E_total"]
            ratio = sup_energy[cell] = float(total.max() / total[0])
            if not ratio <= ENERGY_RATIO_MAX:
                found.append(f"sup E/E(0) = {ratio:.4g} > {ENERGY_RATIO_MAX:g}")
        # pairs (eps/2, eps) at the same lambda: energy stability and linearity
        for small, large in zip(epsilons, epsilons[1:]):
            a, b = sweep_cell_name(lam, small), sweep_cell_name(lam, large)
            if a not in series or b not in series:
                continue
            if abs(sup_energy[b] / sup_energy[a] - 1.0) > ENERGY_AGREEMENT:
                for cell in (a, b):
                    failures[cell].append(
                        f"sup E/E(0) {sup_energy[b]:.4g} at eps={large:g} against "
                        f"{sup_energy[a]:.4g} at eps={small:g}")
            ratio = series[b]["sup_w"] / series[a]["sup_w"]
            expected = large / small
            worst = float(np.max(np.abs(ratio - expected)))
            if not worst <= LINEARITY_TOL:
                for cell in (a, b):
                    failures[cell].append(
                        f"sup_w(eps={large:g})/sup_w(eps={small:g}) off {expected:g} by {worst:.3g}")
    if exit_code != 0 and not any(failures.values()):
        failures = {cell: [f"{STATUS}CLI exit {exit_code}"] for cell in failures}
    return failures


def check_verify(suite_json, exit_code: int) -> dict[str, list[str]]:
    """Failures per check of the verification suite."""
    path = Path(suite_json)
    reported = ({c["name"]: c for c in json.loads(path.read_text())["checks"]}
                if path.is_file() else {})
    failures = {}
    for name in VERIFY_CHECKS:
        check = reported.get(name)
        if check is None:
            failures[name] = [f"{STATUS}not reported"]
        else:
            failures[name] = [] if check["passed"] is True else ["reported FAIL"]
    extra = sorted(set(reported) - set(VERIFY_CHECKS))
    if extra:
        for name in failures:
            failures[name].append(f"unexpected checks {extra}")
    if exit_code != 0 and not any(failures.values()):
        failures = {name: [f"{STATUS}CLI exit {exit_code}"] for name in failures}
    return failures
