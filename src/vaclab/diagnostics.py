"""Quantitative comparison of runs against the proved decay envelopes.

Three pointwise gaps between a perturbed run and the self-similar
background are tracked in sup over the grid nodes: particle positions,
background-relative density, and velocity.  On the exact zero-perturbation
run they reduce to closed forms in (h, theta, nu), which the report checks
as identities; on perturbed runs only the fitted tail exponents are
compared (all proved constants are non-constructive), with a configurable
slack.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .correction import CorrectionPath
from .fitting import DecayFit, decay_fit
from .params import PhysParams
from .radial import RadialOperator, RadialTrajectory

GAP_NAMES = ("position", "density", "velocity")

# a run whose sup |w| stays below this is the zero anchor
ANCHOR_TOL = 1e-12
# relative tolerance of the anchor's gaps against their closed forms
IDENTITY_TOL = 1e-10


def gap_series(trajectory: RadialTrajectory, path: CorrectionPath,
               params: PhysParams) -> dict[str, np.ndarray]:
    """The gap columns of series.csv, per output: t, sup |w| and the
    sup-over-node gaps |x - xbar|, |rho o x - rhobar o xbar| / rho0 and
    |u o x - ubar o xbar|, named position_gap, density_gap, velocity_gap.

    In Lagrangian radial variables:
        position gap  = |h r + theta w|,
        density gap   = nu^-n |expm1(-n log1p(h/nu) - log J)|   (rho0-relative),
        velocity gap  = |h_t r + theta_t w + theta w_t|.
    """
    n = params.n
    op = RadialOperator(trajectory.grid)
    r = trajectory.grid.r
    rows = []
    for state in trajectory.states:
        t = state.t
        h = float(path.h_at(t))
        h_t = float(path.h_t_at(t))
        nu = params.nu(t)
        theta, theta_t = nu + h, params.nu_t(t) + h_t
        log_j = op.log_jacobian(state.w)
        rows.append((
            t,
            float(np.max(np.abs(state.w))),
            float(np.max(np.abs(h * r + theta * state.w))),
            float(np.max(np.abs(nu ** (-n) * np.expm1(-n * np.log1p(h / nu) - log_j)))),
            float(np.max(np.abs(h_t * r + theta_t * state.w + theta * state.w_t))),
        ))
    names = ("t", "sup_w") + tuple(f"{name}_gap" for name in GAP_NAMES)
    return dict(zip(names, np.array(rows).reshape(-1, len(names)).T))


def closed_form_gaps(path: CorrectionPath, params: PhysParams, times,
                     r_max: float) -> dict[str, np.ndarray]:
    """h-driven gap envelopes of the zero-perturbation run (exact)."""
    times = np.asarray(times, dtype=float)
    h = path.h_at(times)
    h_t = path.h_t_at(times)
    nu = params.nu(times)
    return {
        "position": np.abs(h) * r_max,
        "density": nu ** (-params.n) * np.abs(np.expm1(-params.n * np.log1p(h / nu))),
        "velocity": np.abs(h_t) * r_max,
    }


@dataclass
class RateReport:
    """Fitted gap exponents against the proved envelopes."""

    anchor: bool
    window: tuple[float, float]
    exponents: dict[str, float]
    envelopes: dict[str, float]
    slack: float
    log_corrected: bool
    passes: dict[str, bool]
    identity_max_rel_err: float | None
    fits: dict[str, DecayFit]

    @property
    def ok(self) -> bool:
        return all(self.passes.values())

    def to_dict(self) -> dict:
        out = {
            "anchor": self.anchor,
            "window": list(self.window),
            "exponents": self.exponents,
            "envelopes": self.envelopes,
            "slack": self.slack,
            "log_corrected": self.log_corrected,
            "passes": self.passes,
            "identity_max_rel_err": self.identity_max_rel_err,
            "fits": {k: asdict(v) for k, v in self.fits.items()},
            "ok": self.ok,
        }
        return out


def theorem_rate_report(series: dict[str, np.ndarray], path: CorrectionPath,
                        params: PhysParams, r_max: float, slack: float = 0.1,
                        window: tuple[float, float] | None = None) -> RateReport:
    """Fit the three gap columns of ``series`` (named as in
    :func:`gap_series`) and compare with the decay envelopes.

    Anchor runs (perturbation numerically zero): the gaps must match the
    h-driven closed forms to ``IDENTITY_TOL`` relative, and the fitted
    exponents must equal the h-envelope exponents within ``slack``.
    Perturbed runs: fitted exponents must not exceed the theorem envelopes
    (position kappa, relative density -n kappa, velocity kappa-1, each
    carrying the same damped correction term) plus ``slack``.
    """
    times = series["t"]
    t_end = float(times[-1])
    if window is None:
        window = (t_end / 100.0, t_end)
    if window[1] < 99.0 * window[0]:
        raise ValueError("rate-fit window must cover at least two decades")
    anchor = bool(np.max(series["sup_w"]) <= ANCHOR_TOL)
    lam, kappa, n = params.lam, params.kappa, params.n
    log_corrected = lam == 0.0

    if anchor:
        envelopes = {
            "position": kappa + lam - 1.0,
            "density": -n * kappa + lam - 1.0,
            "velocity": kappa + lam - 2.0,
        }
    else:
        envelopes = {
            "position": kappa,
            "density": -n * kappa,
            "velocity": kappa - 1.0,
        }

    identity_err = None
    if anchor:
        closed = closed_form_gaps(path, params, times, r_max)
        identity_err = 0.0
        for name in GAP_NAMES:
            measured = series[f"{name}_gap"]
            expected = closed[name]
            scale = np.max(np.abs(expected)) + 1e-300
            identity_err = max(identity_err, float(
                np.max(np.abs(measured - expected)) / scale))

    exponents, passes, fits = {}, {}, {}
    for name in GAP_NAMES:
        fit = decay_fit(times, series[f"{name}_gap"], window=window,
                        log_corrected=log_corrected, min_samples=50)
        fits[name] = fit
        exponents[name] = fit.exponent
        if anchor:
            passes[name] = abs(fit.exponent - envelopes[name]) <= slack
        else:
            passes[name] = fit.exponent <= envelopes[name] + slack
    if anchor:
        passes["identity"] = identity_err <= IDENTITY_TOL
    return RateReport(anchor=anchor, window=window, exponents=exponents,
                      envelopes=envelopes, slack=slack, log_corrected=log_corrected,
                      passes=passes, identity_max_rel_err=identity_err, fits=fits)


@dataclass
class BoundednessReport:
    """sup_t E(t)/E(0) per component and total, against a threshold."""

    applicable: bool
    threshold: float
    total_ratio: float | None
    component_ratios: dict[str, float]
    flagged: list[str]

    @property
    def ok(self) -> bool:
        return (not self.applicable) or (self.total_ratio <= self.threshold
                                         and not self.flagged)

    def to_dict(self) -> dict:
        return {
            "applicable": self.applicable,
            "threshold": self.threshold,
            "total_ratio": self.total_ratio,
            "component_ratios": self.component_ratios,
            "flagged": self.flagged,
            "ok": self.ok,
        }


def boundedness_report(energies: dict[str, np.ndarray],
                       threshold: float = 10.0) -> BoundednessReport:
    """Energy-boundedness ratios of the columns t, E_m_i_j..., E_total of
    energies.csv; not applicable when E(0) = 0 (anchor)."""
    total = energies["E_total"]
    if total[0] == 0.0:
        return BoundednessReport(applicable=False, threshold=threshold,
                                 total_ratio=None, component_ratios={}, flagged=[])
    ratios = {}
    flagged = []
    for name, series in energies.items():
        if name in ("t", "E_total"):
            continue
        base = series[0]
        if base <= 0.0:
            ratios[name] = float("nan")
            continue
        ratios[name] = float(np.max(series) / base)
        if ratios[name] > threshold:
            flagged.append(name)
    total_ratio = float(np.max(total) / total[0])
    return BoundednessReport(applicable=True, threshold=threshold,
                             total_ratio=total_ratio, component_ratios=ratios,
                             flagged=flagged)
