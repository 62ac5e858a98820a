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
from .energy import EnergyReport
from .fitting import DecayFit, decay_fit
from .params import PhysParams
from .radial import RadialOperator, RadialTrajectory

GAP_NAMES = ("position", "density", "velocity")


@dataclass
class GapSeries:
    """Sup-over-node gaps against the background, per output time."""

    times: np.ndarray
    position: np.ndarray
    density: np.ndarray
    velocity: np.ndarray
    sup_w: np.ndarray

    def column(self, name: str) -> np.ndarray:
        return getattr(self, name)


def gap_series(trajectory: RadialTrajectory, path: CorrectionPath,
               params: PhysParams) -> GapSeries:
    """Gaps |x - xbar|, |rho o x - rhobar o xbar| / rho0, |u o x - ubar o xbar|.

    In Lagrangian radial variables:
        position gap  = |h r + theta w|,
        density gap   = nu^-n |expm1(-n log1p(h/nu) - log J)|   (rho0-relative),
        velocity gap  = |h_t r + theta_t w + theta w_t|.
    """
    n = params.n
    op = RadialOperator(trajectory.grid)
    r = trajectory.grid.r
    times, pos, dens, vel, sup = [], [], [], [], []
    for state in trajectory.states:
        t = state.t
        h = float(path.h_at(t))
        h_t = float(path.h_t_at(t))
        nu = (1.0 + t) ** params.kappa
        nu_t = params.kappa * (1.0 + t) ** (params.kappa - 1.0)
        theta, theta_t = nu + h, nu_t + h_t
        times.append(t)
        sup.append(float(np.max(np.abs(state.w))))
        pos.append(float(np.max(np.abs(h * r + theta * state.w))))
        log_j = op.log_jacobian(state.w)
        dens.append(float(np.max(np.abs(
            nu ** (-n) * np.expm1(-n * np.log1p(h / nu) - log_j)
        ))))
        vel.append(float(np.max(np.abs(h_t * r + theta_t * state.w + theta * state.w_t))))
    return GapSeries(times=np.array(times), position=np.array(pos),
                     density=np.array(dens), velocity=np.array(vel),
                     sup_w=np.array(sup))


def closed_form_gaps(path: CorrectionPath, params: PhysParams, times,
                     r_max: float) -> dict[str, np.ndarray]:
    """h-driven gap envelopes of the zero-perturbation run (exact)."""
    times = np.asarray(times, dtype=float)
    h = path.h_at(times)
    h_t = path.h_t_at(times)
    nu = (1.0 + times) ** params.kappa
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


def theorem_rate_report(series: GapSeries, path: CorrectionPath, params: PhysParams,
                        r_max: float, slack: float = 0.1,
                        window: tuple[float, float] | None = None,
                        anchor_tol: float = 1e-12,
                        identity_tol: float = 1e-10) -> RateReport:
    """Fit the three gap series and compare with the decay envelopes.

    Anchor runs (perturbation numerically zero): the gaps must match the
    h-driven closed forms to ``identity_tol`` relative, and the fitted
    exponents must equal the h-envelope exponents within ``slack``.
    Perturbed runs: fitted exponents must not exceed the theorem envelopes
    (position kappa, relative density -n kappa, velocity kappa-1, each
    carrying the same damped correction term) plus ``slack``.
    """
    t_end = float(series.times[-1])
    if window is None:
        window = (t_end / 100.0, t_end)
    if window[1] < 99.0 * window[0]:
        raise ValueError("rate-fit window must cover at least two decades")
    anchor = bool(np.max(series.sup_w) <= anchor_tol)
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
        closed = closed_form_gaps(path, params, series.times, r_max)
        identity_err = 0.0
        for name in GAP_NAMES:
            measured = series.column(name)
            expected = closed[name]
            scale = np.max(np.abs(expected)) + 1e-300
            identity_err = max(identity_err, float(
                np.max(np.abs(measured - expected)) / scale))

    exponents, passes, fits = {}, {}, {}
    for name in GAP_NAMES:
        fit = decay_fit(series.times, series.column(name), window=window,
                        log_corrected=log_corrected, min_samples=50)
        fits[name] = fit
        exponents[name] = fit.exponent
        if anchor:
            passes[name] = abs(fit.exponent - envelopes[name]) <= slack
        else:
            passes[name] = fit.exponent <= envelopes[name] + slack
    if anchor:
        passes["identity"] = identity_err <= identity_tol
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


def boundedness_report(energies: EnergyReport, threshold: float = 10.0) -> BoundednessReport:
    """Energy-boundedness ratios; not applicable when E(0) = 0 (anchor)."""
    total = energies.total
    if total[0] == 0.0:
        return BoundednessReport(applicable=False, threshold=threshold,
                                 total_ratio=None, component_ratios={}, flagged=[])
    ratios = {}
    flagged = []
    for idx in energies.indices:
        series = energies.components[idx]
        name = "E_{}_{}_{}".format(*idx)
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
