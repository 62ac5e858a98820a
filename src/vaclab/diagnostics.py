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

from .correction import CorrectionPath, per_output
from .energy import output_blocks
from .fitting import DecayFit, decay_fit
from .params import PhysParams
from .radial import RadialTrajectory, deformation, reconstructed_mass

GAP_NAMES = ("position", "density", "velocity")

# sup |w| a run whose initial state is zero may reach
PRESERVATION_TOL = 1e-8
# relative tolerance of the anchor's gaps against their closed forms
IDENTITY_TOL = 1e-10


def is_anchor(series: dict[str, np.ndarray]) -> bool:
    """Whether a run is the anchor: its initial state is zero (sup |w| of
    the first row of ``series`` is exactly 0), which the ansatz keeps zero."""
    return len(series["sup_w"]) > 0 and float(series["sup_w"][0]) == 0.0


def gap_series(trajectory: RadialTrajectory, path: CorrectionPath,
               params: PhysParams) -> dict[str, np.ndarray]:
    """Every column of series.csv, per output: t, sup |w|, the sup-over-node
    gaps |x - xbar|, |rho o x - rhobar o xbar| / rho0 and
    |u o x - ubar o xbar| (position_gap, density_gap, velocity_gap), the
    boundary radius and the relative mass error of the reconstruction,
    both NaN for a state without one.

    In Lagrangian radial variables:
        position gap  = |h r + theta w|,
        density gap   = nu^-n |expm1(-n log1p(h/nu) - log J)|   (rho0-relative),
        velocity gap  = |h_t r + theta_t w + theta w_t|.

    The outputs are evaluated one block of outputs at a time
    (:func:`vaclab.energy.output_blocks`), sliced off the trajectory's
    stacks; h, theta and the other per-output scalars are formed output by
    output (:func:`per_output`).
    """
    names = (("t", "sup_w") + tuple(f"{name}_gap" for name in GAP_NAMES)
             + ("boundary_radius", "mass_rel_err"))
    states, recons = trajectory.states, trajectory.reconstructions
    if not len(trajectory.times):
        return {name: np.array([]) for name in names}
    n = params.n
    grid = trajectory.grid
    r = grid.r

    def scalars(t):
        h, h_t = float(path.h_at(t)), float(path.h_t_at(t))
        nu = params.nu(t)
        return h, h_t, nu + h, params.nu_t(t) + h_t, nu ** (-n), -n * np.log1p(h / nu)

    def sup(values):
        return np.max(np.abs(values), axis=(1, 2))

    def columns(block):
        """The columns of one block of outputs, evaluated as one stack:
        (T, 1, m) fields and (T, 1, 1) columns of per-output scalars."""
        t, w, w_t = states.t[block], states.w[block], states.w_t[block]
        h, h_t, theta, theta_t, nu_n, log_ratio = per_output(t, scalars)
        _, _, _, (log_x, log_y) = deformation(grid, w, check=False)
        log_j = log_x + (n - 1.0) * log_y
        boundary = np.full(len(t), np.nan)
        mass_err = np.full(len(t), np.nan)
        done = len(recons.t[block]) if recons is not None else 0   # reconstructed outputs
        if done:
            boundary[:done] = recons.boundary_radius[block].ravel()
            mass_err[:done] = np.abs(reconstructed_mass(grid, path, recons[block])[:, 0]
                                     - params.mass) / params.mass
        return (t.ravel(), sup(w), sup(h * r + theta * w),
                sup(nu_n * np.expm1(log_ratio - log_j)),
                sup(h_t * r + theta_t * w + theta * w_t), boundary, mass_err)

    blocks = [columns(block) for block in output_blocks(len(trajectory.times), grid.num_nodes)]
    return dict(zip(names, map(np.concatenate, zip(*blocks))))


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
        return {**asdict(self), "ok": self.ok}


def theorem_rate_report(series: dict[str, np.ndarray], path: CorrectionPath,
                        params: PhysParams, r_max: float, slack: float = 0.1,
                        window: tuple[float, float] | None = None) -> RateReport:
    """Fit the three gap columns of ``series`` (named as in
    :func:`gap_series`) and compare with the decay envelopes.

    Anchor runs (zero initial state, :func:`is_anchor`): the gaps must match
    the h-driven closed forms to ``IDENTITY_TOL`` relative, and the fitted
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
    anchor = is_anchor(series)
    lam, kappa, n = params.lam, params.kappa, params.n
    log_corrected = lam == 0.0

    identity_err = None
    if anchor:
        envelopes = {"position": kappa + lam - 1.0, "density": -n * kappa + lam - 1.0,
                     "velocity": kappa + lam - 2.0}
        closed = closed_form_gaps(path, params, times, r_max)
        identity_err = max(float(np.max(np.abs(series[f"{name}_gap"] - closed[name]))
                                 / (np.max(np.abs(closed[name])) + 1e-300))
                           for name in GAP_NAMES)
    else:
        envelopes = {"position": kappa, "density": -n * kappa, "velocity": kappa - 1.0}

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
        return {**asdict(self), "ok": self.ok}


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
