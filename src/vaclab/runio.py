"""Run-directory orchestration: one execute -> persist -> report path.

Layout of a run directory:

    config.json          echo of the validated configuration (+ rng seed)
    correction.csv       t, h, h_t, theta, theta_t on the ODE sample grid
    series.csv           per-output gap/boundary/mass series
    energies.csv         per-output energy components and total
    reconstructions.csv  nodewise physical position/density/velocity at
                         the checkpoints
    states/NNNN.json     checkpointed states (flat arrays, self-describing),
                         NNNN the global output index
    rates.json           fitted decay exponents vs envelopes
    boundedness.json     sup_t E/E(0) ratios
    run_report.json      assertion summary and exit status

``run`` enters the path with the seeded state at output 0.  ``resume``
enters it with the last checkpoint at that checkpoint's output index + 1;
it rewrites the three per-output tables with the persisted rows up to the
checkpoint in front of the new ones, adds the new checkpoints, and
rewrites the three reports, which cover the whole run.  ``refit``
recomputes the three reports from the persisted series and energies, by
the same function.

Numbers are written with repr-faithful formatting, so identical configs
and seeds reproduce bit-identical CSV files.
"""
from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import RunConfig, load_config
from .correction import CorrectionPath, correction_path
from .diagnostics import (GapSeries, boundedness_report, gap_series,
                          theorem_rate_report)
from .energy import EnergyReport
from .params import PhysParams, derive_constants
from .radial import (RadialOperator, RadialState, RadialTrajectory, evolve,
                     output_schedule, reconstructed_mass, seed_profile)
from .tables import read_csv, write_csv
from .weighted import WeightedGrid

logger = logging.getLogger(__name__)

# series.csv column -> GapSeries field; boundary_radius and mass_rel_err follow
SERIES_COLUMNS = {"t": "times", "sup_w": "sup_w", "position_gap": "position",
                  "density_gap": "density", "velocity_gap": "velocity"}
read_series_csv = read_csv


@dataclass
class RunResult:
    directory: Path
    ok: bool
    report: dict
    trajectory: RadialTrajectory


class _Setup(NamedTuple):
    params: PhysParams
    path: CorrectionPath
    grid: WeightedGrid


def _write_state(path: Path, state: RadialState, index: int) -> None:
    payload = {
        "schema": 1,
        "output_index": index,
        "t": state.t,
        "w": [float(v) for v in state.w],
        "w_t": [float(v) for v in state.w_t],
    }
    path.write_text(json.dumps(payload) + "\n")


def _read_state(path: Path) -> tuple[RadialState, int]:
    data = json.loads(Path(path).read_text())
    return RadialState(t=float(data["t"]), w=np.array(data["w"]),
                       w_t=np.array(data["w_t"])), int(data["output_index"])


def _series_columns(trajectory: RadialTrajectory, series: GapSeries,
                    setup: _Setup) -> dict[str, np.ndarray]:
    """series.csv columns of a trajectory; a state without a reconstruction
    gets NaN boundary radius and mass error."""
    params, path, grid = setup
    op = RadialOperator(grid, path)
    boundary, mass_err = [], []
    for k in range(len(trajectory.states)):
        recon = (trajectory.reconstructions[k]
                 if k < len(trajectory.reconstructions) else None)
        boundary.append(recon.boundary_radius if recon else float("nan"))
        mass_err.append(abs(reconstructed_mass(op, recon) - params.mass) / params.mass
                        if recon else float("nan"))
    columns = {name: getattr(series, field) for name, field in SERIES_COLUMNS.items()}
    columns["boundary_radius"] = np.array(boundary)
    columns["mass_rel_err"] = np.array(mass_err)
    return columns


def _whole_run(tables: dict) -> tuple[GapSeries, EnergyReport | None]:
    """Gap series and energies from the columns of series.csv and energies.csv."""
    series = GapSeries(**{field: tables["series.csv"][name]
                          for name, field in SERIES_COLUMNS.items()})
    energies = tables.get("energies.csv")
    return series, EnergyReport.from_columns(energies) if energies is not None else None


RATE_GATE_HORIZON = 5e3   # below this, tail fits are pre-asymptotic


def _evaluate_assertions(cfg: RunConfig, setup: _Setup, status: str, failure: dict | None,
                         series: GapSeries, energies: EnergyReport | None) -> dict:
    """Checks, rate report and boundedness report over a whole run."""
    params, path, grid = setup
    report: dict = {"status": status}
    checks: dict[str, bool] = {"completed": status == "completed"}
    if failure:
        report["failure"] = failure

    anchor = cfg.solver.seed.amplitude == 0.0
    if anchor and len(series.times):
        sup = float(np.max(series.sup_w))
        report["preservation_sup"] = sup
        checks["preservation"] = sup <= cfg.acceptance.preservation_tol

    # reported when the series supports a two-decade tail fit; gating is
    # a separate decision
    rates = None
    if status == "completed" and len(series.times) >= 8:
        try:
            rates = theorem_rate_report(series, path, params, r_max=float(grid.r.max()),
                                        slack=cfg.acceptance.exponent_slack)
        except ValueError:   # includes FitWindowError
            pass
    if cfg.acceptance.check_rates == "always":
        checks["rates"] = rates is not None and rates.ok
    elif (cfg.acceptance.check_rates == "auto"
          and cfg.solver.t_end >= RATE_GATE_HORIZON and rates is not None):
        checks["rates"] = rates.ok
    report["rates"] = rates.to_dict() if rates else None

    bounded = None
    if energies is not None and not anchor:
        bounded = boundedness_report(energies, threshold=cfg.acceptance.ratio_threshold)
        if bounded.applicable:
            checks["boundedness"] = bounded.ok
    report["boundedness"] = bounded.to_dict() if bounded else None

    report["checks"] = checks
    report["ok"] = all(checks.values())
    return report


def _write_reports(run_dir: Path, report: dict) -> None:
    for name, value in (("rates.json", report["rates"]),
                        ("boundedness.json", report["boundedness"]),
                        ("run_report.json", report)):
        (run_dir / name).write_text(json.dumps(value, indent=2, sort_keys=True) + "\n")


def _with_prefix(file: Path, columns: dict | None, t_resume: float) -> dict | None:
    """The rows of a persisted table with t <= t_resume, then ``columns``."""
    if not file.exists():
        return columns
    old = read_csv(file)
    keep = old["t"] <= t_resume
    return {name: np.concatenate([values[keep], columns[name] if columns else []])
            for name, values in old.items()}


def _persist(run_dir: Path, cfg: RunConfig, setup: _Setup, trajectory: RadialTrajectory,
             series: GapSeries, offset: int, t_resume: float) -> dict:
    """Write the configuration, correction path, checkpoints and per-output
    tables; output k of the trajectory has the global index offset + k.  A
    resumed run (offset > 0) keeps the persisted table rows up to its
    checkpoint time in front of its own.  Returns the written columns."""
    states_dir = run_dir / "states"
    states_dir.mkdir(parents=True, exist_ok=True)
    cfg.dump(run_dir / "config.json")
    setup.path.write_csv(run_dir / "correction.csv")
    every, last = cfg.outputs.checkpoint_every, len(trajectory.states) - 1
    marks = [k for k in range(last + 1) if (offset + k) % every == 0 or k == last]
    for k in marks:
        _write_state(states_dir / f"{offset + k:04d}.json", trajectory.states[k], offset + k)
    recons = [trajectory.reconstructions[k] for k in marks
              if k < len(trajectory.reconstructions)]
    grid = setup.grid
    tables = {
        "series.csv": _series_columns(trajectory, series, setup),
        "energies.csv": trajectory.energies.columns() if trajectory.energies else None,
        "reconstructions.csv": dict(zip(
            ("t", "y", "x", "density", "velocity"),
            np.hstack([np.vstack([np.full(grid.num_nodes, rec.t), grid.r, rec.radii,
                                  rec.density, rec.velocity]) for rec in recons]),
        )) if recons else None,
    }
    for name, columns in tables.items():
        if offset:
            columns = tables[name] = _with_prefix(run_dir / name, columns, t_resume)
        if columns is not None:
            write_csv(run_dir / name, columns, zip(*columns.values()))
    return tables


def _setup(cfg: RunConfig) -> _Setup:
    """Constants, correction path and grid of a run; runs of one process
    with equal constants and ode settings share the path."""
    params = derive_constants(cfg.params.n, cfg.params.lam, cfg.params.gamma,
                              cfg.params.mass)
    path = correction_path(params, max(cfg.ode.t_end, cfg.solver.t_end),
                           cfg.ode.rel_tol, cfg.ode.abs_tol)
    return _Setup(params, path, WeightedGrid(params, cfg.solver.num_nodes))


def _execute(cfg: RunConfig, setup: _Setup, run_dir: Path, initial: RadialState,
             offset: int, t_start: float, stop: int | None = None) -> RunResult:
    """Evolve from ``initial`` through outputs offset, offset + 1, ... (up
    to ``stop``) of the configured schedule, persist, and report over the
    whole run."""
    params, path, grid = setup
    schedule = output_schedule(cfg.solver.t_end, cfg.solver.outputs_per_decade)
    trajectory = evolve(
        grid, path, initial, cfg.solver.t_end, output_times=schedule[offset:stop],
        rel_tol=cfg.solver.rel_tol, abs_tol=cfg.solver.abs_tol,
        cfl_safety=cfg.solver.cfl_safety, stepper=cfg.solver.stepper,
        fixed_dt=cfg.solver.fixed_dt, collect_energies=cfg.solver.collect_energies,
    )
    series = gap_series(trajectory, path, params)
    tables = _persist(run_dir, cfg, setup, trajectory, series, offset, initial.t)
    report = _evaluate_assertions(cfg, setup, trajectory.status, trajectory.failure,
                                  *_whole_run(tables))
    report["wall_seconds"] = time.time() - t_start
    report["rng_seed"] = cfg.rng_seed
    if offset:
        report["resumed_from"] = {"t": initial.t, "output_index": offset - 1}
    _write_reports(run_dir, report)
    logger.info("run %s: ok=%s (%.1fs)", run_dir, report["ok"], report["wall_seconds"])
    return RunResult(directory=run_dir, ok=report["ok"], report=report,
                     trajectory=trajectory)


def run(cfg: RunConfig, stop_after_outputs: int | None = None) -> RunResult:
    """Execute the configured pipeline: ODE solve, radial evolution,
    diagnostics, persistence.  Partial artifacts are retained on failure."""
    t_start = time.time()
    setup = _setup(cfg)
    rng = np.random.default_rng(cfg.rng_seed)
    w0 = seed_profile(cfg.solver.seed.shape, cfg.solver.seed.amplitude, setup.grid, rng)
    initial = RadialState(t=0.0, w=w0, w_t=np.zeros_like(w0))
    return _execute(cfg, setup, Path(cfg.outputs.directory), initial, 0, t_start,
                    stop_after_outputs)


def resume(run_dir) -> RunResult:
    """Continue an interrupted run from its last checkpoint.

    The original output schedule is reconstructed from the config echo, so
    a resumed run matches the uninterrupted one within the integrator
    tolerance at every remaining output time; its tables and reports cover
    the whole run.
    """
    t_start = time.time()
    run_dir = Path(run_dir)
    cfg = load_config(run_dir / "config.json")
    state_files = list((run_dir / "states").glob("*.json"))
    if not state_files:
        raise FileNotFoundError(f"no checkpoints found under {run_dir}/states")
    # names carry the output index with at least four digits: 10000 > 5000
    state, index = _read_state(max(state_files, key=lambda f: int(f.stem)))
    return _execute(cfg, _setup(cfg), run_dir, state, index + 1, t_start)


def refit(run_dir) -> dict:
    """Recompute the reports of a run directory from its persisted series
    and energies, and rewrite rates.json, boundedness.json and
    run_report.json.  Returns the run report."""
    run_dir = Path(run_dir)
    cfg = load_config(run_dir / "config.json")
    report = json.loads((run_dir / "run_report.json").read_text())
    tables = {name: read_csv(run_dir / name) for name in ("series.csv", "energies.csv")
              if (run_dir / name).exists()}
    report.update(_evaluate_assertions(cfg, _setup(cfg), report["status"],
                                       report.get("failure"), *_whole_run(tables)))
    _write_reports(run_dir, report)
    return report
