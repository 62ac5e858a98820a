"""Run-directory orchestration: execute, persist, resume, refit.

Layout of a run directory:

    config.json        echo of the validated configuration (+ rng seed)
    correction.csv     t, h, h_t, theta, theta_t on the ODE sample grid
    series.csv         per-output gap/boundary/mass series
    energies.csv       per-output energy components and total
    states/NNNN.json   checkpointed states (flat arrays, self-describing)
    rates.json         fitted decay exponents vs envelopes
    boundedness.json   sup_t E/E(0) ratios
    run_report.json    assertion summary and exit status

Numbers are written with repr-faithful formatting, so identical configs
and seeds reproduce bit-identical CSV files.
"""
from __future__ import annotations

import csv
import json
import logging
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig
from .correction import CorrectionPath, correction_path
from .diagnostics import (GapSeries, boundedness_report, gap_series,
                          theorem_rate_report)
from .params import PhysParams, derive_constants
from .radial import (RadialOperator, RadialState, RadialTrajectory, evolve,
                     output_schedule, reconstructed_mass, seed_profile)
from .weighted import WeightedGrid

logger = logging.getLogger(__name__)

SERIES_HEADER = ("t", "sup_w", "position_gap", "density_gap", "velocity_gap",
                 "boundary_radius", "mass_rel_err")


@dataclass
class RunResult:
    directory: Path
    ok: bool
    report: dict
    trajectory: RadialTrajectory


def _fmt(value: float) -> str:
    return f"{value:.17g}"


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


def _series_rows(trajectory: RadialTrajectory, series: GapSeries,
                 path: CorrectionPath, params: PhysParams,
                 grid: WeightedGrid) -> list[list[float]]:
    op = RadialOperator(grid, path)
    rows = []
    for k, state in enumerate(trajectory.states):
        recon = (trajectory.reconstructions[k]
                 if k < len(trajectory.reconstructions) else None)
        boundary = recon.boundary_radius if recon else float("nan")
        mass_err = (abs(reconstructed_mass(op, recon) - params.mass) / params.mass
                    if recon else float("nan"))
        rows.append([series.times[k], series.sup_w[k], series.position[k],
                     series.density[k], series.velocity[k], boundary, mass_err])
    return rows


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def read_series_csv(path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    return {name: data[:, k] for k, name in enumerate(header)}


RATE_GATE_HORIZON = 5e3   # below this, tail fits are pre-asymptotic


def best_effort_rates(trajectory: RadialTrajectory, series: GapSeries,
                      path: CorrectionPath, params: PhysParams,
                      grid: WeightedGrid, slack: float):
    """Rate report when the stored series supports a two-decade tail fit,
    else None (reporting is best-effort; gating is a separate decision)."""
    from .fitting import FitWindowError

    if trajectory.status != "completed" or len(trajectory.states) < 8:
        return None
    try:
        return theorem_rate_report(series, path, params,
                                   r_max=float(grid.r.max()), slack=slack)
    except (FitWindowError, ValueError):
        return None


def _evaluate_assertions(cfg: RunConfig, trajectory: RadialTrajectory,
                         series: GapSeries, path: CorrectionPath,
                         params: PhysParams, grid: WeightedGrid) -> dict:
    report: dict = {"status": trajectory.status}
    checks: dict[str, bool] = {"completed": trajectory.status == "completed"}
    if trajectory.failure:
        report["failure"] = trajectory.failure

    anchor = cfg.solver.seed.amplitude == 0.0
    if anchor and trajectory.states:
        sup = float(np.max(trajectory.sup_norms()))
        report["preservation_sup"] = sup
        checks["preservation"] = sup <= cfg.acceptance.preservation_tol

    rates = best_effort_rates(trajectory, series, path, params, grid,
                              cfg.acceptance.exponent_slack)
    if cfg.acceptance.check_rates == "always":
        checks["rates"] = rates is not None and rates.ok
    elif (cfg.acceptance.check_rates == "auto"
          and cfg.solver.t_end >= RATE_GATE_HORIZON and rates is not None):
        checks["rates"] = rates.ok
    report["rates"] = rates.to_dict() if rates else None

    bounded = None
    if trajectory.energies is not None and not anchor:
        bounded = boundedness_report(trajectory.energies,
                                     threshold=cfg.acceptance.ratio_threshold)
        if bounded.applicable:
            checks["boundedness"] = bounded.ok
    report["boundedness"] = bounded.to_dict() if bounded else None

    report["checks"] = checks
    report["ok"] = all(checks.values())
    return report


def _persist(run_dir: Path, cfg: RunConfig, path: CorrectionPath,
             params: PhysParams, grid: WeightedGrid,
             trajectory: RadialTrajectory, series: GapSeries, report: dict) -> None:
    states_dir = run_dir / "states"
    states_dir.mkdir(parents=True, exist_ok=True)
    cfg.dump(run_dir / "config.json")
    path.write_csv(run_dir / "correction.csv")
    rows = _series_rows(trajectory, series, path, params, grid)
    _write_csv(run_dir / "series.csv", SERIES_HEADER, rows)
    if trajectory.energies is not None:
        trajectory.energies.write_csv(run_dir / "energies.csv")
    every = cfg.outputs.checkpoint_every
    last = len(trajectory.states) - 1
    for k, state in enumerate(trajectory.states):
        if k % every == 0 or k == last:
            _write_state(states_dir / f"{k:04d}.json", state, k)
    if trajectory.reconstructions:
        recon_rows = []
        for k, rec in enumerate(trajectory.reconstructions):
            if k % every == 0 or k == last:
                for q in range(grid.num_nodes):
                    recon_rows.append([rec.t, grid.r[q], rec.radii[q],
                                       rec.density[q], rec.velocity[q]])
        _write_csv(run_dir / "reconstructions.csv",
                   ("t", "y", "x", "density", "velocity"), recon_rows)
    (run_dir / "rates.json").write_text(
        json.dumps(report.get("rates"), indent=2, sort_keys=True) + "\n")
    (run_dir / "boundedness.json").write_text(
        json.dumps(report.get("boundedness"), indent=2, sort_keys=True) + "\n")
    (run_dir / "run_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")


def _setup(cfg: RunConfig) -> tuple[PhysParams, CorrectionPath, WeightedGrid]:
    """Constants, correction path and grid of a run; runs of one process
    with equal constants and ode settings share the path."""
    params = derive_constants(cfg.params.n, cfg.params.lam, cfg.params.gamma,
                              cfg.params.mass)
    path = correction_path(params, max(cfg.ode.t_end, cfg.solver.t_end),
                           cfg.ode.rel_tol, cfg.ode.abs_tol)
    return params, path, WeightedGrid(params, cfg.solver.num_nodes)


def run(cfg: RunConfig, stop_after_outputs: int | None = None) -> RunResult:
    """Execute the configured pipeline: ODE solve, radial evolution,
    diagnostics, persistence.  Partial artifacts are retained on failure."""
    t_start = time.time()
    params, path, grid = _setup(cfg)
    rng = np.random.default_rng(cfg.rng_seed)
    w0 = seed_profile(cfg.solver.seed.shape, cfg.solver.seed.amplitude, grid, rng)
    initial = RadialState(t=0.0, w=w0, w_t=np.zeros_like(w0))
    schedule = output_schedule(cfg.solver.t_end, cfg.solver.outputs_per_decade)
    if stop_after_outputs is not None:
        schedule = schedule[:stop_after_outputs]
    trajectory = evolve(
        grid, path, initial, cfg.solver.t_end, output_times=schedule,
        rel_tol=cfg.solver.rel_tol, abs_tol=cfg.solver.abs_tol,
        cfl_safety=cfg.solver.cfl_safety, stepper=cfg.solver.stepper,
        fixed_dt=cfg.solver.fixed_dt, collect_energies=cfg.solver.collect_energies,
    )
    series = gap_series(trajectory, path, params)
    report = _evaluate_assertions(cfg, trajectory, series, path, params, grid)
    report["wall_seconds"] = time.time() - t_start
    report["rng_seed"] = cfg.rng_seed
    run_dir = Path(cfg.outputs.directory)
    _persist(run_dir, cfg, path, params, grid, trajectory, series, report)
    logger.info("run %s: ok=%s (%.1fs)", run_dir, report["ok"], report["wall_seconds"])
    return RunResult(directory=run_dir, ok=report["ok"], report=report,
                     trajectory=trajectory)


def resume(run_dir) -> RunResult:
    """Continue an interrupted run from its last checkpoint.

    The original output schedule is reconstructed from the config echo, so
    a resumed run matches the uninterrupted one within the integrator
    tolerance at every remaining output time.
    """
    from .config import load_config

    run_dir = Path(run_dir)
    cfg = load_config(run_dir / "config.json")
    state_files = sorted((run_dir / "states").glob("*.json"))
    if not state_files:
        raise FileNotFoundError(f"no checkpoints found under {run_dir}/states")
    state, index = _read_state(state_files[-1])
    params, path, grid = _setup(cfg)
    schedule = output_schedule(cfg.solver.t_end, cfg.solver.outputs_per_decade)
    remaining = schedule[schedule > state.t + 1e-12]
    trajectory = evolve(
        grid, path, state, cfg.solver.t_end, output_times=remaining,
        rel_tol=cfg.solver.rel_tol, abs_tol=cfg.solver.abs_tol,
        cfl_safety=cfg.solver.cfl_safety, stepper=cfg.solver.stepper,
        fixed_dt=cfg.solver.fixed_dt, collect_energies=cfg.solver.collect_energies,
    )
    # merge persisted prefix rows with the continuation
    old_series = read_series_csv(run_dir / "series.csv")
    keep = old_series["t"] <= state.t + 1e-12
    prefix_rows = [[old_series[name][k] for name in SERIES_HEADER]
                   for k in range(int(np.count_nonzero(keep)))]
    series = gap_series(trajectory, path, params)
    new_rows = _series_rows(trajectory, series, path, params, grid)
    _write_csv(run_dir / "series.csv", SERIES_HEADER, prefix_rows + new_rows)
    if trajectory.energies is not None and (run_dir / "energies.csv").exists():
        from .energy import read_energy_csv

        old = read_energy_csv(run_dir / "energies.csv")
        keep_e = old.times <= state.t + 1e-12
        merged_rows = []
        header = ["t"] + [f"E_{m}_{i}_{j}" for (m, i, j) in old.indices] + ["E_total"]
        total_old = old.total
        for k in range(int(np.count_nonzero(keep_e))):
            merged_rows.append([old.times[k]]
                               + [old.components[idx][k] for idx in old.indices]
                               + [total_old[k]])
        total_new = trajectory.energies.total
        for k, t in enumerate(trajectory.energies.times):
            merged_rows.append([t]
                               + [trajectory.energies.components[idx][k]
                                  for idx in trajectory.energies.indices]
                               + [total_new[k]])
        _write_csv(run_dir / "energies.csv", header, merged_rows)
    report = _evaluate_assertions(cfg, trajectory, series, path, params, grid)
    report["resumed_from"] = {"t": state.t, "output_index": index}
    states_dir = run_dir / "states"
    every = cfg.outputs.checkpoint_every
    last = len(trajectory.states) - 1
    for k, st in enumerate(trajectory.states):
        global_index = index + 1 + k
        if global_index % every == 0 or k == last:
            _write_state(states_dir / f"{global_index:04d}.json", st, global_index)
    (run_dir / "run_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    return RunResult(directory=run_dir, ok=report["ok"], report=report,
                     trajectory=trajectory)


def refit(run_dir) -> dict:
    """Re-run the decay-rate and boundedness diagnostics on stored outputs."""
    from .config import load_config
    from .energy import read_energy_csv

    run_dir = Path(run_dir)
    cfg = load_config(run_dir / "config.json")
    params, path, grid = _setup(cfg)
    series = read_series_csv(run_dir / "series.csv")

    gaps = GapSeries(times=series["t"], position=series["position_gap"],
                     density=series["density_gap"], velocity=series["velocity_gap"],
                     sup_w=series["sup_w"])
    rates = theorem_rate_report(gaps, path, params, r_max=float(grid.r.max()),
                                slack=cfg.acceptance.exponent_slack)
    (run_dir / "rates.json").write_text(
        json.dumps(rates.to_dict(), indent=2, sort_keys=True) + "\n")
    bounded = None
    if (run_dir / "energies.csv").exists():
        energies = read_energy_csv(run_dir / "energies.csv")
        bounded = boundedness_report(energies, threshold=cfg.acceptance.ratio_threshold)
        (run_dir / "boundedness.json").write_text(
            json.dumps(bounded.to_dict(), indent=2, sort_keys=True) + "\n")
    return {"rates": rates.to_dict(),
            "boundedness": bounded.to_dict() if bounded else None}
