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
    run_report.json      assertion summary, exit status and telemetry: the
                         wall and CPU seconds of each phase (constants,
                         correction, grid, evolve, diagnostics, persist),
                         the integration stats, the correction path's
                         steps and whether this run solved it, and the
                         Python, vaclab and NumPy versions

``run`` enters the path with the seeded state at output 0.  ``resume``
enters it with the last checkpoint at that checkpoint's output index + 1;
it rewrites the three per-output tables with the persisted rows up to the
checkpoint in front of the new ones, adds the new checkpoints, and
rewrites the three reports, which cover the whole run.  ``refit``
recomputes the three reports by the same function.

The columns of series.csv and energies.csv, keyed by their header names,
are the only in-memory form of the two tables: ``gap_series`` and
``evolve`` produce them, ``_persist`` writes them, and the reports read
them, the columns just written in ``run`` and ``resume`` and the columns
read back in ``refit``.

Numbers are written with repr-faithful formatting, so identical configs
and seeds reproduce bit-identical CSV files.
"""
from __future__ import annotations

import contextlib
import dataclasses
import json
import logging
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import correction
from .config import RunConfig, load_config
from .correction import CorrectionPath
from .diagnostics import boundedness_report, gap_series, theorem_rate_report
from .params import PhysParams, derive_constants
from .radial import (RadialOperator, RadialState, RadialTrajectory, evolve,
                     output_schedule, reconstructed_mass, seed_profile)
from .tables import read_csv, write_csv
from .weighted import WeightedGrid

logger = logging.getLogger(__name__)

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


def _series_columns(trajectory: RadialTrajectory, series: dict[str, np.ndarray],
                    setup: _Setup) -> dict[str, np.ndarray]:
    """series.csv columns of a trajectory: its gap series, then the boundary
    radius and mass error, which are NaN for a state without a
    reconstruction."""
    params, path, grid = setup
    op = RadialOperator(grid, path)
    boundary, mass_err = [], []
    for k in range(len(trajectory.states)):
        recon = (trajectory.reconstructions[k]
                 if k < len(trajectory.reconstructions) else None)
        boundary.append(recon.boundary_radius if recon else float("nan"))
        mass_err.append(abs(reconstructed_mass(op, recon) - params.mass) / params.mass
                        if recon else float("nan"))
    return {**series, "boundary_radius": np.array(boundary),
            "mass_rel_err": np.array(mass_err)}


RATE_GATE_HORIZON = 5e3   # below this, tail fits are pre-asymptotic
PRESERVATION_TOL = 1e-8   # sup |w| an anchor (zero-amplitude) run may reach


def _evaluate_assertions(cfg: RunConfig, setup: _Setup, status: str, failure: dict | None,
                         tables: dict) -> dict:
    """Checks, rate report and boundedness report over a whole run, from
    the columns of its series.csv and energies.csv in ``tables``."""
    params, path, grid = setup
    series, energies = tables["series.csv"], tables.get("energies.csv")
    report: dict = {"status": status}
    checks: dict[str, bool] = {"completed": status == "completed"}
    if failure:
        report["failure"] = failure

    anchor = cfg.solver.seed.amplitude == 0.0
    if anchor and len(series["t"]):
        sup = float(np.max(series["sup_w"]))
        report["preservation_sup"] = sup
        checks["preservation"] = sup <= PRESERVATION_TOL

    # reported when the series supports a two-decade tail fit; gated only
    # from RATE_GATE_HORIZON on
    rates = None
    if status == "completed" and len(series["t"]) >= 8:
        try:
            rates = theorem_rate_report(series, path, params, r_max=float(grid.r.max()))
        except ValueError:   # includes FitWindowError
            pass
    if cfg.solver.t_end >= RATE_GATE_HORIZON and rates is not None:
        checks["rates"] = rates.ok
    report["rates"] = rates.to_dict() if rates else None

    bounded = None
    if energies is not None and not anchor:
        bounded = boundedness_report(energies)
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
             series: dict[str, np.ndarray], offset: int, t_resume: float) -> dict:
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
        "energies.csv": trajectory.energies,
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


@contextlib.contextmanager
def _phase(telemetry: dict, name: str):
    """Add the wall and CPU seconds of the block to phase ``name``."""
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        yield
    finally:
        cost = telemetry["phases"].setdefault(name, {"wall_s": 0.0, "cpu_s": 0.0})
        cost["wall_s"] += time.perf_counter() - wall
        cost["cpu_s"] += time.process_time() - cpu


def _new_telemetry() -> dict:
    from . import __version__

    return {"phases": {},
            "versions": {"python": platform.python_version(), "vaclab": __version__,
                         "numpy": np.__version__}}


def _setup(cfg: RunConfig, telemetry: dict | None = None) -> _Setup:
    """Constants, correction path and grid of a run; runs of one process
    with equal constants and ode settings share the path.  ``telemetry``
    receives the phases' costs, the path's steps and whether this call
    solved the path or took it from the memo."""
    telemetry = _new_telemetry() if telemetry is None else telemetry
    with _phase(telemetry, "constants"):
        params = derive_constants(cfg.params.n, cfg.params.lam, cfg.params.gamma,
                                  cfg.params.mass)
    solves = correction._memoized_path.cache_info().misses
    with _phase(telemetry, "correction"):
        path = correction.correction_path(params, max(cfg.ode.t_end, cfg.solver.t_end),
                                          cfg.ode.rel_tol, cfg.ode.abs_tol)
    telemetry["correction"] = {
        "steps": len(path.segments),
        "solved": correction._memoized_path.cache_info().misses > solves}
    with _phase(telemetry, "grid"):
        grid = WeightedGrid(params, cfg.solver.num_nodes)
    return _Setup(params, path, grid)


def _execute(cfg: RunConfig, setup: _Setup, run_dir: Path, initial: RadialState,
             offset: int, t_start: float, telemetry: dict,
             stop: int | None = None) -> RunResult:
    """Evolve from ``initial`` through outputs offset, offset + 1, ... (up
    to ``stop``) of the configured schedule, persist, and report over the
    whole run."""
    params, path, grid = setup
    schedule = output_schedule(cfg.solver.t_end, cfg.solver.outputs_per_decade)
    with _phase(telemetry, "evolve"):
        trajectory = evolve(
            grid, path, initial, cfg.solver.t_end, output_times=schedule[offset:stop],
            rel_tol=cfg.solver.rel_tol, abs_tol=cfg.solver.abs_tol,
            stepper=cfg.solver.stepper, fixed_dt=cfg.solver.fixed_dt,
            collect_energies=cfg.solver.collect_energies,
        )
    with _phase(telemetry, "diagnostics"):
        series = gap_series(trajectory, path, params)
    with _phase(telemetry, "persist"):
        tables = _persist(run_dir, cfg, setup, trajectory, series, offset, initial.t)
    with _phase(telemetry, "diagnostics"):
        report = _evaluate_assertions(cfg, setup, trajectory.status, trajectory.failure,
                                      tables)
    telemetry["integration"] = dataclasses.asdict(trajectory.stats)
    report["telemetry"] = telemetry
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
    telemetry = _new_telemetry()
    setup = _setup(cfg, telemetry)
    # only the random shape draws: the others run without loading numpy.random
    shape = cfg.solver.seed.shape
    rng = np.random.default_rng(cfg.rng_seed) if shape == "random" else None
    w0 = seed_profile(shape, cfg.solver.seed.amplitude, setup.grid, rng)
    initial = RadialState(t=0.0, w=w0, w_t=np.zeros_like(w0))
    return _execute(cfg, setup, Path(cfg.outputs.directory), initial, 0, t_start,
                    telemetry, stop_after_outputs)


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
    telemetry = _new_telemetry()
    return _execute(cfg, _setup(cfg, telemetry), run_dir, state, index + 1, t_start,
                    telemetry)


def refit(run_dir) -> dict:
    """Recompute the reports of a run directory from its persisted series
    and energies, and rewrite rates.json, boundedness.json and
    run_report.json, which keeps its telemetry.  Returns the run report."""
    run_dir = Path(run_dir)
    cfg = load_config(run_dir / "config.json")
    report = json.loads((run_dir / "run_report.json").read_text())
    tables = {name: read_csv(run_dir / name) for name in ("series.csv", "energies.csv")
              if (run_dir / name).exists()}
    report.update(_evaluate_assertions(cfg, _setup(cfg), report["status"],
                                       report.get("failure"), tables))
    _write_reports(run_dir, report)
    return report
