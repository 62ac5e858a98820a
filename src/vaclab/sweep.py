"""Parameter sweeps over (lambda, gamma, epsilon) with per-cell isolation."""
from __future__ import annotations

import copy
import json
import logging
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

# runio.run is looked up on its module at each call, so a wrapper set
# there (the benchmark's cell mark) sees every cell
from . import runio
from .config import parse_config
from .tables import write_csv

logger = logging.getLogger(__name__)

SUMMARY_HEADER = ("cell", "lambda", "gamma", "epsilon", "status", "ok",
                  "preservation_sup", "exp_position", "exp_density",
                  "exp_velocity", "boundedness_ratio")


def _cell_name(lam: float, gamma: float, eps: float) -> str:
    return f"lam{lam:g}_gam{gamma:g}_eps{eps:g}"


def _run_cell(cfg_dict: dict) -> dict:
    """Runs one cell; never raises."""
    try:
        cfg = parse_config(cfg_dict)
        result = runio.run(cfg)
        report = result.report
        rates = report.get("rates") or {}
        exps = rates.get("exponents", {})
        bounded = report.get("boundedness") or {}
        return {
            "status": report.get("status", "unknown"),
            "ok": bool(result.ok),
            "preservation_sup": report.get("preservation_sup"),
            "exp_position": exps.get("position"),
            "exp_density": exps.get("density"),
            "exp_velocity": exps.get("velocity"),
            "boundedness_ratio": bounded.get("total_ratio"),
        }
    except Exception as exc:
        logger.exception("sweep cell failed")
        return {"status": "error", "ok": False, "error": f"{type(exc).__name__}: {exc}",
                "preservation_sup": None, "exp_position": None, "exp_density": None,
                "exp_velocity": None, "boundedness_ratio": None}


def _run_cells(cfg_dicts: list[dict]) -> list[dict]:
    """Cells run one after another in one process (a worker's task)."""
    return [_run_cell(cfg) for cfg in cfg_dicts]


def sweep(base_config, lambdas, gammas, epsilons, out_dir,
          workers: int | None = None) -> list[dict]:
    """Run every (lambda, gamma, epsilon) combination independently and
    aggregate one summary row per cell; individual failures are recorded,
    never abort the sweep."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = []
    for lam in lambdas:
        for gamma in gammas:
            for eps in epsilons:
                cfg = copy.deepcopy(base_config.to_dict())
                cfg["params"]["lambda"] = lam
                cfg["params"]["gamma"] = gamma
                cfg["solver"]["seed"]["amplitude"] = eps
                if eps > 0.0 and cfg["solver"]["seed"]["shape"] == "zero":
                    cfg["solver"]["seed"]["shape"] = "parabolic"
                name = _cell_name(lam, gamma, eps)
                cfg["outputs"]["directory"] = str(out_dir / name)
                cells.append((name, lam, gamma, eps, cfg))
    configs = [cell[-1] for cell in cells]

    if workers is None:
        workers = min(len(cells), 4)
    if workers > 1:
        # The cells of one (lambda, gamma) are adjacent and share their
        # correction path.  Each worker takes one run of adjacent cells, as
        # many as any other give or take one, and solves each path in it once.
        tasks = [configs[len(configs) * i // workers:len(configs) * (i + 1) // workers]
                 for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = [o for results in pool.map(_run_cells, tasks) for o in results]
    else:
        outcomes = _run_cells(configs)

    rows = []
    for (name, lam, gamma, eps, _), outcome in zip(cells, outcomes):
        row = {"cell": name, "lambda": lam, "gamma": gamma, "epsilon": eps}
        row.update(outcome)
        rows.append(row)

    write_csv(out_dir / "summary.csv",
              {name: [row.get(name) for row in rows] for name in SUMMARY_HEADER})
    (out_dir / "summary.json").write_text(
        json.dumps(rows, indent=2, sort_keys=True, default=str) + "\n")
    return rows

