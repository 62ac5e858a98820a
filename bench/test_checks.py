"""Each correctness check of the benchmark fails on a corrupted output.

    python3 -m pytest -q bench/test_checks.py

Good outputs come from small runs of the same CLI calls (fewer nodes,
shorter horizons); each test corrupts one value and expects the check that
guards it to report a failure, while the uncorrupted output passes.
"""
from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from workloads import VERIFY_CHECKS, sweep_cell_name  # noqa: E402

ANCHOR_NODES, ANCHOR_T_END = 32, 100.0
SWEEP_T_END = 1e3
LAM, EPS = (0.0, 0.5), (5e-4, 1e-3)


def _cli(args) -> int:
    from vaclab.cli import main

    return main([str(a) for a in args])


def _config(path: Path, nodes: int, t_end: float, seed: dict, energies: bool) -> Path:
    path.write_text(json.dumps({
        "params": {"n": 3, "gamma": 2.0},
        "ode": {"t_end": max(2.0 * t_end, 1e3)},
        "solver": {"num_nodes": nodes, "t_end": t_end, "collect_energies": energies,
                   "seed": seed},
    }))
    return path


@pytest.fixture(scope="module")
def anchor_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("anchor")
    cfg = _config(tmp / "anchor.json", ANCHOR_NODES, ANCHOR_T_END,
                  {"shape": "zero", "amplitude": 0.0}, energies=False)
    assert _cli(["evolve", "--config", cfg, "--out", tmp / "run"]) == 0
    return tmp / "run"


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    cfg = _config(tmp / "sweep.json", 16, SWEEP_T_END,
                  {"shape": "parabolic", "amplitude": 1e-3}, energies=True)
    code = _cli(["sweep", "--config", cfg, "--lambdas", "0,0.5", "--gammas", "2",
                 "--epsilons", "5e-4,1e-3", "--out", tmp / "sweep", "--workers", "1"])
    assert code == 0
    return tmp / "sweep"


def _copy(src: Path, tmp_path: Path) -> Path:
    dst = tmp_path / src.name
    shutil.copytree(src, dst)
    return dst


def _edit_csv(path: Path, column: str, edit) -> None:
    """Replace ``column`` by ``edit(column values, times)``."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    k = rows[0].index(column)
    values = [float(r[k]) for r in rows[1:]]
    times = [float(r[0]) for r in rows[1:]]
    for row, value in zip(rows[1:], edit(values, times)):
        row[k] = repr(float(value))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _check_anchor(run_dir, code=0):
    return checks.check_anchor(run_dir, code, nodes=ANCHOR_NODES, t_end=ANCHOR_T_END)


def _check_sweep(sweep_dir, code=0):
    return checks.check_sweep(sweep_dir, code, lambdas=LAM, epsilons=EPS,
                              t_end=SWEEP_T_END)


def _at(index, factor=None, value=None):
    def edit(values, _times):
        out = list(values)
        out[index] = value if value is not None else out[index] * factor
        return out
    return edit


def test_anchor_passes_on_good_output(anchor_run):
    assert _check_anchor(anchor_run) == []


@pytest.mark.parametrize("column,edit,needle", [
    ("sup_w", _at(-1, value=1e-6), "sup_w"),
    ("boundary_radius", _at(40, factor=1.0 + 1e-8), "boundary_radius"),
    ("position_gap", _at(-1, factor=1.0 + 1e-6), "position_gap"),
    ("density_gap", _at(-1, factor=1.0 + 1e-6), "density_gap"),
    ("velocity_gap", _at(-1, factor=1.0 + 1e-6), "velocity_gap"),
    ("mass_rel_err", _at(10, value=1e-9), "mass_rel_err"),
])
def test_anchor_check_fails_on_corrupted_series(anchor_run, tmp_path, column, edit, needle):
    run_dir = _copy(anchor_run, tmp_path)
    _edit_csv(run_dir / "series.csv", column, edit)
    failures = _check_anchor(run_dir)
    assert any(needle in f for f in failures), failures


def test_anchor_check_fails_on_truncated_series(anchor_run, tmp_path):
    run_dir = _copy(anchor_run, tmp_path)
    path = run_dir / "series.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    assert any("outputs ending" in f for f in _check_anchor(run_dir))


def test_anchor_check_fails_on_status(anchor_run, tmp_path):
    run_dir = _copy(anchor_run, tmp_path)
    report = json.loads((run_dir / "run_report.json").read_text())
    report["status"] = "failed"
    (run_dir / "run_report.json").write_text(json.dumps(report))
    assert _check_anchor(run_dir)[0].startswith(checks.STATUS)
    assert _check_anchor(anchor_run, code=1)[0].startswith(checks.STATUS)


def test_sweep_passes_on_good_output(sweep_run):
    assert _check_sweep(sweep_run) == {sweep_cell_name(lam, eps): []
                                       for lam in LAM for eps in EPS}


def _failed_cells(failures, needle):
    return {cell for cell, msgs in failures.items() if any(needle in m for m in msgs)}


@pytest.mark.parametrize("file,column,edit,needle", [
    ("correction.csv", "theta", _at(200, factor=1.0 + 1e-8), "correction.csv theta"),
    ("series.csv", "position_gap",
     lambda v, t: [x * (1.0 + s) for x, s in zip(v, t)], "position_gap exponent"),
    ("series.csv", "density_gap",
     lambda v, t: [x * (1.0 + s) for x, s in zip(v, t)], "density_gap exponent"),
    ("series.csv", "velocity_gap",
     lambda v, t: [x * (1.0 + s) for x, s in zip(v, t)], "velocity_gap exponent"),
    ("energies.csv", "E_total", _at(-1, value=1e30), "> 10"),
    ("series.csv", "mass_rel_err", _at(5, value=1e-9), "mass_rel_err"),
])
def test_sweep_check_fails_on_corrupted_cell(sweep_run, tmp_path, file, column, edit, needle):
    sweep_dir = _copy(sweep_run, tmp_path)
    cell = sweep_cell_name(0.5, 1e-3)
    _edit_csv(sweep_dir / cell / file, column, edit)
    assert _failed_cells(_check_sweep(sweep_dir), needle) == {cell}


def test_sweep_check_fails_on_energy_disagreement(sweep_run, tmp_path):
    sweep_dir = _copy(sweep_run, tmp_path)
    cell = sweep_cell_name(0.0, 1e-3)
    _edit_csv(sweep_dir / cell / "energies.csv", "E_total",
              lambda v, _t: [v[0]] + [x * 1.3 for x in v[1:]])
    assert _failed_cells(_check_sweep(sweep_dir), "sup E/E(0)") == {
        sweep_cell_name(0.0, 5e-4), cell}


def test_sweep_check_fails_on_nonlinear_amplitude(sweep_run, tmp_path):
    sweep_dir = _copy(sweep_run, tmp_path)
    cell = sweep_cell_name(0.5, 1e-3)
    _edit_csv(sweep_dir / cell / "series.csv", "sup_w", _at(50, factor=1.05))
    assert _failed_cells(_check_sweep(sweep_dir), "sup_w(eps") == {
        sweep_cell_name(0.5, 5e-4), cell}


def test_sweep_check_fails_on_incomplete_cell(sweep_run, tmp_path):
    sweep_dir = _copy(sweep_run, tmp_path)
    rows = json.loads((sweep_dir / "summary.json").read_text())
    rows[0]["status"] = "error"
    (sweep_dir / "summary.json").write_text(json.dumps(rows))
    failures = _check_sweep(sweep_dir, code=1)
    assert failures[rows[0]["cell"]][0].startswith(checks.STATUS)
    assert sum(bool(m) for m in failures.values()) == 1


def _suite(tmp_path, checks_out) -> Path:
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"ok": all(c["passed"] for c in checks_out),
                                "checks": checks_out}))
    return path


def _good_checks():
    return [{"name": name, "passed": True, "seconds": 1.0} for name in VERIFY_CHECKS]


def test_verify_passes_on_good_report(tmp_path):
    assert not any(checks.check_verify(_suite(tmp_path, _good_checks()), 0).values())


def test_verify_check_fails_on_failed_check(tmp_path):
    report = _good_checks()
    report[9]["passed"] = False
    failures = checks.check_verify(_suite(tmp_path, report), 1)
    assert [name for name, msgs in failures.items() if msgs] == [VERIFY_CHECKS[9]]


def test_verify_check_fails_on_missing_or_extra_check(tmp_path):
    failures = checks.check_verify(_suite(tmp_path, _good_checks()[:-1]), 0)
    assert failures[VERIFY_CHECKS[-1]] == [checks.STATUS + "not reported"]
    extra = _good_checks() + [{"name": "bogus", "passed": True, "seconds": 0.0}]
    assert all(checks.check_verify(_suite(tmp_path, extra), 0).values())


def test_verify_check_fails_on_exit_status(tmp_path):
    failures = checks.check_verify(_suite(tmp_path, _good_checks()), 1)
    assert all(msgs and msgs[0].startswith(checks.STATUS) for msgs in failures.values())
