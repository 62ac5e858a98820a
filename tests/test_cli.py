"""Configuration, run directories, restart, sweep, suite, and the CLI."""
import importlib
import json
import subprocess
import sys

import numpy as np
import pytest

from vaclab.cli import main
from vaclab.config import ConfigError, load_config, parse_config
from vaclab.runio import _read_state, read_series_csv, refit, resume, run
from vaclab.suite import verify


def base_config(tmp_path, **overrides) -> dict:
    cfg = {
        "schema_version": 1,
        "params": {"n": 3, "lambda": 0.0, "gamma": 2.0, "mass": 1.0},
        "ode": {"t_end": 2000.0},
        "solver": {"num_nodes": 32, "t_end": 1000.0, "outputs_per_decade": 30,
                   "seed": {"shape": "zero", "amplitude": 0.0}},
        "outputs": {"directory": str(tmp_path / "run"), "checkpoint_every": 20},
        "rng_seed": 11,
    }
    for key, value in overrides.items():
        section, _, field = key.partition(".")
        if field:
            cfg.setdefault(section, {})[field] = value
        else:
            cfg[section] = value
    return cfg


@pytest.mark.parametrize("patch,needle", [
    ({"params": {"n": 5}}, "params.n"),
    ({"params": {"lambda": 1.0}}, "params.lambda"),
    ({"params": {"gamma": 1.0}}, "params.gamma"),
    ({"solver": {"num_nodes": 8}}, "solver.num_nodes"),
    ({"solver": {"seed": {"amplitude": -1.0}}}, "solver.seed.amplitude"),
    ({"solver": {"seed": {"shape": "sawtooth"}}}, "solver.seed.shape"),
    ({"solver": {"stepper": "rk4"}}, "solver.fixed_dt"),
    ({"acceptance": {"check_rates": "sometimes"}}, "acceptance.check_rates"),
    ({"bogus_section": {}}, "bogus_section"),
    ({"ode": {"t_end": 10.0}, "solver": {"t_end": 100.0}}, "ode.t_end"),
])
def test_config_validation_names_field(patch, needle):
    data = {"params": {}, "ode": {}, "solver": {}, "outputs": {}, "acceptance": {}}
    for section, content in patch.items():
        if isinstance(content, dict):
            data.setdefault(section, {})
            _deep_update(data[section], content)
        else:
            data[section] = content
    with pytest.raises(ConfigError, match=needle.replace(".", r"\.")):
        parse_config(data)


def _deep_update(dst, src):
    for key, value in src.items():
        if isinstance(value, dict):
            dst.setdefault(key, {})
            _deep_update(dst[key], value)
        else:
            dst[key] = value


def test_config_roundtrip(tmp_path):
    cfg = parse_config(base_config(tmp_path))
    out = tmp_path / "cfg.json"
    cfg.dump(out)
    again = load_config(out)
    assert again.to_dict() == cfg.to_dict()


@pytest.fixture(scope="module")
def anchor_result(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("anchor")
    cfg = parse_config(base_config(tmp, **{"solver.t_end": 100.0,
                                           "ode.t_end": 200.0}))
    return run(cfg)


def test_anchor_run_passes_and_writes_layout(anchor_result):
    assert anchor_result.ok
    d = anchor_result.directory
    for name in ("config.json", "correction.csv", "series.csv", "energies.csv",
                 "rates.json", "boundedness.json", "run_report.json",
                 "reconstructions.csv"):
        assert (d / name).exists(), name
    recon_header = (d / "reconstructions.csv").read_text().splitlines()[0]
    assert recon_header == "t,y,x,density,velocity"
    states = sorted((d / "states").glob("*.json"))
    assert states and states[0].name == "0000.json"
    report = json.loads((d / "run_report.json").read_text())
    assert report["checks"]["preservation"]
    assert report["preservation_sup"] <= 1e-8


def test_perturbed_run_writes_reports(tmp_path):
    cfg = parse_config(base_config(
        tmp_path, **{"solver.seed": {"shape": "parabolic", "amplitude": 1e-3}}))
    result = run(cfg)
    assert result.ok
    d = result.directory
    rates = json.loads((d / "rates.json").read_text())
    bounded = json.loads((d / "boundedness.json").read_text())
    assert set(rates["exponents"]) == {"position", "density", "velocity"}
    assert bounded["applicable"] and bounded["total_ratio"] <= 10.0
    series = read_series_csv(d / "series.csv")
    assert np.all(np.isfinite(series["mass_rel_err"]))
    assert np.max(series["mass_rel_err"]) <= 1e-8


def test_malformed_config_exits_2_without_run_dir(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"params": {"n": 7}}')
    out_dir = tmp_path / "never"
    code = main(["evolve", "--config", str(bad), "--out", str(out_dir)])
    assert code == 2
    assert not out_dir.exists()


def test_cli_run_is_deterministic(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    data = base_config(tmp_path, **{"solver.t_end": 100.0, "ode.t_end": 200.0,
                                    "solver.seed": {"shape": "random",
                                                    "amplitude": 1e-3}})
    cfg_path.write_text(json.dumps(data))
    assert main(["evolve", "--config", str(cfg_path),
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["evolve", "--config", str(cfg_path),
                 "--out", str(tmp_path / "b")]) == 0
    for name in ("series.csv", "energies.csv", "correction.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


def test_resume_matches_uninterrupted(tmp_path):
    full_cfg = parse_config(base_config(
        tmp_path, **{"outputs.directory": str(tmp_path / "full"),
                     "solver.seed": {"shape": "parabolic", "amplitude": 1e-3}}))
    full = run(full_cfg)
    part_cfg = parse_config(base_config(
        tmp_path, **{"outputs.directory": str(tmp_path / "part"),
                     "solver.seed": {"shape": "parabolic", "amplitude": 1e-3}}))
    run(part_cfg, stop_after_outputs=40)
    resumed = resume(tmp_path / "part")
    assert resumed.ok
    w_full, _ = _read_state(sorted((tmp_path / "full" / "states").glob("*.json"))[-1])
    w_part, _ = _read_state(sorted((tmp_path / "part" / "states").glob("*.json"))[-1])
    assert w_full.t == w_part.t
    scale = np.max(np.abs(w_full.w))
    assert np.max(np.abs(w_full.w - w_part.w)) <= 1e-8 * scale
    # merged series covers the full schedule exactly once
    s_full = read_series_csv(tmp_path / "full" / "series.csv")
    s_part = read_series_csv(tmp_path / "part" / "series.csv")
    np.testing.assert_allclose(s_part["t"], s_full["t"], rtol=0, atol=0)


def test_refit_reproduces_reports(tmp_path):
    cfg = parse_config(base_config(
        tmp_path, **{"solver.seed": {"shape": "parabolic", "amplitude": 1e-3}}))
    result = run(cfg)
    before = json.loads((result.directory / "rates.json").read_text())
    out = refit(result.directory)
    assert out["rates"]["exponents"] == pytest.approx(before["exponents"])
    assert out["boundedness"]["total_ratio"] == pytest.approx(
        json.loads((result.directory / "boundedness.json").read_text())["total_ratio"])


SWEEP_GRID = ([0.0, 0.3, 0.7], [1.5, 2.0], [0.0, 1e-3])


def sweep_grid_config(tmp_path):
    return parse_config(base_config(
        tmp_path, **{"solver.t_end": 1000.0, "ode.t_end": 2000.0,
                     "solver.num_nodes": 24}))


def test_sweep_grid(tmp_path):
    from vaclab.sweep import sweep

    rows = sweep(sweep_grid_config(tmp_path), *SWEEP_GRID, tmp_path / "sweep", workers=4)
    assert len(rows) == 12
    assert all(r["status"] == "completed" for r in rows)
    for row in rows:
        if row["epsilon"] == 0.0:
            assert row["ok"] and row["preservation_sup"] <= 1e-8
        assert row["exp_position"] is not None   # populated for every row
    summary = (tmp_path / "sweep" / "summary.csv").read_text().splitlines()
    assert len(summary) == 13
    assert (tmp_path / "sweep" / "summary.json").exists()


def test_sweep_rows_do_not_depend_on_the_worker_count(tmp_path):
    # a pool worker runs adjacent cells, sharing their correction paths;
    # the rows must equal those of the serial sweep
    from vaclab.sweep import sweep

    base = sweep_grid_config(tmp_path)
    serial = sweep(base, *SWEEP_GRID, tmp_path / "serial", workers=1)
    pooled = sweep(base, *SWEEP_GRID, tmp_path / "pooled", workers=2)
    assert [r["cell"] for r in serial] == [r["cell"] for r in pooled]
    assert serial == pooled
    assert ((tmp_path / "serial" / "summary.csv").read_text()
            == (tmp_path / "pooled" / "summary.csv").read_text())


@pytest.mark.parametrize("grid,workers,sizes", [
    (([0.0], [2.0], [1e-4, 2e-4, 5e-4, 1e-3]), None, [1, 1, 1, 1]),
    (([0.0, 0.5], [2.0], [5e-4, 1e-3]), 2, [2, 2]),
    (([0.0, 0.5], [2.0], [5e-4, 1e-3]), 4, [1, 1, 1, 1]),
    (([0.0, 0.3, 0.7], [2.0], [0.0, 1e-3]), 4, [1, 2, 1, 2]),
])
def test_pool_sweep_keeps_every_worker_busy(tmp_path, monkeypatch, grid, workers, sizes):
    # each worker gets one run of adjacent cells, as many as any other give or
    # take one, however few (lambda, gamma) groups the grid has
    sweep_module = importlib.import_module("vaclab.sweep")   # the package exports sweep()

    pools = []

    class InlinePool:
        def __init__(self, max_workers):
            self.max_workers, self.tasks = max_workers, None
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            self.tasks = list(tasks)
            return map(fn, self.tasks)

    monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(sweep_module, "_run_cell",
                        lambda cfg: {"status": cfg["outputs"]["directory"]})
    rows = sweep_module.sweep(sweep_grid_config(tmp_path), *grid, tmp_path / "sweep",
                              workers=workers)
    (pool,) = pools
    assert pool.max_workers == len(sizes)
    assert [len(task) for task in pool.tasks] == sizes
    assert [cfg["outputs"]["directory"] for task in pool.tasks for cfg in task] == [
        str(tmp_path / "sweep" / row["cell"]) for row in rows]
    assert all(row["status"] == str(tmp_path / "sweep" / row["cell"]) for row in rows)


def test_sweep_records_cell_failure_without_abort(tmp_path):
    from vaclab.sweep import sweep

    base = parse_config(base_config(
        tmp_path, **{"solver.t_end": 20.0, "ode.t_end": 40.0,
                     "solver.num_nodes": 24,
                     "acceptance": {"check_rates": "never"}}))
    # amplitude large enough to break the deformation invariant immediately
    rows = sweep(base, [0.0], [2.0], [0.0, 5.0], tmp_path / "sweep2", workers=1)
    assert len(rows) == 2
    status = {r["epsilon"]: r for r in rows}
    assert status[0.0]["ok"]
    assert not status[5.0]["ok"]
    assert status[5.0]["status"] == "failed"


def test_run_whose_seed_breaks_the_invariant_keeps_its_artifacts(tmp_path):
    cfg = parse_config(base_config(
        tmp_path, **{"solver.t_end": 20.0, "ode.t_end": 40.0, "solver.num_nodes": 24,
                     "solver.seed": {"shape": "parabolic", "amplitude": 5.0},
                     "acceptance": {"check_rates": "never"}}))
    result = run(cfg)
    assert not result.ok
    assert result.report["status"] == "failed"
    assert result.trajectory.states[0].t == 0.0
    d = result.directory
    report = json.loads((d / "run_report.json").read_text())
    assert report["status"] == "failed" and not report["ok"]
    series = read_series_csv(d / "series.csv")
    assert series["t"][0] == 0.0
    assert np.isnan(series["density_gap"][0])


def test_verify_subset_and_fault_injection():
    report = verify(only="quadrature")
    assert report.ok and len(report.results) == 1
    faulty = verify(only="radial-oracle", fault="pressure-sign")
    assert not faulty.ok
    assert faulty.results[0].name == "radial-oracle"
    unknown = pytest.raises(ValueError, verify, only="no-such-check")
    assert "no checks match" in str(unknown.value)


def test_verify_solves_each_correction_path_once(monkeypatch):
    from vaclab import correction

    correction._memoized_path.cache_clear()
    solves = []
    solve = correction.solve_correction

    def counting(params, t_end, *args):
        solves.append((params.n, params.lam, t_end))
        return solve(params, t_end, *args)

    monkeypatch.setattr(correction, "solve_correction", counting)
    report = verify()
    assert report.ok, [r.name for r in report.results if not r.passed]
    assert sorted(solves) == [(2, 0.0, 100.0), (2, 0.5, 100.0), (3, 0.0, 1e6),
                              (3, 0.3, 1e6), (3, 0.7, 1e6)]
    checks = report.to_dict()["checks"]
    assert all(c["cpu_seconds"] >= 0.0 for c in checks)
    # a shared path is charged to the first check that asks for it
    seconds = {c["name"]: c["seconds"] for c in checks}
    assert seconds["ode-properties"] > seconds["lyapunov"]


def test_cli_selfsim_writes_csv(tmp_path, capsys):
    out = tmp_path / "fields.csv"
    assert main(["selfsim", "--n", "3", "--lambda", "0", "--gamma", "2",
                 "--times", "0,1", "--radii", "5", "--out", str(out)]) == 0
    text = out.read_text().splitlines()
    assert text[0] == "t,r,density,velocity"
    assert len(text) == 11
    printed = capsys.readouterr().out
    assert "kappa=0.2" in printed


def test_cli_ode_smoke(capsys):
    assert main(["ode", "--n", "3", "--lambda", "0.3", "--gamma", "2",
                 "--t-end", "1e4"]) == 0
    out = capsys.readouterr().out
    assert "theta_t > 0: True" in out
    assert "PASS" in out


def test_cli_entrypoint_subprocess():
    proc = subprocess.run([sys.executable, "-m", "vaclab.cli", "verify",
                           "--only", "mass-conservation"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "[PASS] mass-conservation" in proc.stdout
