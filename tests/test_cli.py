"""Configuration, run directories, restart, sweep, suite, and the CLI."""
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vaclab.cli import main
from vaclab.config import ConfigError, RunConfig, load_config, parse_config
from vaclab.params import derive_constants
from vaclab.runio import _read_state, refit, resume, run
from vaclab.suite import verify
from vaclab.tables import read_csv


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
    # the acceptance policy is fixed: its old section fails as unknown
    ({"acceptance": {}}, "acceptance: unknown configuration section"),
    ({"bogus_section": {}}, "bogus_section"),
    ({"ode": {"t_end": 10.0}, "solver": {"t_end": 100.0}}, "ode.t_end"),
    # misspelt keys fail instead of running the default
    ({"params": {"lam": 0.5}}, "params.lam: unknown configuration key"),
    ({"solver": {"num_node": 64}}, "solver.num_node: unknown configuration key"),
    ({"solver": {"seed": {"amplitud": 0.1}}},
     "solver.seed.amplitud: unknown configuration key"),
    ({"solver": {"cfl_safety": 0.5}}, "solver.cfl_safety: unknown configuration key"),
])
def test_config_validation_names_field(patch, needle):
    data = {"params": {}, "ode": {}, "solver": {}, "outputs": {}}
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


def test_readme_config_block_shows_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Run configuration", 1)[1]
    block = section.split("```json", 1)[1].split("```", 1)[0]
    assert json.loads(block) == RunConfig().to_dict()


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


def test_rates_gate_a_run_from_the_horizon_on(anchor_result, tmp_path, monkeypatch):
    # the rate report is written either way; it gates the run iff
    # solver.t_end >= RATE_GATE_HORIZON.  The anchor's fits over t <= 100
    # are pre-asymptotic and miss their envelopes, so a gate fails the run
    runio = importlib.import_module("vaclab.runio")
    run_dir = tmp_path / "anchor"
    shutil.copytree(anchor_result.directory, run_dir)
    for horizon, gated in ((100.0, True), (np.nextafter(100.0, np.inf), False)):
        monkeypatch.setattr(runio, "RATE_GATE_HORIZON", horizon)
        report = refit(run_dir)
        assert report["rates"] is not None and not report["rates"]["ok"]
        assert ("rates" in report["checks"]) == gated
        assert report["ok"] == (not gated)


def _short_run(tmp_path, name, **overrides):
    return run(parse_config(base_config(
        tmp_path / name, **{"solver.t_end": 20.0, "ode.t_end": 40.0,
                            "solver.num_nodes": 16, **overrides})))


QUARTIC = {"shape": "quartic", "amplitude": 1e-3}


@pytest.mark.parametrize("base,setting,counter", [
    ({}, {"ode.rel_tol": 1e-6}, "correction"),
    ({}, {"ode.abs_tol": 1e-6}, "correction"),
    ({"solver.seed": QUARTIC}, {"solver.rel_tol": 1e-4}, "integration"),
    ({"solver.seed": QUARTIC}, {"solver.abs_tol": 1e-5}, "integration"),
])
def test_tolerance_settings_reach_their_integrator(tmp_path, base, setting, counter):
    # each tolerance changes the steps its integrator takes
    steps = [_short_run(tmp_path, name, **base, **given).report["telemetry"][counter]["steps"]
             for name, given in (("default", {}), ("set", setting))]
    assert steps[0] != steps[1]


def test_rk4_stepper_takes_fixed_steps(tmp_path):
    result = _short_run(tmp_path, "rk4", **{"solver.seed": QUARTIC,
                                            "solver.stepper": "rk4", "solver.fixed_dt": 0.05})
    assert result.ok
    integration = result.report["telemetry"]["integration"]
    assert integration["rejected"] == 0
    assert integration["rhs_evaluations"] == 4 * integration["steps"]
    # dt = 0.05 over t <= 20, plus the steps the outputs clip
    assert 400 <= integration["steps"] <= 400 + len(result.trajectory.times)


def test_mass_setting_sizes_the_background(tmp_path):
    result = _short_run(tmp_path, "mass2", **{"params.mass": 2.0})
    assert result.ok
    radius = read_csv(result.directory / "series.csv")["boundary_radius"][0]
    assert radius == derive_constants(3, 0.0, 2.0, 2.0).R0
    assert radius != derive_constants(3, 0.0, 2.0, 1.0).R0


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
    series = read_csv(d / "series.csv")
    assert np.all(np.isfinite(series["mass_rel_err"]))
    assert np.max(series["mass_rel_err"]) <= 1e-8
    # the header names are the in-memory keys, and bench/checks.py reads them
    headers = {name: (d / name).read_text().splitlines()[0]
               for name in ("series.csv", "energies.csv")}
    assert headers["series.csv"] == (
        "t,sup_w,position_gap,density_gap,velocity_gap,boundary_radius,mass_rel_err")
    assert headers["energies.csv"] == (
        "t,E_0_0_0,E_0_0_1,E_0_1_0,E_1_0_0,E_0_0_2,E_0_1_1,E_0_2_0,E_1_0_1,E_1_1_0,"
        "E_2_0_0,E_1_0_2,E_1_1_1,E_1_2_0,E_2_0_1,E_2_1_0,E_3_0_0,E_total")


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
    s_full = read_csv(tmp_path / "full" / "series.csv")
    s_part = read_csv(tmp_path / "part" / "series.csv")
    np.testing.assert_allclose(s_part["t"], s_full["t"], rtol=0, atol=0)


def test_resume_reports_against_the_full_run(tmp_path):
    seed = {"shape": "parabolic", "amplitude": 1e-3}
    full, part = tmp_path / "full", tmp_path / "part"
    run(parse_config(base_config(tmp_path, **{"outputs.directory": str(full),
                                              "solver.seed": seed})))
    run(parse_config(base_config(tmp_path, **{"outputs.directory": str(part),
                                              "solver.seed": seed})),
        stop_after_outputs=40)
    resume(part)

    def load(d, name):
        return json.loads((d / name).read_text())

    # sup E/E(0) is taken against E at t = 0, not at the checkpoint
    assert load(part, "run_report.json")["boundedness"]["total_ratio"] == pytest.approx(
        load(full, "run_report.json")["boundedness"]["total_ratio"], rel=1e-5)
    assert load(part, "rates.json")["exponents"] == pytest.approx(
        load(full, "rates.json")["exponents"], rel=0, abs=1e-6)
    bounded_part, bounded_full = load(part, "boundedness.json"), load(full, "boundedness.json")
    assert bounded_part["total_ratio"] == pytest.approx(bounded_full["total_ratio"], rel=1e-5)
    assert bounded_part["component_ratios"] == pytest.approx(
        bounded_full["component_ratios"], rel=1e-5, nan_ok=True)
    recon_times = {d: set(read_csv(d / "reconstructions.csv")["t"])
                   for d in (full, part)}
    assert recon_times[full] <= recon_times[part]
    # refit computes the same reports from the persisted tables
    report_text = (part / "run_report.json").read_text()
    refit(part)
    assert (part / "run_report.json").read_text() == report_text


def test_resume_picks_the_checkpoint_with_the_highest_output_index(tmp_path):
    # "10000.json" sorts before "5000.json" as a string; the index decides
    from vaclab.radial import RadialState, output_schedule
    from vaclab.runio import _write_state

    cfg = parse_config(base_config(
        tmp_path, **{"ode.t_end": 10.0, "solver.num_nodes": 16, "solver.t_end": 1.0,
                     "solver.outputs_per_decade": 10001}))
    run_dir = tmp_path / "run"
    (run_dir / "states").mkdir(parents=True)
    cfg.dump(run_dir / "config.json")
    schedule = output_schedule(1.0, 10001)
    zero = np.zeros(16)
    for index in (5000, 10000):
        _write_state(run_dir / "states" / f"{index:04d}.json",
                     RadialState(schedule[index], zero, zero), index)
    resumed = resume(run_dir)
    assert resumed.report["resumed_from"] == {"t": schedule[10000], "output_index": 10000}
    assert [s.t for s in resumed.trajectory.states] == schedule[10001:].tolist()


def test_refit_reproduces_reports(tmp_path):
    cfg = parse_config(base_config(
        tmp_path, **{"solver.seed": {"shape": "parabolic", "amplitude": 1e-3}}))
    result = run(cfg)
    names = ("rates.json", "boundedness.json")
    before = {name: (result.directory / name).read_bytes() for name in names}
    out = refit(result.directory)
    assert out["rates"]["exponents"] and out["boundedness"]["applicable"]
    for name in names:
        assert (result.directory / name).read_bytes() == before[name], name


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
                     "solver.num_nodes": 24}))
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
                     "solver.seed": {"shape": "parabolic", "amplitude": 5.0}}))
    result = run(cfg)
    assert not result.ok
    assert result.report["status"] == "failed"
    assert result.trajectory.states[0].t == 0.0
    d = result.directory
    report = json.loads((d / "run_report.json").read_text())
    assert report["status"] == "failed" and not report["ok"]
    series = read_csv(d / "series.csv")
    assert series["t"][0] == 0.0
    assert np.isnan(series["density_gap"][0])


TELEMETRY_PHASES = {"constants", "correction", "grid", "evolve", "diagnostics", "persist"}


def _telemetry(run_dir) -> dict:
    report = json.loads((run_dir / "run_report.json").read_text())
    telemetry = report["telemetry"]
    assert set(telemetry) == {"phases", "integration", "correction", "versions"}
    assert set(telemetry["phases"]) == TELEMETRY_PHASES
    for cost in telemetry["phases"].values():
        assert set(cost) == {"wall_s", "cpu_s"}
        assert all(v >= 0.0 for v in cost.values())
    assert sum(c["wall_s"] for c in telemetry["phases"].values()) <= report["wall_seconds"]
    assert set(telemetry["integration"]) == {"steps", "rejected", "rhs_evaluations",
                                             "last_dt", "cap_limited",
                                             "interpolated_outputs"}
    assert set(telemetry["correction"]) == {"steps", "solved"}
    assert set(telemetry["versions"]) == {"python", "vaclab", "numpy"}
    return telemetry


def test_run_report_telemetry_on_failed_and_completed_runs(tmp_path):
    from vaclab import correction

    correction._memoized_path.cache_clear()
    # the seed of the failing evolve in test_radial: its first step breaks
    # 1 + w_r > 0 at its fifth stage
    failed = run(parse_config(base_config(
        tmp_path, **{"outputs.directory": str(tmp_path / "failed"), "solver.t_end": 10.0,
                     "ode.t_end": 100.0,
                     "solver.seed": {"shape": "parabolic", "amplitude": 1.575}})))
    assert failed.report["status"] == "failed"
    assert failed.report["failure"]["time"] == pytest.approx(8.0 / 9.0 * 1e-3, rel=1e-12)
    telemetry = _telemetry(failed.directory)
    assert telemetry["integration"]["rhs_evaluations"] == 5
    assert telemetry["integration"]["steps"] == telemetry["integration"]["cap_limited"] == 0
    path = correction.correction_path(failed.trajectory.grid.params, 100.0)
    assert telemetry["correction"] == {"steps": len(path.segments), "solved": True}

    done = run(parse_config(base_config(
        tmp_path, **{"outputs.directory": str(tmp_path / "done"), "solver.t_end": 10.0,
                     "ode.t_end": 100.0})))
    assert done.ok
    telemetry = _telemetry(done.directory)
    integration = telemetry["integration"]
    assert integration["steps"] == done.trajectory.stats.steps > 0
    assert 0 < integration["cap_limited"] <= integration["steps"]
    assert telemetry["correction"] == {"steps": len(path.segments), "solved": False}
    assert refit(done.directory)["telemetry"] == telemetry


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


_LOADED_SCIPY = ("import sys; "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")


@pytest.mark.parametrize("action", [
    "import",
    "evolve",
    "verify-quadrature-exactness",
    "verify-hardy-ratio",
    "verify-integrating-factor",
])
def test_cli_processes_load_no_scipy(tmp_path, action):
    # vaclab runs on NumPy alone; SciPy is an oracle of the tests only
    if action == "evolve":
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(tmp_path)))
        argv = ["evolve", "--config", str(cfg_path)]
    elif action.startswith("verify-"):
        argv = ["verify", "--only", action.removeprefix("verify-")]
    else:
        argv = None
    code = "import vaclab.cli"
    if argv is not None:
        code += f"; assert vaclab.cli.main({argv!r}) == 0"
    proc = subprocess.run([sys.executable, "-c", f"{code}; {_LOADED_SCIPY}"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_evolve_of_a_deterministic_seed_loads_no_numpy_random(tmp_path):
    # only the random seed shape draws numbers; the others should not pay
    # numpy.random's import inside the run
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(
        tmp_path, **{"solver.seed": {"shape": "parabolic", "amplitude": 1e-3}})))
    argv = ["evolve", "--config", str(cfg_path)]
    code = (f"import sys, vaclab.cli; assert vaclab.cli.main({argv!r}) == 0; "
            "print('numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "False"


@pytest.mark.parametrize("argv,needle", [
    (["selfsim", "--n", "5"], "params.n"),
    (["selfsim", "--lambda", "1.5"], "params.lambda"),
    (["selfsim", "--gamma", "1.0"], "params.gamma"),
    (["ode", "--mass", "0"], "params.mass"),
    (["ode", "--t-end", "1e9"], "ode.t_end"),
    (["ode", "--t-end", "0.5"], "ode.t_end"),
])
def test_cli_parameter_flags_are_validated_as_config(capsys, argv, needle):
    # README: exit 2 on a usage or configuration error, naming the field
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and needle in err
