"""The benchmark wraps functions of vaclab by name; each must exist, the
set-up boundary must be crossed where the benchmark expects it, and each
workload must cross every boundary its traced run requires."""
import ast
import functools
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from vaclab import correction, radial
from vaclab.cli import main
from vaclab.config import parse_config
from vaclab.params import derive_constants
from vaclab.timestepping import IntegrationStats, integrate_adaptive, integrate_fixed_rk4
from vaclab.weighted import WeightedGrid

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"
WORKLOADS = BENCH / "workloads.py"
RUN = BENCH / "run.py"


def _tracer_literal(name):
    """A literal of bench/tracer.py (TARGETS, INTEGRATORS), read from its
    source without running it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in bench/tracer.py")


def test_every_trace_target_resolves():
    targets = _tracer_literal("TARGETS")
    assert targets
    missing = []
    for name, module, attribute, _record in targets:
        loaded = importlib.import_module(module)
        owner_name, _, method = attribute.rpartition(".")
        if owner_name:       # a method must be defined on its class itself
            owner = getattr(loaded, owner_name, None)
            found = isinstance(owner, type) and callable(vars(owner).get(method))
        else:
            found = callable(getattr(loaded, method, None))
        if not found:
            missing.append(f"{name}: {module}.{attribute}")
    assert not missing, missing


def _workload_marks():
    """(workload, "module:function") of each set-up boundary and cell start
    in bench/workloads.py, read from its source without running it."""
    marks = []
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Workload":
            name, boundary, cell_start = (ast.literal_eval(node.args[k]) for k in (0, 2, 3))
            marks += [(name, mark) for mark in (boundary, cell_start) if mark is not None]
    return marks


def test_every_workload_boundary_resolves():
    marks = _workload_marks()
    assert {name for name, _ in marks} == {"anchor", "sweep", "verify"}
    missing = []
    for name, mark in marks:
        module, _, attribute = mark.partition(":")
        if not callable(getattr(importlib.import_module(module), attribute, None)):
            missing.append(f"{name}: {mark}")
    assert not missing, missing


def test_run_and_resume_call_evolve_through_runio(tmp_path, monkeypatch):
    # the benchmark times set-up up to the entry of vaclab.runio.evolve
    runio = importlib.import_module("vaclab.runio")
    starts = []
    evolve = runio.evolve

    def recording(grid, path, initial, *args, **kwargs):
        starts.append(initial.t)
        return evolve(grid, path, initial, *args, **kwargs)

    monkeypatch.setattr(runio, "evolve", recording)
    cfg = parse_config({"ode": {"t_end": 40.0},
                        "solver": {"num_nodes": 16, "t_end": 20.0, "outputs_per_decade": 10},
                        "outputs": {"directory": str(tmp_path / "run"), "checkpoint_every": 3}})
    runio.run(cfg, stop_after_outputs=5)
    runio.resume(tmp_path / "run")
    assert len(starts) == 2
    assert starts[0] == 0.0 and starts[1] > 0.0


def test_a_short_run_crosses_every_traced_boundary(monkeypatch):
    # the benchmark wraps these on their classes and requires each crossing
    crossed = {}
    inside = []

    def wrap(owner, name):
        original = vars(owner)[name]

        def counting(*args, **kwargs):
            crossed[name] = crossed.get(name, 0) + 1
            if inside:
                crossed[name + " in reconstruct_physical"] = True
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    for name in ("rhs", "pressure", "damping", "wave_coefficient", "step_cap"):
        wrap(radial.RadialOperator, name)
    for name in ("h_at", "h_t_at"):
        wrap(correction.CorrectionPath, name)
    reconstruct = radial.reconstruct_physical

    def reconstructing(*args):
        inside.append(True)
        try:
            return reconstruct(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(radial, "reconstruct_physical", reconstructing)
    params = derive_constants(3, 0.0, 2.0, 1.0)
    path = correction.solve_correction(params, 10.0)
    assert path.step_times[0] == 0.0 and path.step_times[-1] == 10.0
    grid = WeightedGrid(params, 32)
    w0 = radial.seed_profile("parabolic", 1e-3, grid)
    traj = radial.evolve(grid, path, radial.RadialState(0.0, w0, np.zeros_like(w0)), 2.0,
                         output_times=[0.0, 1.0, 2.0], collect_energies=False)
    assert traj.status == "completed"
    for name in ("rhs", "pressure", "damping", "wave_coefficient", "step_cap"):
        assert crossed.get(name), name
    for name in ("h_at", "h_t_at"):
        assert crossed.get(name + " in reconstruct_physical"), name
    # bench/tracer.py reads the stats of both integrators' results
    for result in (integrate_adaptive(lambda t, y: -y, 0.0, [1.0], [1.0]),
                   integrate_fixed_rk4(lambda t, y: -y, 0.0, [1.0], [1.0], 0.25)):
        assert isinstance(result.stats, IntegrationStats) and result.stats.steps > 0


def _required():
    """REQUIRED of bench/run.py, read from its source without running it: a
    dict literal, then entries that extend another entry by a tuple."""
    required = {}
    for node in ast.parse(RUN.read_text()).body:
        if not isinstance(node, ast.Assign):
            continue
        target = node.targets[0]
        if getattr(target, "id", None) == "REQUIRED":
            required = ast.literal_eval(node.value)
        elif getattr(getattr(target, "value", None), "id", None) == "REQUIRED":
            # REQUIRED["name"] = REQUIRED["other"] + (...)
            base = required[ast.literal_eval(node.value.left.slice)]
            required[ast.literal_eval(target.slice)] = base + ast.literal_eval(node.value.right)
    assert set(required) == {"anchor", "sweep", "verify"}, "REQUIRED not found in bench/run.py"
    return required


def _record_crossings(monkeypatch) -> set:
    """Wrap every trace target where bench/tracer.py wraps it, and each
    integrator's ``on_output`` keyword; returns the names crossed so far."""
    crossed = set()
    integrators = _tracer_literal("INTEGRATORS")

    def wrap(name, fn):
        @functools.wraps(fn)
        def crossing(*args, **kwargs):
            crossed.add(name)
            on_output = kwargs.get("on_output")
            if name in integrators and on_output is not None:
                def outputting(*output):
                    crossed.add("timestepping.on_output")
                    return on_output(*output)

                kwargs["on_output"] = outputting
            return fn(*args, **kwargs)

        return crossing

    for name, module, attribute, _record in _tracer_literal("TARGETS"):
        loaded = importlib.import_module(module)
        owner_name, _, method = attribute.rpartition(".")
        if owner_name:
            owner = getattr(loaded, owner_name)
            monkeypatch.setattr(owner, method, wrap(name, vars(owner)[method]))
            continue
        original = getattr(loaded, method)
        wrapped = wrap(name, original)
        for module_name, held in list(sys.modules.items()):
            if module_name == "vaclab" or module_name.startswith("vaclab."):
                for key, value in list(vars(held).items()):
                    if value is original:
                        monkeypatch.setattr(held, key, wrapped)
    return crossed


def _bench_workloads(monkeypatch):
    """WORKLOADS of bench/workloads.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)   # its dataclass looks itself up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def test_scaled_down_workloads_cross_every_required_boundary(tmp_path, monkeypatch):
    # the workloads' own CLI calls, with the anchor's and the sweep's grids
    # and horizons shrunk; a refactor that stops crossing a boundary the
    # traced benchmark requires fails here, not only under the benchmark.
    # bench/rep.py sets its set-up marks on the boundary's module alone, so
    # the program must look each marked function up there when it calls it
    required = _required()
    marks = {}
    for name, mark in _workload_marks():
        marks.setdefault(name, []).append(mark)
    for name, workload in _bench_workloads(monkeypatch).items():
        rep_dir = tmp_path / name
        rep_dir.mkdir()
        argv = workload.cli_argv(rep_dir, 7)
        if "--config" in argv:
            config_path = Path(argv[argv.index("--config") + 1])
            config = json.loads(config_path.read_text())
            config["solver"].update(num_nodes=16, t_end=20.0)
            config_path.write_text(json.dumps(config))
        correction._memoized_path.cache_clear()   # each workload solves its paths
        with monkeypatch.context() as patch:
            crossed = _record_crossings(patch)
            for mark in marks[name]:
                module, _, attribute = mark.partition(":")
                loaded = importlib.import_module(module)
                patch.setattr(loaded, attribute, _marking(mark, getattr(loaded, attribute),
                                                          crossed))
            assert main(argv) == 0, name
        missing = [b for b in [*required[name], *marks[name]] if b not in crossed]
        assert not missing, f"{name}: {missing}"


def _marking(mark, fn, crossed):
    def marked(*args, **kwargs):
        crossed.add(mark)
        return fn(*args, **kwargs)

    return marked
