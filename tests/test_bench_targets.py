"""The benchmark wraps functions of vaclab by name; each must exist, and the
set-up boundary must be crossed where the benchmark expects it."""
import ast
import importlib
from pathlib import Path

from vaclab.config import parse_config

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"
WORKLOADS = BENCH / "workloads.py"


def _targets():
    """TARGETS of bench/tracer.py, read from its source without running it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("TARGETS not found in bench/tracer.py")


def test_every_trace_target_resolves():
    targets = _targets()
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
