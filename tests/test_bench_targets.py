"""The traced benchmark wraps functions of vaclab by name; each must exist."""
import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
