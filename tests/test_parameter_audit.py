"""Every optional parameter of vaclab is a setting some call uses.

A parameter with a default that no call passes is a constant in disguise:
it widens the interface, and nothing runs its other values.  The audit
parses ``src/vaclab`` and ``tests`` with ``ast``.  A call counts for a
function or method of the same name: ``f(...)``, ``obj.f(...)`` or, for
``__init__``, ``Cls(...)``.  It passes a parameter by keyword or by
position.  What a ``*args``/``**kwargs`` spread forwards is not known from
the source, so a spread passes nothing: a forwarding wrapper counts only
through the calls that reach it by name.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "vaclab"


def _trees(*folders):
    for folder in folders:
        for path in sorted(folder.rglob("*.py")):
            yield path, ast.parse(path.read_text())


def _defaulted(func: ast.FunctionDef, owner: str | None):
    """(callee name, positional index as a call sees it or None, parameter)
    of each parameter of ``func`` with a default.  A method's first
    parameter (self or cls) is bound, so a call's positions start after it."""
    positional = func.args.posonlyargs + func.args.args
    skip = 1 if owner is not None else 0
    first_default = len(positional) - len(func.args.defaults)
    callee = owner if func.name == "__init__" else func.name
    for index, arg in enumerate(positional):
        if index >= first_default:
            yield callee, index - skip, arg.arg
    for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults):
        if default is not None:
            yield callee, None, arg.arg


def _definitions():
    for path, tree in _trees(SRC):
        owners = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    owners[item] = node.name
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                for callee, index, name in _defaulted(node, owners.get(node)):
                    yield f"{path.stem}.{node.name}({name})", callee, index, name


def _calls():
    """callee name -> list of (number of positional arguments before any
    ``*args``, keyword names)."""
    calls = {}
    for _, tree in _trees(SRC, ROOT / "tests"):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name is None:
                continue
            count = next((i for i, a in enumerate(node.args)
                          if isinstance(a, ast.Starred)), len(node.args))
            calls.setdefault(name, []).append((count, {k.arg for k in node.keywords}))
    return calls


def test_every_defaulted_parameter_is_passed_somewhere():
    calls = _calls()
    never = []
    for label, callee, index, name in _definitions():
        passed = any(
            name in keywords or (index is not None and index < count)
            for count, keywords in calls.get(callee, ()))
        if not passed:
            never.append(label)
    assert not never, f"{len(never)} parameters no call passes: {never}"
