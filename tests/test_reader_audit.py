"""Every function, method and class of vaclab has a reader in the program.

Code that only tests read is not part of the program: it widens the
package, and the tests can keep it themselves.  The audit parses each
module of ``src/vaclab`` (``__init__.py``, whose imports are the package's
exports, excepted) and of ``bench`` with ``ast``.  A definition is read
when its name is loaded, is the attribute of some expression, or is
imported by name in any of those modules, its own included.  Dunder names
are called by the language and are exempt.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "vaclab"

# definitions kept without a reader in the program, each for a reason
EXEMPT = {
    "ToroidalModeState",   # an input type of evolve_mode, built by callers
    "grad_eta", "div_eta", "curl_eta",   # the operators of the vorticity law to come
}


def _modules():
    for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        if path.name != "__init__.py":
            yield path, ast.parse(path.read_text())


def _reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _unread_definitions():
    modules = list(_modules())
    read = {name for _, tree in modules for name in _reads(tree)}
    unread = []
    for path, tree in modules:
        if path.parent != SRC:
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if (name.startswith("__") and name.endswith("__")) or name in EXEMPT:
                    continue
                if name not in read:
                    unread.append(f"{path.stem}:{node.lineno} {name}")
    return unread


def test_every_definition_has_a_reader_in_the_program():
    unread = _unread_definitions()
    assert not unread, f"{len(unread)} definitions only tests read: {unread}"
