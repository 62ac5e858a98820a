"""Every module-level import of vaclab is read by its module.

An import that nothing reads is dead weight: it costs start-up time and
tells a reader the module depends on something it does not use.  The audit
parses each module of ``src/vaclab`` with ``ast`` (``__init__.py``, whose
imports are the package's exports, excepted) and lists the names that the
module's imports bind outside any function or class but that no name or
attribute base in the module reads.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "vaclab"


def _module_imports(node):
    """(bound name, line) of each import outside any function or class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            for alias in child.names:
                yield alias.asname or alias.name.partition(".")[0], child.lineno
        elif isinstance(child, ast.ImportFrom):
            if child.module != "__future__":
                for alias in child.names:
                    yield alias.asname or alias.name, child.lineno
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _module_imports(child)


def _unread_imports():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.stem}:{line} {name}" for name, line in _module_imports(tree)
                   if name not in read]
    return unread


def test_every_module_level_import_is_read():
    assert _unread_imports() == []
