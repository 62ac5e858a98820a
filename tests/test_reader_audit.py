"""Every function, method and class of vaclab has a reader in the program.

Code that only tests read is not part of the program: it widens the
package, and the tests can keep it themselves.  The audit parses each
module of ``src/vaclab`` (``__init__.py``, whose imports are the package's
exports, excepted) and of ``bench`` with ``ast``.  A function or class is
read when its name is loaded, is the attribute of some expression, or is
imported by name in any of those modules, its own included.  A method is
read only as the attribute of some expression (``x.name``); where its name
is also a data attribute of some class (a dataclass field, or a
``self.name =`` store), only a call ``x.name(...)`` reads it, unless it is
a ``@property``.  Dunder names are called by the language and are exempt.
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
            yield path.stem, ast.parse(path.read_text()), path.parent == SRC


def _decorator_names(node):
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        yield target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)


def _reads(tree):
    """(names loaded or imported, attributes read, attributes called)."""
    names, attributes, called = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            called.add(node.func.attr)
    return names, attributes, called


def _data_attributes(tree):
    """Names of dataclass fields and of ``self.name =`` stores."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and "dataclass" in _decorator_names(node):
            yield from (item.target.id for item in node.body
                        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name))
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"):
            yield node.attr


def _unread_definitions(modules):
    """``module:line [Class.]name`` of each definition of an audited module that no
    module reads; ``modules`` holds (name, tree, audited) triples."""
    modules = list(modules)
    names, attributes, called, data = set(), set(), set(), set()
    for _, tree, _ in modules:
        for seen, new in zip((names, attributes, called), _reads(tree)):
            seen |= new
        data.update(_data_attributes(tree))
    unread = []
    for module, tree, audited in modules:
        if not audited:
            continue
        owners = {id(item): node.name for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) for item in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or name in EXEMPT:
                continue
            if id(node) not in owners:
                read = name in names or name in attributes
            elif name in data and "property" not in _decorator_names(node):
                read = name in called
            else:
                read = name in attributes
            if not read:
                owner = f"{owners[id(node)]}." if id(node) in owners else ""
                unread.append(f"{module}:{node.lineno} {owner}{name}")
    return unread


def test_every_definition_has_a_reader_in_the_program():
    unread = _unread_definitions(_modules())
    assert not unread, f"{len(unread)} definitions only tests read: {unread}"


SHADOWED = '''
from dataclasses import dataclass


@dataclass
class Reconstruction:
    density: list
    edge: float


class Profile:
    def density(self, t, x):
        return x

    def mass(self):
        return 1.0

    @property
    def edge(self):
        return 2.0


def report(profile, recon):
    density = recon.density
    return density, profile.mass(), profile.edge, mass


report(Profile(), Reconstruction([], 2.0))
'''


def test_a_method_is_not_read_by_a_field_or_a_name_that_shares_its_name():
    # Profile.density is never called: reading the field Reconstruction.density
    # or a local named density does not read it; the property Profile.edge is
    # read as an attribute although a field shares its name; a bare name
    # `mass` does not read Profile.mass, but the call profile.mass() does
    assert _unread_definitions([("shadowed", ast.parse(SHADOWED), True)]) == [
        "shadowed:12 Profile.density"]
    only_name = SHADOWED.replace("profile.mass()", "None")
    assert _unread_definitions([("shadowed", ast.parse(only_name), True)]) == [
        "shadowed:12 Profile.density", "shadowed:15 Profile.mass"]
