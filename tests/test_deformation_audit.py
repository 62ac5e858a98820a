"""The deformation factors of a radial field are formed in one place.

X = 1 + w_r, Y = 1 + w/r and their logarithms give the pressure, the
reconstructed density and the density gap.  They come from one kernel,
``radial.deformation``, which also checks that the deformation stays
invertible.  The audit parses ``src/vaclab`` with ``ast`` and lists the
functions that call ``radial_strain``: the kernel, the variation of the
pressure along a direction (the strain of the direction, not of w), and
the energies' stacked scalars.  A new copy of the factors has to take the
strain too, and then fails here.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "vaclab"

STRAIN_READERS = {
    "radial.deformation",
    "radial.RadialOperator._variation",
    "energy.RadialEnergies._scalars",
}


def _callers(name: str) -> set[str]:
    """module.[Class.]function of every function in src/vaclab whose body
    calls ``name`` (as ``f(...)`` or ``obj.f(...)``)."""
    found = set()
    for path in sorted(SRC.rglob("*.py")):

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                    label = f"{prefix}.{child.name}"
                    if isinstance(child, ast.FunctionDef) and any(
                            isinstance(call, ast.Call)
                            and name in (getattr(call.func, "id", None),
                                         getattr(call.func, "attr", None))
                            for call in ast.walk(child)):
                        found.add(label)
                    visit(child, label)

        visit(ast.parse(path.read_text()), path.stem)
    return found


def test_only_the_deformation_kernel_forms_the_factors_of_w():
    assert _callers("radial_strain") == STRAIN_READERS
