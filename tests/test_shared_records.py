"""Design guard: the modules share public records, not private helpers.

Both solvers hand a path to their consumers as ``PathSamples``; the Eulerian
``triangle_identity`` returns its sides in the form the characteristic-
coordinate ``characteristic_triangle_identity`` does.  No ``varwave``
module reaches into another for an underscore name: a second caller of a
private helper is a second copy of the bookkeeping it serves.
"""

import ast
from pathlib import Path

import numpy as np

import varwave
from varwave import (
    PathSamples,
    SchemeConfig,
    characteristic_triangle_identity,
    triangle_identity,
)
from varwave.solver import Grid


def private_imports(source: str) -> set[str]:
    """Underscore names a module takes from another varwave module.

    Counts ``from .m import _x`` (or ``from varwave.m import _x``) and
    ``m._x`` where ``m`` is a varwave module imported by ``from . import m``.
    """
    found, modules = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "varwave"
        ):
            for alias in node.names:
                if node.module is None or node.module == "varwave":
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    found.add(f"{node.module}.{alias.name}")
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
        ):
            found.add(f"{node.value.id}.{node.attr}")
    return found


def test_guard_sees_both_forms():
    src = (
        "from .diagnostics import EnergyObserver, _gauss_legendre\n"
        "from . import plots\n"
        "import numpy as np\n"
        "plots._ticks(0, 1); np._x; plots.__name__\n"
    )
    assert private_imports(src) == {"diagnostics._gauss_legendre", "plots._ticks"}


def test_no_module_imports_a_private_name():
    package = Path(varwave.__file__).parent
    found = {
        f"{path.stem}: {name}"
        for path in sorted(package.glob("*.py"))
        for name in private_imports(path.read_text(encoding="utf-8"))
    }
    assert found == set()


def test_both_triangle_identities_return_path_samples(gentle_setup):
    grid = Grid.uniform(*gentle_setup.domain, 256)
    eulerian = triangle_identity(gentle_setup, grid, SchemeConfig(), 0.85, 1.15)
    characteristic = characteristic_triangle_identity(gentle_setup, 64, 0.85, 1.15)
    for report, plus, minus in (eulerian, characteristic):
        assert (type(plus), type(minus)) == (PathSamples, PathSamples)
        assert (plus.family, minus.family) == ("plus", "minus")
        for side, foot in ((plus, report.r1), (minus, report.r2)):
            assert all(
                isinstance(v, np.ndarray) and v.dtype == np.float64 and v.shape == side.t.shape
                for v in side.columns().values()
            )
            assert side.r[0] == foot
