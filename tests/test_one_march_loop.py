"""Design guard: the package has one march loop.

Stepping the solver to a time while calling observers lives in
``solver.run``; every other caller goes through it.  ``cli.cmd_convergence``
keeps its own loop, without the gradient-ceiling test, for its per-grid
jobs.  A call to ``.step(`` anywhere else is a second copy of the loop.
"""

import ast
from pathlib import Path

import varwave

ALLOWED = {"solver.run", "cli.cmd_convergence"}


def step_callers(source: str, module: str) -> set[str]:
    """Top-level functions (or classes) of a module that call ``.step(``.

    A call inside a nested function is charged to the enclosing top-level
    definition.
    """
    callers = set()
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "step"
            ):
                callers.add(f"{module}.{node.name}")
    return callers


def test_guard_sees_nested_calls():
    src = "def outer():\n    def inner(s):\n        return s.step(1)\n    return inner\n"
    assert step_callers(src, "m") == {"m.outer"}


def test_only_run_and_convergence_call_step():
    package = Path(varwave.__file__).parent
    callers = set()
    for path in sorted(package.glob("*.py")):
        callers |= step_callers(path.read_text(encoding="utf-8"), path.stem)
    assert callers - ALLOWED == set(), "march loops outside solver.run"
    assert "solver.run" in callers
