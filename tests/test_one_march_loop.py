"""Design guard: the package has one march loop per solver.

Stepping the solver to a time while calling observers lives in
``solver.Stepper.march``; ``solver.run`` and the convergence jobs of the
command line iterate it.  A call to ``.step(`` anywhere else is a second
copy of the loop.  The characteristic sweep advances its diagonals in
``charsolver.march`` alone, so a monitor of the sweep is an observer of
it, not a second caller of ``_advance``.
"""

import ast
from pathlib import Path

import varwave

ALLOWED = {"solver.Stepper"}


def calls(source: str, module: str, name: str) -> list[tuple[str, str]]:
    """(top-level definition, innermost function) of each call of ``name``,
    as ``name(`` or ``x.name(``.

    A call inside a nested function or a method is charged to the enclosing
    top-level definition, and named by the innermost function around it.
    """
    found = []

    def visit(node, top, inner):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(sub, top, sub.name)
                continue
            if isinstance(sub, ast.Call) and name in (
                getattr(sub.func, "attr", None), getattr(sub.func, "id", None)
            ):
                found.append((top, inner))
            visit(sub, top, inner)

    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            visit(node, f"{module}.{node.name}", node.name)
    return found


def package_calls(name: str) -> list[tuple[str, str]]:
    package = Path(varwave.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        found += calls(path.read_text(encoding="utf-8"), path.stem, name)
    return found


def test_guard_sees_nested_calls():
    src = "def outer():\n    def inner(s):\n        return s.step(1)\n    return inner\n"
    assert calls(src, "m", "step") == [("m.outer", "inner")]


def test_guard_sees_method_calls():
    src = "class C:\n    def go(self, s):\n        while s:\n            s = self.step(s)\n"
    assert calls(src, "m", "step") == [("m.C", "go")]


def test_guard_sees_plain_and_module_calls():
    src = "def f(W, E):\n    return _advance(W, E) + charsolver._advance(E, W)\n"
    assert calls(src, "m", "_advance") == [("m.f", "f"), ("m.f", "f")]


def test_only_the_stepper_calls_step():
    callers = {top for top, _ in package_calls("step")}
    assert callers - ALLOWED == set(), "march loops outside solver.Stepper"
    assert "solver.Stepper" in callers


def test_one_step_call_site_inside_march():
    assert package_calls("step") == [("solver.Stepper", "march")]


def test_one_advance_call_site_inside_the_sweep():
    assert package_calls("_advance") == [("charsolver.march", "march")]
