"""Design guard: the package has one march loop.

Stepping the solver to a time while calling observers lives in
``solver.Stepper.march``; ``solver.run`` and the convergence jobs of the
command line iterate it.  A call to ``.step(`` anywhere else is a second
copy of the loop.
"""

import ast
from pathlib import Path

import varwave

ALLOWED = {"solver.Stepper"}


def step_calls(source: str, module: str) -> list[tuple[str, str]]:
    """(top-level definition, innermost function) of each ``.step(`` call.

    A call inside a nested function or a method is charged to the enclosing
    top-level definition, and named by the innermost function around it.
    """
    calls = []

    def visit(node, top, inner):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(sub, top, sub.name)
                continue
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "step"
            ):
                calls.append((top, inner))
            visit(sub, top, inner)

    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            visit(node, f"{module}.{node.name}", node.name)
    return calls


def package_step_calls() -> list[tuple[str, str]]:
    package = Path(varwave.__file__).parent
    calls = []
    for path in sorted(package.glob("*.py")):
        calls += step_calls(path.read_text(encoding="utf-8"), path.stem)
    return calls


def test_guard_sees_nested_calls():
    src = "def outer():\n    def inner(s):\n        return s.step(1)\n    return inner\n"
    assert step_calls(src, "m") == [("m.outer", "inner")]


def test_guard_sees_method_calls():
    src = "class C:\n    def go(self, s):\n        while s:\n            s = self.step(s)\n"
    assert step_calls(src, "m") == [("m.C", "go")]


def test_only_the_stepper_calls_step():
    callers = {top for top, _ in package_step_calls()}
    assert callers - ALLOWED == set(), "march loops outside solver.Stepper"
    assert "solver.Stepper" in callers


def test_one_step_call_site_inside_march():
    assert package_step_calls() == [("solver.Stepper", "march")]
