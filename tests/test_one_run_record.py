"""Design guard: simulate and eps-sweep share one run record.

``cli.solve`` marches a run and returns a ``RunRecord``; ``cli.write``
writes what the record holds.  So the march is started in one place, the
snapshot worker is made in one place (the ``SnapshotTable`` that formats the
table), and the diagnostics document lives only inside ``write``: no command
takes a row of its summary back out of the JSON it wrote.
"""

import ast
from pathlib import Path

from varwave import cli

SOURCE = Path(cli.__file__).read_text(encoding="utf-8")


def call_sites(source: str, name: str) -> list[tuple[str, str]]:
    """(top-level definition, innermost function) of each call of ``name``,
    as a plain name or an attribute, in the source.

    A call inside a nested function or a method is charged to the enclosing
    top-level definition, and named by the innermost function around it.
    """
    sites = []

    def visit(node, top, inner):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(sub, top, sub.name)
                continue
            if isinstance(sub, ast.Call):
                func = sub.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == name:
                    sites.append((top, inner))
            visit(sub, top, inner)

    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            visit(node, node.name, node.name)
    return sites


def top_level(source: str, name: str) -> ast.AST:
    (node,) = [n for n in ast.parse(source).body if getattr(n, "name", None) == name]
    return node


def test_guard_sees_names_attributes_and_nested_calls():
    src = (
        "def outer():\n    def inner(s):\n        return run(s) + m.run(s)\n    return inner\n"
        "class C:\n    def go(self):\n        return self.run()\n"
    )
    assert call_sites(src, "run") == [("outer", "inner"), ("outer", "inner"), ("C", "go")]


def test_only_solve_starts_the_march():
    assert call_sites(SOURCE, "run") == [("solve", "solve")]


def test_the_snapshot_worker_is_made_in_one_place():
    assert call_sites(SOURCE, "ProcessPoolExecutor") == [("SnapshotTable", "__enter__")]


def test_simulate_and_eps_sweep_solve_and_write():
    for command in ("cmd_simulate", "cmd_eps_sweep"):
        node = top_level(SOURCE, command)
        called = {
            sub.func.id
            for sub in ast.walk(node)
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
        }
        assert {"solve", "write"} <= called, command


def test_no_command_reads_its_json_document_back():
    # the document is built in write only, write returns nothing, and the one
    # JSON read is main's read of the config
    assert call_sites(SOURCE, "build_report") == [("write", "write")]
    returns = [n for n in ast.walk(top_level(SOURCE, "write")) if isinstance(n, ast.Return)]
    assert all(n.value is None for n in returns)
    assert call_sites(SOURCE, "load") + call_sites(SOURCE, "loads") == [("main", "main")]
