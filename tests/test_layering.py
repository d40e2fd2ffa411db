"""The package's modules import one another in one direction, at the top."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "twocat"


def parsed_modules():
    modules = {path.stem: ast.parse(path.read_text(), filename=str(path))
               for path in sorted(PACKAGE.glob("*.py"))}
    assert modules, f"no modules under {PACKAGE}"
    return modules


def test_no_import_inside_a_function_or_class():
    found = [
        f"{name}.py:{inner.lineno}"
        for name, tree in parsed_modules().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert not found, f"imports below module level: {found}"


def test_module_level_imports_form_no_cycle():
    graph = {}
    for name, tree in parsed_modules().items():
        graph[name] = set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                graph[name] |= {node.module} if node.module else {a.name for a in node.names}
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        raise AssertionError(f"the package imports in a cycle: {exc.args[1]}") from None
