"""The package's modules import one another in one direction, at the top,
and every private module-level name is used."""

import ast
from collections import Counter
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


def bound_names(statement):
    """The names a module-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def names_in(tree):
    """Every name a subtree mentions: read, assigned, imported or an attribute."""
    return Counter(
        name
        for node in ast.walk(tree)
        for name in (
            (node.id,) if isinstance(node, ast.Name)
            else (node.attr,) if isinstance(node, ast.Attribute)
            else (node.name,) if isinstance(node, ast.alias)
            else ()
        )
    )


def test_every_private_module_level_name_is_used_outside_its_definition():
    modules = parsed_modules()
    everywhere = sum((names_in(tree) for tree in modules.values()), Counter())
    unused = [
        f"{module}.{name}"
        for module, tree in modules.items()
        for statement in tree.body
        for name in bound_names(statement)
        if name.startswith("_") and not name.startswith("__")
        and everywhere[name] == names_in(statement)[name]
    ]
    assert not unused, f"private names used nowhere but their definition: {unused}"
