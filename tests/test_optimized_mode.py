"""No result may change under ``python -O``, which strips ``assert``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "twocat"


def test_the_package_has_no_assert_statements():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules, f"no modules under {PACKAGE}"
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"these checks vanish under python -O: {found}"
