"""The benchmark's tracer wraps only functions that still exist."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def wrapped_names():
    """``WRAPPED`` as written in the tracer's source, which is not imported."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [
            "WRAPPED"
        ]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING.name} assigns no WRAPPED")


def test_every_wrapped_function_exists():
    wrapped = wrapped_names()
    assert wrapped
    for module, names in wrapped.items():
        namespace = importlib.import_module(f"twocat.{module}")
        missing = [name for name in names if not callable(getattr(namespace, name, None))]
        assert not missing, f"twocat.{module} lacks {missing}"
