"""The benchmark's tracer patches package attributes by name; each of those
names must still exist, or a traced benchmark run fails long after tier 1."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracing = _tracing_module()


@pytest.mark.parametrize(
    "module, cls, attr",
    [target[:3] for target in _tracing.SPAN_TARGETS + _tracing.COUNT_TARGETS],
    ids=lambda part: part or "-",
)
def test_traced_attribute_resolves(module, cls, attr):
    owner = importlib.import_module(module)
    if cls:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr, None)), f"{module}.{cls + '.' if cls else ''}{attr}"
