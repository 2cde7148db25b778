"""The benchmark patches package attributes by name and calls the package
with keyword arguments; each of those names must still exist, or a benchmark
run fails long after tier 1."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
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


def _workload_uses() -> dict[tuple[str, str], set[str]]:
    """(module, attribute) -> keywords passed, for each `<module>.<attr>` in
    perfbench/workloads.py on a module it imports with `from sentiga import`."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    modules = {
        alias.asname or alias.name: f"sentiga.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "sentiga"
        for alias in node.names
    }
    keywords = {
        id(node.func): {k.arg for k in node.keywords if k.arg}
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    uses: dict[tuple[str, str], set[str]] = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            used = uses.setdefault((modules[node.value.id], node.attr), set())
            used |= keywords.get(id(node), set())
    return uses


_USES = _workload_uses()


def test_workloads_use_the_package():
    assert len(_USES) >= 20
    assert {"report", "benchmark", "model_configs"} <= _USES["sentiga.export", "export_tables"]


@pytest.mark.parametrize("module, attr", sorted(_USES), ids=[".".join(u) for u in sorted(_USES)])
def test_workload_name_and_keywords_resolve(module, attr):
    owner = importlib.import_module(module)
    assert hasattr(owner, attr), f"{module}.{attr}"
    used = _USES[module, attr]
    if used:
        parameters = inspect.signature(getattr(owner, attr)).parameters
        assert used <= parameters.keys(), f"{module}.{attr} takes no {used - parameters.keys()}"
