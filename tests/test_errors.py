"""An exception class earns its place only if some caller tells it apart
from its base; every other failure raises the base its exit code names."""

import ast
from pathlib import Path

import sentiga

PACKAGE = Path(sentiga.__file__).parent
EXIT_CODE_BASES = {"DataError", "TrainingError", "BundleError"}


def _name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def test_every_narrower_error_class_is_caught_somewhere():
    bases, caught = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {_name(base) for base in node.bases}
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= {_name(n) for n in ast.walk(node.type)}
    errors = {"SentigaError"}
    while grown := {name for name, parents in bases.items() if parents & errors} - errors:
        errors |= grown
    narrower = errors - EXIT_CODE_BASES - {"SentigaError"}
    assert {"StratificationError", "_UsageError"} <= narrower
    assert narrower <= caught, sorted(narrower - caught)
