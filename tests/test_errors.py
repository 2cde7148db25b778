"""An exception class earns its place only if some caller tells it apart
from its base; every other failure raises the base its exit code names."""

import ast
import re
from pathlib import Path

import sentiga
from sentiga import errors

PACKAGE = Path(sentiga.__file__).parent
EXIT_CODE_BASES = {"DataError", "TrainingError", "BundleError"}
README = Path(__file__).resolve().parents[1] / "README.md"


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
    assert narrower <= caught, sorted(narrower - caught)


def _readme_exit_code_table() -> list[tuple[str, int, list[str]]]:
    """(kind, exit code, class names) of each row of the README's exit-code table."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| kind | exit code | raised as |") + 2  # past the header and rule
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        kind, code, raised = (cell.strip() for cell in line.split("|")[1:-1])
        rows.append((kind, int(code), re.findall(r"`(\w+)`", raised)))
    return rows


def test_readme_exit_code_table_is_each_error_class_kind_and_code():
    classes = {name: cls for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, errors.SentigaError)}
    rows = _readme_exit_code_table()
    assert len({kind for kind, _, _ in rows}) == len(rows)
    assert {(kind, code) for kind, code, _ in rows} == {
        (cls.kind, cls.exit_code) for cls in classes.values()
    }
    named = set()
    for kind, code, names in rows:
        for name in set(names) & set(classes):
            assert (classes[name].kind, classes[name].exit_code) == (kind, code), name
            named.add(name)
    assert named == set(classes)
