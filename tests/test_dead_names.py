"""Every module-level name that the package defines is used: some word in
the package, its tests, the benchmark or the README refers to it outside its
own definition. A name nothing refers to is dead code, or a second copy of a
decision made elsewhere."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sentiga"


def _defined_names(tree: ast.Module):
    """(name, first line, last line) of each function, class and assignment
    at module level, dunder names aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, node.lineno, node.end_lineno


def test_every_module_level_name_is_referenced():
    searched = {
        path: path.read_text(encoding="utf-8")
        for folder in ("src", "tests", "perfbench")
        for pattern in ("*.py", "*.md")
        for path in sorted((ROOT / folder).rglob(pattern))
    }
    searched[ROOT / "README.md"] = (ROOT / "README.md").read_text(encoding="utf-8")

    checked, dead = 0, []
    for module in sorted(PACKAGE.glob("*.py")):
        lines = searched[module].splitlines()
        for name, first, last in _defined_names(ast.parse(searched[module])):
            checked += 1
            outside = {**searched, module: "\n".join(lines[: first - 1] + lines[last:])}
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(text) for text in outside.values()):
                dead.append(f"{module.name}:{first} {name}")
    assert checked > 150
    assert not dead, f"referenced nowhere outside their definition: {dead}"
