"""Every module-level name that the package defines is used: some word in
the package, its tests, the benchmark or the README refers to it outside its
own definition. A name nothing refers to is dead code, or a second copy of a
decision made elsewhere. Beyond that, each is reached from the package
itself, is public, or is kept for a reason stated here."""

import ast
import re
from pathlib import Path

import sentiga

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sentiga"

# the module-level names that no package code refers to and that are not
# public, each with what it is kept for
KEPT = {
    "clean_record": "perfbench's batch path, and the tests' oracle of prepare_corpus",
    "MODEL_DISPLAY": "perfbench reads each model's display name and family from it",
    "write_reference_corpus": "regenerates the bundled corpus asset; test_datasets",
}


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


def _package_references(tree: ast.Module):
    """(name, line) of each reference in a module's code: a name, an
    attribute, or a string constant (`LEARNERS` names its functions as
    strings)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def test_every_module_level_name_is_reached_from_the_package_or_public_or_kept():
    trees = {module: ast.parse(module.read_text(encoding="utf-8"))
             for module in sorted(PACKAGE.glob("*.py"))}
    references = {module: list(_package_references(tree)) for module, tree in trees.items()}

    unreached = {}
    for module, tree in trees.items():
        for name, first, last in _defined_names(tree):
            if not any(ref == name and (other != module or not first <= line <= last)
                       for other, refs in references.items() for ref, line in refs):
                unreached[name] = f"{module.name}:{first}"
    public = unreached.keys() & set(sentiga.__all__)
    unexplained = {name: where for name, where in unreached.items()
                   if name not in public and name not in KEPT}
    assert not unexplained, f"no package code refers to these: {unexplained}"
    assert unreached.keys() - public == KEPT.keys(), "KEPT names a name the package reaches"
