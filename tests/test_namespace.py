"""The package namespace is lazy: `import sentiga` loads no submodule, and
each public name or submodule is imported on first use."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sentiga

# The public names of the package, each with the module it lives in.
PUBLIC = {
    "bundle": ["ModelBundle", "Prediction", "load_bundle", "predict", "save_bundle",
               "train_bundle"],
    "corpus": ["CleanRecord", "LabelMap", "RawRecord", "class_counts", "default_label_map",
               "deduplicate", "load_raw", "prepare_corpus"],
    "errors": ["SentigaError"],
    "evaluation": ["SplitIndex", "confusion", "report", "run_benchmark", "stratified_split"],
    "features": ["HybridFeatureSpace", "HybridMatrix", "fit_feature_space", "fit_scaler",
                 "fit_tfidf", "transform_scaler"],
    "learners": ["balanced_weights", "predict_proba_logreg", "predict_proba_mlp",
                 "train_linear_svm", "train_logreg", "train_mlp"],
    "model": ["EvalReport", "LinearSvmConfig", "LinearSvmModel", "LogRegConfig",
              "LogRegModel", "MlpConfig", "MlpModel", "Scaler", "SentimentClass",
              "SplitConfig", "TfidfConfig", "TfidfModel"],
    "textnorm": ["clean_text", "count_hashtags"],
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]
README = Path(__file__).resolve().parents[1] / "README.md"


def _fresh(script: str) -> list[str]:
    """The stdout lines of `script` run in a fresh interpreter."""
    src = str(Path(sentiga.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_import_loads_no_submodule_and_no_numpy():
    loaded = _fresh(
        "import sys, sentiga\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] in ('sentiga', 'numpy')))\n"
    )
    assert loaded == ["sentiga"]


def test_a_submodule_resolves_without_an_import():
    out = _fresh(
        "import sentiga\n"
        "print(sentiga.bundle.load_bundle.__module__, sentiga.cli.__name__)\n"
    )
    assert out == ["sentiga.bundle sentiga.cli"]


def test_all_lists_each_public_name():
    assert sorted(sentiga.__all__) == sorted(name for _, name in NAMES)
    assert set(sentiga.__all__) <= set(dir(sentiga))


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_public_name_is_its_home_modules_object(module, name):
    home = importlib.import_module(f"sentiga.{module}")
    value = getattr(sentiga, name)
    assert value is getattr(home, name)
    assert value.__module__ == home.__name__


def test_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        sentiga.no_such_name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from sentiga import *", namespace)
    assert set(sentiga.__all__) <= namespace.keys()
    assert namespace["load_bundle"] is sentiga.bundle.load_bundle


def _readme_lines() -> list[str]:
    return README.read_text(encoding="utf-8").splitlines()


def test_readme_public_names_table_is_the_namespace():
    lines = _readme_lines()
    start = lines.index("| module | public names |") + 2  # past the header and rule
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        module, names = (cell.strip() for cell in line.split("|")[1:-1])
        table[module.strip("`")] = re.findall(r"`(\w+)`", names)
    assert table == {module: names.split() for module, names in sentiga._HOMES.items()}


def test_readme_removed_names_are_attribute_errors():
    lines = _readme_lines()
    start = next(i for i, line in enumerate(lines) if line.startswith("Removed names: "))
    paragraph = " ".join(lines[start:lines.index("", start)])
    removed = re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", paragraph))
    assert removed
    for name in removed:
        assert name not in sentiga.__all__
        with pytest.raises(AttributeError, match=f"'{name}'"):
            getattr(sentiga, name)
