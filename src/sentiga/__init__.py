"""Three-class sentiment toolkit for Indonesian social-media text.

The names below, and the submodules, are imported on first use (PEP 562),
so `import sentiga` loads no submodule and `sentiga predict` loads only
what serving runs.
"""

# Each public name, by the module it lives in.
_HOMES = {
    "bundle": "ModelBundle Prediction load_bundle predict save_bundle train_bundle",
    "corpus": "CleanRecord LabelMap RawRecord class_counts default_label_map deduplicate "
              "load_raw prepare_corpus",
    "errors": "SentigaError",
    "evaluation": "SplitIndex confusion report run_benchmark stratified_split",
    "features": "HybridFeatureSpace HybridMatrix fit_feature_space fit_scaler fit_tfidf "
                "transform_scaler",
    "learners": "balanced_weights predict_proba_logreg predict_proba_mlp "
                "train_linear_svm train_logreg train_mlp",
    "model": "EvalReport LinearSvmConfig LinearSvmModel LogRegConfig LogRegModel MlpConfig "
             "MlpModel Scaler SentimentClass SplitConfig TfidfConfig TfidfModel",
    "textnorm": "clean_text count_hashtags",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}
_SUBMODULES = {*_HOMES, "cli", "datasets", "export"}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    # through __import__, not importlib.import_module, so that `-X importtime`
    # lists the modules imported here
    if name in _SUBMODULES:
        __import__(f"{__name__}.{name}")
        return globals()[name]
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = __import__(f"{__name__}.{_HOME[name]}", fromlist=[name])
    value = globals()[name] = getattr(home, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
