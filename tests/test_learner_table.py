"""The learner table: every kind round-trips through a bundle unchanged,
dispatch goes through the `learners` module attributes, and each config
rejects values outside its bounds."""

from dataclasses import fields

import pytest

from conftest import edit_bundle_payload, make_clean_records
from sentiga import learners
from sentiga.bundle import load_bundle, save_bundle, train_bundle
from sentiga.errors import BundleError, SentigaError
from sentiga.evaluation import predict_model, run_benchmark, train_model
from sentiga.features import TfidfConfig
from sentiga.learners import LEARNERS, LinearSvmConfig, LogRegConfig, MlpConfig

SMALL_TFIDF = TfidfConfig(min_df=1, max_df=1.0)

ROUND_TRIP_CASES = [(kind, LEARNERS[kind].config(seed=3)) for kind in LEARNERS] + [
    ("logreg", LogRegConfig(C=0.5, class_weight=None, max_iter=50)),
    ("mlp", MlpConfig(hidden_layer_sizes=(6,), batch_size=8, early_stopping=False, max_iter=5)),
    ("svm", LinearSvmConfig(regularization=2.0, epochs=20)),
]


@pytest.fixture(scope="module")
def records():
    return make_clean_records(n_per_class=(8, 8, 8), seed=3)


@pytest.mark.parametrize("kind, config", ROUND_TRIP_CASES)
def test_train_save_load_save_is_byte_identical(records, tmp_path, kind, config):
    result = train_bundle(records, kind=kind, model_config=config, tfidf_config=SMALL_TFIDF)
    first, second = tmp_path / "a.bundle", tmp_path / "b.bundle"
    save_bundle(result.bundle, first)
    loaded = load_bundle(first)
    save_bundle(loaded, second)
    assert first.read_bytes() == second.read_bytes()

    assert type(loaded.classifier) is LEARNERS[kind].model
    assert loaded.classifier.config == config
    for f in fields(config):
        assert type(getattr(loaded.classifier.config, f.name)) is type(getattr(config, f.name))
    assert loaded.tfidf.config == SMALL_TFIDF
    assert type(loaded.tfidf.config.max_df) is float


def test_dispatch_looks_up_learners_attributes_at_call_time(records, monkeypatch):
    calls = []

    def spy(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    names = [name for l in LEARNERS.values() for name in (l.train, l.predict)]
    for name in names:
        monkeypatch.setattr(learners, name, spy(name, getattr(learners, name)))

    rows = run_benchmark(records, tfidf_config=SMALL_TFIDF)
    assert not any(row.failed for row in rows)
    assert sorted(calls) == sorted(names)

    calls.clear()
    for kind in LEARNERS:
        train_bundle(records, kind=kind, tfidf_config=SMALL_TFIDF)
    assert sorted(calls) == sorted(names)


def test_unknown_kind_is_rejected(records, tmp_path):
    with pytest.raises(SentigaError, match="unknown model kind"):
        train_model("forest", None, None, None)
    with pytest.raises(SentigaError, match="unknown model kind"):
        predict_model("forest", None, None)

    path = tmp_path / "m.bundle"
    save_bundle(train_bundle(records, tfidf_config=SMALL_TFIDF).bundle, path)
    edit_bundle_payload(path, lambda data: data.update(kind="forest"))
    with pytest.raises(BundleError, match=r"malformed payload: KeyError\('forest'"):
        load_bundle(path)


@pytest.mark.parametrize(
    "cls, values",
    [
        (LogRegConfig, {"C": 0.0}),
        (LogRegConfig, {"C": -1.0}),
        (LogRegConfig, {"C": float("nan")}),
        (LogRegConfig, {"tol": 0.0}),
        (LogRegConfig, {"max_iter": 0}),
        (MlpConfig, {"hidden_layer_sizes": ()}),
        (MlpConfig, {"hidden_layer_sizes": (4, 0)}),
        (MlpConfig, {"alpha": -1e-4}),
        (MlpConfig, {"learning_rate_init": -1e-3}),
        (MlpConfig, {"max_iter": 0}),
        (MlpConfig, {"validation_fraction": 0.0}),
        (MlpConfig, {"validation_fraction": 1.0}),
        (MlpConfig, {"patience": -1}),
        (MlpConfig, {"improvement_tol": -1.0}),
        (MlpConfig, {"batch_size": 0}),
        (MlpConfig, {"activation": "tanh"}),
        (MlpConfig, {"solver": "sgd"}),
        (LogRegConfig, {"solver": "saga"}),
        (LinearSvmConfig, {"regularization": 0.0}),
        (LinearSvmConfig, {"epochs": 0}),
        (LogRegConfig, {"class_weight": "bogus"}),
        (LogRegConfig, {"class_weight": "none"}),
        (LogRegConfig, {"seed": -1}),
        (MlpConfig, {"seed": -1}),
        (LinearSvmConfig, {"seed": -3}),
        (TfidfConfig, {"max_features": 0}),
        (TfidfConfig, {"max_features": -2}),
        (TfidfConfig, {"min_df": 1.5}),
        (TfidfConfig, {"min_df": float("inf")}),
        (TfidfConfig, {"max_df": float("nan")}),
        (TfidfConfig, {"ngram_range": (0, 1)}),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else repr(v),
)
def test_config_rejects_values_out_of_bounds(cls, values):
    with pytest.raises(ValueError):
        cls(**values)


def test_config_accepts_boundary_values():
    LogRegConfig(max_iter=1)
    MlpConfig(alpha=0.0, learning_rate_init=0.0, max_iter=1, patience=0, batch_size=1,
              improvement_tol=0.0)
    LinearSvmConfig(epochs=1)
