"""The learner table: every kind round-trips through a bundle unchanged,
dispatch goes through the `learners` module attributes, and each config is
frozen and rejects values outside its bounds."""

import typing
from dataclasses import FrozenInstanceError, fields

import pytest

from conftest import edit_bundle_payload, make_clean_records
from sentiga import learners
from sentiga.bundle import load_bundle, save_bundle, train_bundle
from sentiga.errors import BundleError, SentigaError
from sentiga.evaluation import predict_model, run_benchmark, train_model
from sentiga.features import TfidfConfig
from sentiga.learners import LinearSvmConfig, LogRegConfig, MlpConfig
from sentiga.model import LEARNERS, SplitConfig, _Config

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
        # a value of a type its field's hint does not admit
        (LogRegConfig, {"max_iter": 2.5}),
        (TfidfConfig, {"max_features": 100.5}),
        (LinearSvmConfig, {"epochs": 3.5}),
        (SplitConfig, {"seed": 1.5}),
        (LogRegConfig, {"C": True}),
        (TfidfConfig, {"sublinear_tf": "no"}),
        (TfidfConfig, {"max_features": True}),
        (TfidfConfig, {"ngram_range": (1, 2.0)}),
        (TfidfConfig, {"ngram_range": [1, 2]}),
        (MlpConfig, {"hidden_layer_sizes": (64, True)}),
        (MlpConfig, {"batch_size": 2.5}),
        (MlpConfig, {"early_stopping": 1}),
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
    # a float field takes an int; None passes where the hint allows it
    LogRegConfig(C=2, class_weight=None)
    TfidfConfig(max_df=1)
    MlpConfig(batch_size=None)


@pytest.mark.parametrize("config, name", [
    (LogRegConfig(C=2, tol=1), "C"), (LogRegConfig(C=2, tol=1), "tol"),
    (TfidfConfig(max_df=1), "max_df"), (MlpConfig(alpha=0), "alpha"),
    (LinearSvmConfig(regularization=3), "regularization"),
], ids=lambda v: v if isinstance(v, str) else type(v).__name__)
def test_float_field_given_an_int_stores_a_float(config, name):
    assert type(getattr(config, name)) is float


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: LogRegConfig(max_iter=2.5), "max_iter must be of type int, got 2.5"),
        (lambda: LogRegConfig(C=True), "C must be of type float, got True"),
        (lambda: TfidfConfig(sublinear_tf="no"), "sublinear_tf must be of type bool, got 'no'"),
        (lambda: TfidfConfig(ngram_range=(1, 2.0)),
         "ngram_range must be of type tuple[int, int], got (1, 2.0)"),
        (lambda: MlpConfig(batch_size=2.5), "batch_size must be of type int | None, got 2.5"),
    ],
    ids=["max_iter", "C", "sublinear_tf", "ngram_range", "batch_size"],
)
def test_config_type_error_names_the_field_and_its_hint(build, message):
    with pytest.raises(ValueError) as excinfo:
        build()
    assert str(excinfo.value) == message


def test_the_checked_configs_are_the_five():
    assert set(_Config.__subclasses__()) == {SplitConfig, TfidfConfig, LogRegConfig, MlpConfig,
                                             LinearSvmConfig}


@pytest.mark.parametrize("cls", _Config.__subclasses__(), ids=lambda cls: cls.__name__)
def test_every_config_is_frozen_and_checked(cls):
    config = cls()
    for f in fields(cls):
        with pytest.raises(FrozenInstanceError):
            setattr(config, f.name, getattr(config, f.name))
    floats = [name for name, hint in typing.get_type_hints(cls).items() if hint is float]
    assert floats
    for name in floats:
        for value in (float("nan"), float("inf"), -float("inf"), 10**400):  # 10**400: no float
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                cls(**{name: value})
