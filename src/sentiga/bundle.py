"""Self-contained model bundles: persistence and inference.

A bundle is a single text file:

    SENTIGA-BUNDLE v<format_version>
    sha256:<hex digest of the payload line>
    <payload>

The payload is canonical JSON: object keys sorted, no whitespace, floats
rendered with 17 significant digits so parsing reproduces them bit-exactly.
Writing the same bundle twice therefore yields byte-identical files, and a
save/load round trip preserves predictions exactly. The payload embeds
every fitted component needed at inference time (slang and leet tables,
vectorizer, scaler, classifier weights), so prediction never consults
external assets.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import learners
from .corpus import CleanRecord, LabelMap, SentimentClass, metadata_counts
from .errors import (
    BundleError,
    BundleIntegrityError,
    NegativeCountError,
    NonFiniteFeatureError,
    SentigaError,
    UnsupportedVersionError,
)
from .evaluation import (
    ClassMetrics,
    ConfusionMatrix,
    EvalReport,
    confusion,
    predict_model,
    report,
    stratified_split,
    train_model,
)
from .features import (
    NUMERIC_FEATURE_NAMES,
    HybridFeatureSpace,
    Scaler,
    TfidfConfig,
    TfidfModel,
    fit_feature_space,
    tfidf_row,
    transform_scaler,
)
from .textnorm import clean_text, default_leet, default_slang

FORMAT_VERSION = 1
_MAGIC = "SENTIGA-BUNDLE"


# --------------------------------------------------------------------------
# canonical encoding
# --------------------------------------------------------------------------

def _encode(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=True)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if not np.isfinite(value):
            raise BundleError("cannot serialize non-finite float")
        return format(value, ".17g")
    if isinstance(value, np.ndarray):
        return _encode(value.tolist())
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_encode(v) for v in value) + "]"
    if isinstance(value, dict):
        if any(not isinstance(k, str) for k in value):
            raise BundleError("payload dict keys must be strings")
        items = sorted(value.items())
        return "{" + ",".join(f"{json.dumps(k)}:{_encode(v)}" for k, v in items) + "}"
    raise BundleError(f"cannot serialize {type(value).__name__} in bundle payload")


def _pairs_digest(entries: dict[str, str]) -> str:
    canon = "\n".join(f"{k},{v}" for k, v in sorted(entries.items()))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------
# bundle model
# --------------------------------------------------------------------------

@dataclass
class ModelBundle:
    """Everything needed to turn one raw post into a prediction."""

    kind: str                       # logreg | mlp | svm
    seed: int
    test_fraction: float
    slang: dict[str, str]
    leet: dict[str, str]
    label_map_digest: str
    tfidf: TfidfModel
    scaler: Scaler
    classifier: object
    metrics_snapshot: EvalReport | None = None
    format_version: int = FORMAT_VERSION

    @property
    def slang_digest(self) -> str:
        return _pairs_digest(self.slang)

    @property
    def leet_digest(self) -> str:
        return _pairs_digest(self.leet)


def _report_to_payload(rep: EvalReport | None):
    if rep is None:
        return None
    return {
        "confusion": rep.confusion.counts,
        "per_class": [asdict(m) for m in rep.per_class],
        "accuracy": rep.accuracy,
        "macro_f1": rep.macro_f1,
        "weighted_f1": rep.weighted_f1,
    }


def _report_from_payload(data) -> EvalReport | None:
    if data is None:
        return None
    return EvalReport(
        confusion=ConfusionMatrix(counts=np.asarray(data["confusion"], dtype=int)),
        per_class=[ClassMetrics(**m) for m in data["per_class"]],
        accuracy=float(data["accuracy"]),
        macro_f1=float(data["macro_f1"]),
        weighted_f1=float(data["weighted_f1"]),
    )


def _classifier_to_payload(kind: str, model) -> dict:
    if kind == "logreg":
        return {"W": model.W, "b": model.b, "config": asdict(model.config)}
    if kind == "mlp":
        return {
            "weights": [W for W in model.weights],
            "biases": [b for b in model.biases],
            "config": asdict(model.config),
        }
    if kind == "svm":
        return {"W": model.W, "b": model.b, "config": asdict(model.config)}
    raise BundleError(f"unknown classifier kind: {kind!r}")


def _classifier_from_payload(kind: str, data):
    config = data["config"]
    if kind == "logreg":
        return learners.LogRegModel(
            W=np.asarray(data["W"], dtype=float),
            b=np.asarray(data["b"], dtype=float),
            config=learners.LogRegConfig(
                C=float(config["C"]),
                class_weight=config["class_weight"],
                solver=config["solver"],
                max_iter=int(config["max_iter"]),
                tol=float(config["tol"]),
                seed=int(config["seed"]),
            ),
        )
    if kind == "mlp":
        return learners.MlpModel(
            weights=[np.asarray(W, dtype=float) for W in data["weights"]],
            biases=[np.asarray(b, dtype=float) for b in data["biases"]],
            config=learners.MlpConfig(
                hidden_layer_sizes=tuple(config["hidden_layer_sizes"]),
                activation=config["activation"],
                solver=config["solver"],
                alpha=float(config["alpha"]),
                learning_rate_init=float(config["learning_rate_init"]),
                max_iter=int(config["max_iter"]),
                early_stopping=bool(config["early_stopping"]),
                validation_fraction=float(config["validation_fraction"]),
                patience=int(config["patience"]),
                improvement_tol=float(config["improvement_tol"]),
                batch_size=config["batch_size"],
                seed=int(config["seed"]),
            ),
        )
    if kind == "svm":
        return learners.LinearSvmModel(
            W=np.asarray(data["W"], dtype=float),
            b=np.asarray(data["b"], dtype=float),
            config=learners.LinearSvmConfig(
                regularization=float(config["regularization"]),
                epochs=int(config["epochs"]),
                seed=int(config["seed"]),
            ),
        )
    raise BundleError(f"unknown classifier kind: {kind!r}")


def save_bundle(bundle: ModelBundle, path: str | Path) -> None:
    """Serialize deterministically and write atomically (temp file + rename)."""
    tfidf_cfg = asdict(bundle.tfidf.config)
    payload = {
        "kind": bundle.kind,
        "seed": bundle.seed,
        "test_fraction": bundle.test_fraction,
        "slang": bundle.slang,
        "leet": bundle.leet,
        "label_map_digest": bundle.label_map_digest,
        "slang_digest": bundle.slang_digest,
        "leet_digest": bundle.leet_digest,
        "tfidf": {
            "vocabulary": bundle.tfidf.vocabulary,
            "idf": bundle.tfidf.idf,
            "config": tfidf_cfg,
        },
        "scaler": {"means": bundle.scaler.means, "stds": bundle.scaler.stds},
        "classifier": _classifier_to_payload(bundle.kind, bundle.classifier),
        "metrics_snapshot": _report_to_payload(bundle.metrics_snapshot),
    }
    encoded = _encode(payload)
    checksum = hashlib.sha256(encoded.encode("utf-8")).hexdigest()
    content = f"{_MAGIC} v{bundle.format_version}\nsha256:{checksum}\n{encoded}\n"

    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(content)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def load_bundle(path: str | Path) -> ModelBundle:
    path = Path(path)
    if not path.exists():
        raise BundleError(f"no such bundle: {path}")
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n", 2)
    if len(lines) < 3 or not lines[0].startswith(f"{_MAGIC} v"):
        raise BundleIntegrityError(f"{path}: not a recognizable bundle")
    try:
        version = int(lines[0].removeprefix(f"{_MAGIC} v"))
    except ValueError:
        raise BundleIntegrityError(f"{path}: malformed version header") from None
    if version > FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"{path}: format version {version} is newer than supported {FORMAT_VERSION}"
        )
    if not lines[1].startswith("sha256:"):
        raise BundleIntegrityError(f"{path}: missing checksum header")
    expected = lines[1].removeprefix("sha256:")
    payload_text = lines[2].rstrip("\n")
    actual = hashlib.sha256(payload_text.encode("utf-8")).hexdigest()
    if actual != expected:
        raise BundleIntegrityError(f"{path}: checksum mismatch, bundle is corrupt")

    try:
        data = json.loads(payload_text)
    except json.JSONDecodeError as exc:
        raise BundleIntegrityError(f"{path}: unparseable payload: {exc}") from None

    try:
        bundle = _bundle_from_payload(data, version)
        _check_shapes(bundle)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise BundleIntegrityError(f"{path}: malformed payload: {exc!r}") from None
    return bundle


def _bundle_from_payload(data: dict, version: int) -> ModelBundle:
    tfidf_cfg = data["tfidf"]["config"]
    tfidf = TfidfModel(
        vocabulary={k: int(v) for k, v in data["tfidf"]["vocabulary"].items()},
        idf=np.asarray(data["tfidf"]["idf"], dtype=float),
        config=TfidfConfig(
            max_features=int(tfidf_cfg["max_features"]),
            min_df=int(tfidf_cfg["min_df"]),
            max_df=float(tfidf_cfg["max_df"]),
            ngram_range=tuple(tfidf_cfg["ngram_range"]),
            sublinear_tf=bool(tfidf_cfg["sublinear_tf"]),
        ),
    )
    scaler = Scaler(
        means=np.asarray(data["scaler"]["means"], dtype=float),
        stds=np.asarray(data["scaler"]["stds"], dtype=float),
    )
    return ModelBundle(
        kind=data["kind"],
        seed=int(data["seed"]),
        test_fraction=float(data["test_fraction"]),
        slang=dict(data["slang"]),
        leet=dict(data["leet"]),
        label_map_digest=data["label_map_digest"],
        tfidf=tfidf,
        scaler=scaler,
        classifier=_classifier_from_payload(data["kind"], data["classifier"]),
        metrics_snapshot=_report_from_payload(data["metrics_snapshot"]),
        format_version=version,
    )


def _check_shapes(bundle: ModelBundle) -> None:
    """Raise ValueError unless the vocabulary maps onto columns 0..V-1, the
    IDF has V entries, the scaler has one entry per numeric feature, and the
    classifier's layers chain from V + 3 inputs to one score per class."""
    n_terms = bundle.tfidf.n_features
    if sorted(bundle.tfidf.vocabulary.values()) != list(range(n_terms)):
        raise ValueError(f"vocabulary indices are not the columns 0..{n_terms - 1}")
    if bundle.tfidf.idf.shape != (n_terms,):
        raise ValueError(f"idf has shape {bundle.tfidf.idf.shape}, vocabulary has {n_terms} terms")
    n_numeric = len(NUMERIC_FEATURE_NAMES)
    for stats in (bundle.scaler.means, bundle.scaler.stds):
        if stats.shape != (n_numeric,):
            raise ValueError(f"scaler has shape {stats.shape}, expected ({n_numeric},)")
    model = bundle.classifier
    if bundle.kind == "mlp":
        if len(model.weights) != len(model.biases):
            raise ValueError("mlp has different numbers of weight and bias layers")
        layers = list(zip(model.weights, model.biases))
    else:
        layers = [(model.W.T, model.b)]
    width = n_terms + n_numeric
    for W, b in layers:
        if W.ndim != 2 or W.shape[0] != width or b.shape != (W.shape[1],):
            raise ValueError(
                f"classifier layer {W.shape} with bias {b.shape} does not take {width} inputs"
            )
        width = W.shape[1]
    if width != learners.N_CLASSES:
        raise ValueError(f"classifier emits {width} scores, expected {learners.N_CLASSES}")


# --------------------------------------------------------------------------
# inference
# --------------------------------------------------------------------------

@dataclass
class Prediction:
    label: SentimentClass
    scores: np.ndarray          # probabilities, or decision scores for SVM
    probabilistic: bool


def predict(
    bundle: ModelBundle, raw_text: str, retweets: int = 0, likes: int = 0
) -> Prediction:
    """Run the full inference pipeline on one raw post.

    No feature matrix is built: the classifier's first layer gathers the
    weights of the post's TF-IDF columns and of the scaled numeric columns.
    Text that cleans to the empty string still yields a prediction from a
    zero TF-IDF block plus the numeric features; this never hard-errors.
    """
    if retweets < 0 or likes < 0:
        raise NegativeCountError(
            f"retweets and likes must be non-negative, got {retweets} and {likes}"
        )
    text = clean_text(raw_text, bundle.slang, bundle.leet)
    cols, weights = tfidf_row(bundle.tfidf, text)
    weights = np.asarray(weights)
    numeric = transform_scaler(
        bundle.scaler, metadata_counts(text, raw_text, retweets, likes)
    )
    if not (np.isfinite(weights).all() and np.isfinite(numeric).all()):
        raise NonFiniteFeatureError("feature vector contains non-finite values")

    n_terms = bundle.tfidf.n_features
    model = bundle.classifier
    if bundle.kind == "mlp":
        W, b = model.weights[0], model.biases[0]
        learners._check_features(W.shape[0], n_terms + numeric.size)
        first = weights @ W[cols] + numeric @ W[n_terms:] + b
        if len(model.weights) > 1:
            np.maximum(first, 0.0, out=first)
        scores = learners._mlp_forward(model.weights[1:], model.biases[1:], first[None])[0]
    elif bundle.kind in ("logreg", "svm"):
        learners._check_features(model.W.shape[1], n_terms + numeric.size)
        scores = model.W[:, cols] @ weights + model.W[:, n_terms:] @ numeric + model.b
        if bundle.kind == "logreg":
            scores = learners.softmax(scores[None])[0]
    else:
        raise BundleError(f"unknown classifier kind: {bundle.kind!r}")
    return Prediction(
        label=SentimentClass(int(np.argmax(scores))),
        scores=scores,
        probabilistic=bundle.kind != "svm",
    )


# --------------------------------------------------------------------------
# training orchestration
# --------------------------------------------------------------------------

@dataclass
class TrainResult:
    bundle: ModelBundle
    holdout_report: EvalReport
    space: HybridFeatureSpace
    train_indices: np.ndarray
    test_indices: np.ndarray


def train_bundle(
    records: Sequence[CleanRecord],
    kind: str = "logreg",
    model_config=None,
    tfidf_config: TfidfConfig | None = None,
    label_map: LabelMap | None = None,
    slang: dict[str, str] | None = None,
    leet: dict[str, str] | None = None,
    seed: int = 42,
    test_fraction: float = 0.2,
) -> TrainResult:
    """Stratified split, fit the feature space on the training part only,
    train one classifier, evaluate on the held-out part, and assemble a
    self-contained bundle with the evaluation snapshot."""
    if kind not in ("logreg", "mlp", "svm"):
        raise SentigaError(f"unknown model kind: {kind!r}")
    from .corpus import default_label_map

    slang = dict(slang if slang is not None else default_slang())
    leet = dict(leet if leet is not None else default_leet())
    label_map = label_map if label_map is not None else default_label_map()

    labels = [r.label for r in records]
    split = stratified_split(labels, test_fraction, seed)
    train_records = [records[i] for i in split.train_indices]
    test_records = [records[i] for i in split.test_indices]
    y_train = np.array([int(r.label) for r in train_records])
    y_test = np.array([int(r.label) for r in test_records])

    space = fit_feature_space(train_records, tfidf_config or TfidfConfig())
    X_train = space.featurize(train_records).to_csr()
    X_test = space.featurize(test_records).to_csr()

    model = train_model(kind, X_train, y_train, model_config)
    holdout = report(confusion(y_test, predict_model(kind, model, X_test)))

    bundle = ModelBundle(
        kind=kind,
        seed=seed,
        test_fraction=test_fraction,
        slang=slang,
        leet=leet,
        label_map_digest=label_map.digest(),
        tfidf=space.tfidf,
        scaler=space.scaler,
        classifier=model,
        metrics_snapshot=holdout,
    )
    return TrainResult(
        bundle=bundle,
        holdout_report=holdout,
        space=space,
        train_indices=split.train_indices,
        test_indices=split.test_indices,
    )
