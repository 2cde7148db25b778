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
import itertools
import json
import math
import os
import tempfile
import types
import typing
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import learners
from .corpus import CleanRecord, LabelMap, SentimentClass, metadata_counts, pairs_digest
from .errors import (
    BundleError,
    BundleIntegrityError,
    DataError,
    NegativeCountError,
    NonFiniteFeatureError,
    UnsupportedVersionError,
)
from .evaluation import EvalReport, featurized_split, held_out_report, train_model
from .features import (
    NUMERIC_FEATURE_NAMES,
    HybridFeatureSpace,
    Scaler,
    TfidfConfig,
    TfidfModel,
    tfidf_row,
)
from .textnorm import check_tables, clean_text, default_leet, default_slang

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
        if value.dtype == np.float64 and value.ndim:
            if not np.isfinite(value).all():
                raise BundleError("cannot serialize non-finite float")
            return _encode_floats(value.tolist(), value.ndim)
        return _encode(value.tolist())
    if is_dataclass(value):
        return _encode({f.name: getattr(value, f.name) for f in _persisted(value)})
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_encode(v) for v in value) + "]"
    if isinstance(value, dict):
        if any(not isinstance(k, str) for k in value):
            raise BundleError("payload dict keys must be strings")
        if all(type(v) in (int, str) for v in value.values()):  # vocabulary, tables
            return json.dumps(value, sort_keys=True, separators=(",", ":"))
        items = sorted(value.items())
        return "{" + ",".join(f"{json.dumps(k)}:{_encode(v)}" for k, v in items) + "}"
    raise BundleError(f"cannot serialize {type(value).__name__} in bundle payload")


def _encode_floats(nested: list, ndim: int) -> str:
    """`_encode` of a finite float64 array's `tolist()`, without a call per
    element."""
    if ndim == 1:
        return "[" + ",".join([format(v, ".17g") for v in nested]) + "]"
    return "[" + ",".join([_encode_floats(row, ndim - 1) for row in nested]) + "]"


def _persisted(cls) -> list:
    """The fields a bundle stores: those not ending in "_", which hold
    training diagnostics."""
    return [f for f in fields(cls) if not f.name.endswith("_")]


def _decode(hint, value):
    """Rebuild a value of the declared type `hint` from its JSON form.

    The payload writes 2.0 as 2 and tuples as lists, so a float takes any
    finite JSON number and a tuple a list; an int, bool or str must be a JSON
    value of exactly that type, so 2.5 or true is no int, and an array entry
    a JSON number, so "1.5" or true is no entry. A dataclass is rebuilt field
    by field from its type hints; the entries of a dict, list or array of
    scalars are checked together, not one call each; the one dict is the
    vocabulary, str -> int.
    """
    if is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        return hint(**{f.name: _decode(hints[f.name], value[f.name]) for f in _persisted(hint)})
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        return _decode(next(a for a in args if a is not type(None)), value)
    if origin is dict:  # the vocabulary: JSON object keys are strings
        return dict(zip(value, _scalars(args[1], value.values())))
    if origin in (list, tuple):  # homogeneous: list[T], tuple[T, ...], tuple[T, T]
        if args[0] in _SCALARS:
            return origin(_scalars(args[0], value))
        return origin(_decode(args[0], v) for v in value)
    if hint is np.ndarray:
        array = np.asarray(value, dtype=float)
        entries = value  # nested one list per dimension
        for _ in range(array.ndim - 1):
            entries = itertools.chain.from_iterable(entries)
        # np.asarray also converts a numeric string or a bool
        kinds = set(map(type, entries))
        if not kinds <= {int, float}:
            names = sorted(kind.__name__ for kind in kinds)
            raise TypeError(f"expected an array of numbers, got entries of type {names}")
        return array
    return _scalars(hint, [value])[0]


_SCALARS = (int, bool, str, float)


def _scalars(hint, values) -> list:
    """`values` decoded as `hint`, one of _SCALARS: a float takes any finite
    JSON number, an int, bool or str only a JSON value of exactly that type."""
    values = list(values)
    if hint is float:
        if not set(map(type, values)) <= {int, float} or not all(map(math.isfinite, values)):
            raise ValueError(f"expected finite numbers, got {values!r:.80}")
        return [float(v) for v in values]
    if not set(map(type, values)) <= {hint}:
        raise TypeError(f"expected {hint.__name__} values, got {values!r:.80}")
    return values


# --------------------------------------------------------------------------
# bundle model
# --------------------------------------------------------------------------

@dataclass
class ModelBundle:
    """Everything needed to turn one raw post into a prediction."""

    kind: str                       # a key of learners.LEARNERS
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
        return pairs_digest(self.slang)

    @property
    def leet_digest(self) -> str:
        return pairs_digest(self.leet)


def _report_to_payload(rep: EvalReport | None):
    """The report's fields, with the confusion matrix stored as bare counts."""
    if rep is None:
        return None
    payload = {f.name: getattr(rep, f.name) for f in fields(rep)}
    return payload | {"confusion": rep.confusion.counts}


def _report_from_payload(data) -> EvalReport | None:
    if data is None:
        return None
    return _decode(EvalReport, data | {"confusion": {"counts": data["confusion"]}})


def save_bundle(bundle: ModelBundle, path: str | Path) -> None:
    """Serialize deterministically and write atomically (temp file + rename)."""
    payload = {
        "kind": bundle.kind,
        "seed": bundle.seed,
        "test_fraction": bundle.test_fraction,
        "slang": bundle.slang,
        "leet": bundle.leet,
        "label_map_digest": bundle.label_map_digest,
        "slang_digest": bundle.slang_digest,
        "leet_digest": bundle.leet_digest,
        "tfidf": bundle.tfidf,
        "scaler": bundle.scaler,
        "classifier": bundle.classifier,
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
        _check_arrays(bundle)
        check_tables(bundle.slang, bundle.leet)
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError, DataError) as exc:
        raise BundleIntegrityError(f"{path}: malformed payload: {exc!r}") from None
    return bundle


def _bundle_from_payload(data: dict, version: int) -> ModelBundle:
    return ModelBundle(
        kind=data["kind"],
        seed=_decode(int, data["seed"]),
        test_fraction=_decode(float, data["test_fraction"]),
        slang=dict(data["slang"]),
        leet=dict(data["leet"]),
        label_map_digest=_decode(str, data["label_map_digest"]),
        tfidf=_decode(TfidfModel, data["tfidf"]),
        scaler=_decode(Scaler, data["scaler"]),
        classifier=_decode(learners.LEARNERS[data["kind"]].model, data["classifier"]),
        metrics_snapshot=_report_from_payload(data["metrics_snapshot"]),
        format_version=version,
    )


def _check_arrays(bundle: ModelBundle) -> None:
    """Raise ValueError unless the vocabulary maps onto columns 0..V-1, the
    IDF has V entries, the scaler has one entry per numeric feature, the
    classifier's layers chain from V + 3 inputs to one score per class, and
    every entry of those arrays is finite (JSON parses NaN and Infinity,
    which a saved bundle never holds)."""
    n_terms = bundle.tfidf.n_features
    if sorted(bundle.tfidf.vocabulary.values()) != list(range(n_terms)):
        raise ValueError(f"vocabulary indices are not the columns 0..{n_terms - 1}")
    if bundle.tfidf.idf.shape != (n_terms,):
        raise ValueError(f"idf has shape {bundle.tfidf.idf.shape}, vocabulary has {n_terms} terms")
    n_numeric = len(NUMERIC_FEATURE_NAMES)
    for stats in (bundle.scaler.means, bundle.scaler.stds):
        if stats.shape != (n_numeric,):
            raise ValueError(f"scaler has shape {stats.shape}, expected ({n_numeric},)")
    width = n_terms + n_numeric
    for W, b in bundle.classifier.layers:
        if W.ndim != 2 or W.shape[0] != width or b.shape != (W.shape[1],):
            raise ValueError(
                f"classifier layer {W.shape} with bias {b.shape} does not take {width} inputs"
            )
        width = W.shape[1]
    if width != learners.N_CLASSES:
        raise ValueError(f"classifier emits {width} scores, expected {learners.N_CLASSES}")
    arrays = [bundle.tfidf.idf, bundle.scaler.means, bundle.scaler.stds]
    arrays += [a for layer in bundle.classifier.layers for a in layer]
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("a NaN or infinite entry in the IDF, scaler or classifier")


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

    No feature matrix is built: the post's feature vector holds its TF-IDF
    weights followed by the scaled numeric features, and the classifier's
    first layer gathers the weight rows of exactly those columns.
    Text that cleans to the empty string still yields a prediction from a
    zero TF-IDF block plus the numeric features; this never hard-errors.
    """
    if retweets < 0 or likes < 0:
        raise NegativeCountError(
            f"retweets and likes must be non-negative, got {retweets} and {likes}"
        )
    text = clean_text(raw_text, bundle.slang, bundle.leet)
    cols, x = tfidf_row(bundle.tfidf, text)
    # the scaled metadata as transform_scaler computes it, in Python floats
    scaler = bundle.scaler
    counts = metadata_counts(text, raw_text, retweets, likes)
    x += [
        (v - m) / s
        for v, m, s in zip(counts, scaler.means.tolist(), scaler.safe_stds_.tolist())
    ]
    if not all(map(math.isfinite, x)):
        raise NonFiniteFeatureError("feature vector contains non-finite values")

    n_terms = bundle.tfidf.n_features
    (W, b), *rest = bundle.classifier.layers
    learners._check_features(W.shape[0], n_terms + len(counts))
    cols += range(n_terms, n_terms + len(counts))
    # np.take first copies a matrix that is not C-contiguous; the logreg and
    # SVM layer is such a view (W.T), so its rows are taken as columns of W
    first = W.T.take(cols, 1).T if W.flags.f_contiguous else W.take(cols, 0)
    scores = learners.forward([(first, b), *rest], x).tolist()
    probabilistic = learners.LEARNERS[bundle.kind].probabilistic
    if probabilistic:  # learners.softmax, one row
        top = max(scores)
        exps = [math.exp(s - top) for s in scores]
        total = sum(exps)
        scores = [e / total for e in exps]
    return Prediction(
        # the first maximum, as np.argmax breaks ties
        label=SentimentClass(scores.index(max(scores))),
        scores=np.array(scores),
        probabilistic=probabilistic,
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
    from .corpus import default_label_map

    slang = dict(slang if slang is not None else default_slang())
    leet = dict(leet if leet is not None else default_leet())
    check_tables(slang, leet)
    label_map = label_map if label_map is not None else default_label_map()

    split, space, X_train, y_train, X_test, y_test = featurized_split(
        records, test_fraction, seed, tfidf_config
    )
    model = train_model(kind, X_train, y_train, model_config)
    holdout = held_out_report(kind, model, X_test, y_test)

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
