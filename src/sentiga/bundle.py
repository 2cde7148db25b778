"""Self-contained model bundles: persistence and inference.

A bundle is a single text file:

    SENTIGA-BUNDLE v<format version, 1..FORMAT_VERSION>
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
import types
import typing
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import BundleError, DataError, SentigaError, TrainingError
from .model import (LEARNERS, N_CLASSES, NUMERIC_FEATURE_NAMES, EvalReport, Scaler, SentimentClass,
                    SplitConfig, TfidfConfig, TfidfModel, _admits, _check_features, _engagement,
                    _left_sum, forward, get_learner, tfidf_row)
from .textnorm import check_tables, default_leet, default_slang, pairs_digest, post_cleaner

if TYPE_CHECKING:
    from .corpus import CleanRecord, LabelMap
    from .features import HybridFeatureSpace

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
    training diagnostics or what is derived from the stored fields."""
    return [f for f in fields(cls) if not f.name.endswith("_")]


def _decode(hint, value):
    """Rebuild a value of the declared type `hint` from its JSON form.

    The payload writes 2.0 as 2 and tuples as lists, so a float takes any
    finite JSON number and a tuple a list; an int, bool or str must be a JSON
    value of exactly that type, so 2.5 or true is no int, and an array entry
    a JSON number, so "1.5" or true is no entry. A dataclass is rebuilt field
    by field from its type hints; the entries of a dict, list or array of
    scalars are checked together, not one call each; a dict is the
    vocabulary, str -> int, or a table, str -> str.
    """
    if is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        return hint(**{f.name: _decode(hints[f.name], value[f.name]) for f in _persisted(hint)})
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        return _decode(next(a for a in args if a is not type(None)), value)
    if origin is dict:  # JSON object keys are strings
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
    """`values` decoded as `hint`, one of _SCALARS, by the rule a config's
    fields obey (`model._admits`); a float must also be finite."""
    values = list(values)
    if not _admits(hint, values):
        raise TypeError(f"expected {hint.__name__} values, got {values!r:.80}")
    if hint is float:
        if not all(map(math.isfinite, values)):
            raise ValueError(f"expected finite numbers, got {values!r:.80}")
        return [float(v) for v in values]
    return values


# --------------------------------------------------------------------------
# bundle model
# --------------------------------------------------------------------------

@dataclass(eq=False)
class ModelBundle:
    """Everything needed to turn one raw post into a prediction. Bundles
    compare by identity: a bundle's value is its saved bytes."""

    kind: str                       # a key of model.LEARNERS
    seed: int
    test_fraction: float
    slang: dict[str, str]
    leet: dict[str, str]
    label_map_digest: str
    tfidf: TfidfModel
    scaler: Scaler
    classifier: object
    metrics_snapshot: EvalReport | None = None
    # raw post -> (clean text, word count, hashtag count) for predict:
    # `textnorm.post_cleaner` of the tables, a token memo that fills as the
    # bundle serves; derived from the tables, so bundles do not store it
    clean_: Callable[[str], tuple[str, int, int]] = field(init=False, repr=False)

    def __post_init__(self):
        SplitConfig(self.seed, self.test_fraction)  # the split's bounds
        self.clean_ = post_cleaner(self.slang, self.leet)

    @property
    def slang_digest(self) -> str:
        return pairs_digest(self.slang)

    @property
    def leet_digest(self) -> str:
        return pairs_digest(self.leet)


def save_bundle(bundle: ModelBundle, path: str | Path) -> None:
    """Serialize deterministically and write atomically (temp file + rename)."""
    payload = {f.name: getattr(bundle, f.name) for f in _persisted(bundle)} | {
        "slang_digest": bundle.slang_digest, "leet_digest": bundle.leet_digest
    }
    encoded = _encode(payload)
    checksum = hashlib.sha256(encoded.encode("utf-8")).hexdigest()
    content = f"{_MAGIC} v{FORMAT_VERSION}\nsha256:{checksum}\n{encoded}\n"
    write_text_atomic(Path(path), content)


def write_text_atomic(path: Path, text: str) -> None:
    """Write `text` as UTF-8 through a temp file in the same directory and an
    atomic rename, so a failed write never leaves a partial file behind. The
    file gets the mode `open()` gives: 0o666 less the umask."""
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        # O_EXCL: never another's file; the kernel applies the umask to 0o666
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:  # name the file asked for, not the temp file
        raise OSError(exc.errno, exc.strerror, str(path)) from None


def load_bundle(path: str | Path) -> ModelBundle:
    path = Path(path)
    if not path.exists():
        raise BundleError(f"no such bundle: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise BundleError(f"{path}: not UTF-8 text: {exc}") from None
    lines = text.split("\n", 2)
    if len(lines) < 3 or not lines[0].startswith(f"{_MAGIC} v"):
        raise BundleError(f"{path}: not a recognizable bundle")
    try:
        version = int(lines[0].removeprefix(f"{_MAGIC} v"))
    except ValueError:
        version = 0
    if version < 1:
        raise BundleError(f"{path}: malformed version header")
    if version > FORMAT_VERSION:
        raise BundleError(
            f"{path}: format version {version} is newer than supported {FORMAT_VERSION}"
        )
    if not lines[1].startswith("sha256:"):
        raise BundleError(f"{path}: missing checksum header")
    expected = lines[1].removeprefix("sha256:")
    payload_text = lines[2].rstrip("\n")
    actual = hashlib.sha256(payload_text.encode("utf-8")).hexdigest()
    if actual != expected:
        raise BundleError(f"{path}: checksum mismatch, bundle is corrupt")

    try:
        data = json.loads(payload_text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise BundleError(f"{path}: unparseable payload: {exc}") from None

    try:
        bundle = _bundle_from_payload(data)
        _check_arrays(bundle)
        for table in ("slang", "leet"):
            if data[f"{table}_digest"] != getattr(bundle, f"{table}_digest"):
                raise ValueError(f"{table}_digest does not match the {table} table")
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError, DataError) as exc:
        raise BundleError(f"{path}: malformed payload: {exc!r}") from None
    return bundle


def _bundle_from_payload(data: dict) -> ModelBundle:
    """Decode each `ModelBundle` field by its type hint, the classifier by
    the model type of its kind. The tables are checked first, so a bad entry
    is the loaders' DataError rather than a decoding error."""
    check_tables(data["slang"], data["leet"])
    hints = typing.get_type_hints(ModelBundle)
    hints["classifier"] = LEARNERS[data["kind"]].model
    return ModelBundle(
        **{f.name: _decode(hints[f.name], data[f.name]) for f in _persisted(ModelBundle)}
    )


def _check_arrays(bundle: ModelBundle) -> None:
    """Raise ValueError unless the scaler has one entry per numeric feature,
    the classifier's layers chain from V + 3 inputs (V vocabulary terms, whose
    columns and IDF `TfidfModel` checks) to one score per class through the
    config's hidden widths, every vocabulary term has as many words as the
    config's `ngram_range` allows, and every entry of those arrays is finite
    (JSON parses NaN and Infinity, which a saved bundle never holds)."""
    lo, hi = bundle.tfidf.config.ngram_range
    words = {term.count(" ") + 1 for term in bundle.tfidf.vocabulary}
    outside = sorted(n for n in words if not lo <= n <= hi)
    if outside:
        raise ValueError(f"vocabulary has terms of {outside} words, outside ngram_range {lo},{hi}")
    n_terms = bundle.tfidf.n_features
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
    if width != N_CLASSES:
        raise ValueError(f"classifier emits {width} scores, expected {N_CLASSES}")
    hidden = tuple(W.shape[1] for W, _ in bundle.classifier.layers[:-1])
    declared = getattr(bundle.classifier.config, "hidden_layer_sizes", ())
    if hidden != declared:
        raise ValueError(f"classifier has hidden widths {hidden}, its config declares {declared}")
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
        raise DataError(
            f"retweets and likes must be non-negative, got {retweets} and {likes}"
        )
    # cleaned and counted as prepare_corpus does for training
    text, word_count, hashtag_count = bundle.clean_(raw_text)
    counts = (word_count, _engagement(retweets, likes), hashtag_count)
    cols, x = tfidf_row(bundle.tfidf, text)
    # the scaled metadata as transform_scaler computes it, in Python floats
    scaler = bundle.scaler
    x += [
        (v - m) / s
        for v, m, s in zip(counts, scaler.means.tolist(), scaler.safe_stds_.tolist())
    ]
    if not all(map(math.isfinite, x)):
        raise TrainingError("feature vector contains non-finite values")

    n_terms = bundle.tfidf.n_features
    (W, b), *rest = bundle.classifier.layers
    _check_features(W.shape[0], n_terms + len(counts))
    cols += range(n_terms, n_terms + len(counts))
    # np.take first copies a matrix that is not C-contiguous; the logreg and
    # SVM layer is such a view (W.T), so its rows are taken as columns of W
    first = W.T.take(cols, 1).T if W.flags.f_contiguous else W.take(cols, 0)
    scores = forward([(first, b), *rest], x).tolist()
    probabilistic = LEARNERS[bundle.kind].probabilistic
    if probabilistic:  # model.softmax, one row
        top = max(scores)
        exps = [math.exp(s - top) for s in scores]
        total = _left_sum(exps)
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
    train_indices: np.ndarray
    test_indices: np.ndarray

    @property
    def holdout_report(self) -> EvalReport:
        return self.bundle.metrics_snapshot

    @property
    def space(self) -> HybridFeatureSpace:
        from .features import HybridFeatureSpace

        return HybridFeatureSpace(self.bundle.tfidf, self.bundle.scaler)


def train_bundle(
    records: Sequence[CleanRecord],
    kind: str = "logreg",
    model_config=None,
    tfidf_config: TfidfConfig = TfidfConfig(),
    label_map: LabelMap | None = None,
    slang: dict[str, str] | None = None,
    leet: dict[str, str] | None = None,
    split: SplitConfig = SplitConfig(),
) -> TrainResult:
    """Stratified split, fit the feature space on the training part only,
    train one classifier (`model_config`, else `kind`'s default seeded by the
    split), evaluate on the held-out part, and bundle it with the snapshot.
    The kind and its config are checked before any data is touched."""
    from . import evaluation
    from .corpus import default_label_map

    learner = get_learner(kind)
    if model_config is not None and not isinstance(model_config, learner.config):
        raise SentigaError(
            f"model kind {kind!r} takes a {learner.config.__name__}, "
            f"got a {type(model_config).__name__}"
        )
    slang = dict(slang if slang is not None else default_slang())
    leet = dict(leet if leet is not None else default_leet())
    check_tables(slang, leet)
    label_map = label_map if label_map is not None else default_label_map()

    indices, space, X_train, y_train, X_test, y_test = evaluation.featurized_split(
        records, split, tfidf_config
    )
    if model_config is None:
        model_config = evaluation.seeded_config(kind, split)
    model = evaluation.train_model(kind, X_train, y_train, model_config)
    bundle = ModelBundle(
        kind=kind,
        seed=split.seed,
        test_fraction=split.test_fraction,
        slang=slang,
        leet=leet,
        label_map_digest=label_map.digest(),
        tfidf=space.tfidf,
        scaler=space.scaler,
        classifier=model,
        metrics_snapshot=evaluation.held_out_report(kind, model, X_test, y_test),
    )
    return TrainResult(bundle, indices.train_indices, indices.test_indices)
