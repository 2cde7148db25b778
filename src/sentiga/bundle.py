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

Loading checks the payload in plain Python before any numpy array is made,
and a logistic-regression or SVM bundle scores a post from plain Python
data (`Serving`), so `sentiga predict` on one imports no numpy.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import os
import types
import typing
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .errors import BundleError, DataError, SentigaError, TrainingError
from .model import (LEARNERS, N_CLASSES, NUMERIC_FEATURE_NAMES, EvalReport, Scaler,
                    SentimentClass, SplitConfig, TfidfConfig, TfidfModel, _admits,
                    _check_features, _check_vocabulary, _Config, _engagement, _finite,
                    _left_sum, _LinearModel, _safe_stds, _term_columns, forward, get_learner,
                    tfidf_row)
from .textnorm import check_tables, default_leet, default_slang, pairs_digest, post_cleaner

if TYPE_CHECKING:
    import numpy as np

    from .corpus import CleanRecord, LabelMap
    from .features import HybridFeatureSpace

FORMAT_VERSION = 1
_MAGIC = "SENTIGA-BUNDLE"


# --------------------------------------------------------------------------
# canonical encoding
# --------------------------------------------------------------------------

def _encode(value) -> str:
    import numpy as np

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


class _Array(NamedTuple):
    """A JSON array of numbers as `_decode` checks it: the payload's lists,
    nested one per dimension, their shape, and their entries in order."""

    lists: list
    shape: tuple[int, ...]
    entries: list


class _Fields(dict):
    """A dataclass's decoded fields, by name; `_build` makes the dataclass."""

    def __init__(self, cls: type, decoded: dict):
        super().__init__(decoded)
        self.cls = cls


# the payload's classes name arrays `np.ndarray`; read as `_Array`, their
# hints resolve without numpy, which only `_build` imports
_ARRAY_NAMESPACE = {"np": types.SimpleNamespace(ndarray=_Array)}


@functools.cache
def _hints(cls: type) -> dict:
    return typing.get_type_hints(cls, localns=_ARRAY_NAMESPACE)


def _decode(hint, value):
    """Check a value of the declared type `hint` in its JSON form, in plain
    Python: a config is built, which checks its bounds; another dataclass
    becomes the `_Fields` of its decoded fields, an array an `_Array`.

    The payload writes 2.0 as 2 and tuples as lists, so a float takes any
    finite JSON number and a tuple a list; an int, bool or str must be a JSON
    value of exactly that type, so 2.5 or true is no int, and an array entry
    a JSON number, so "1.5" or true is no entry. The entries of a dict, list
    or array of scalars are checked together, not one call each; a dict is
    the vocabulary, str -> int, or a table, str -> str.
    """
    if is_dataclass(hint):
        hints = _hints(hint)
        decoded = {f.name: _decode(hints[f.name], value[f.name]) for f in _persisted(hint)}
        return hint(**decoded) if issubclass(hint, _Config) else _Fields(hint, decoded)
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
    if hint is _Array:
        return _array(value)
    return _scalars(hint, [value])[0]


_SCALARS = (int, bool, str, float)


def _scalars(hint, values) -> list:
    """`values` decoded as `hint`, one of _SCALARS, by the rule a config's
    fields obey (`model._admits`); a float must also be finite (`model._finite`)."""
    values = list(values)
    if not _admits(hint, values):
        raise TypeError(f"expected {hint.__name__} values, got {values!r:.80}")
    if hint is float:
        if not _finite(values):
            raise ValueError(f"expected finite numbers, got {values!r:.80}")
        return [float(v) for v in values]
    return values


def _array(value) -> _Array:
    """`value` as an `_Array`: nested lists, all of one length at each depth,
    around JSON numbers."""
    if type(value) is not list:
        raise TypeError(f"expected an array of numbers, got {value!r:.80}")
    shape, entries = [], [value]
    while entries and type(entries[0]) is list:
        lengths = set(map(len, entries))
        if len(lengths) > 1:
            raise ValueError(f"expected an array, got lists of lengths {sorted(lengths)}")
        shape.append(lengths.pop())
        entries = list(itertools.chain.from_iterable(entries))
    kinds = set(map(type, entries))
    if not kinds <= {int, float}:
        names = sorted(kind.__name__ for kind in kinds)
        raise TypeError(f"expected an array of numbers, got entries of type {names}")
    return _Array(value, tuple(shape), entries)


def _build(value):
    """`value`, as `_decode` returns it, with each `_Fields` made its
    dataclass and each `_Array` a float array."""
    import numpy as np

    if isinstance(value, _Fields):
        return value.cls(**{name: _build(v) for name, v in value.items()})
    if isinstance(value, _Array):
        return np.array(value.lists, dtype=float)
    if type(value) is list:
        return [_build(v) for v in value]
    return value


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

    def __post_init__(self):
        SplitConfig(self.seed, self.test_fraction)  # the split's bounds

    @functools.cached_property
    def serving_(self) -> Serving:
        """What `predict` reads: the cleaner of the tables, a token memo that
        fills as the bundle serves, and the fitted parts as plain Python
        data. Derived from the stored fields on first use, so bundles do not
        store it and a bundle that never serves does not hold it."""
        model = self.classifier
        if isinstance(model, _LinearModel):
            classifier = {"weights": list(zip(*model.W.tolist())), "bias": tuple(model.b.tolist())}
        else:
            classifier = {"layers": model.layers}
        return Serving(
            LEARNERS[self.kind].probabilistic, post_cleaner(self.slang, self.leet),
            self.tfidf.config, self.tfidf.columns_,
            self.scaler.means.tolist(), self.scaler.safe_stds_.tolist(), **classifier,
        )

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
    return _load(path, _build)


def load_serving(path: str | Path) -> Serving:
    """The `Serving` of the bundle file at `path`, checked as `load_bundle`
    checks it. A logreg or SVM bundle's is built from the payload's lists,
    without numpy; an MLP bundle's is that of its `load_bundle`."""
    return _load(path, lambda fields: _linear_serving(fields)
                 if issubclass(fields["classifier"].cls, _LinearModel) else _build(fields).serving_)


def _load(path: str | Path, make: Callable[[_Fields], object]):
    """`make` of the checked fields of the bundle file at `path`; BundleError
    if the file is not a bundle or its payload is malformed."""
    path = Path(path)
    data = _read_payload(path)
    try:
        return make(_checked(data))
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError, DataError) as exc:
        raise BundleError(f"{path}: malformed payload: {exc!r}") from None


def _read_payload(path: Path) -> dict:
    """The parsed payload of the bundle file at `path`, once its header and
    checksum hold."""
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
        return json.loads(payload_text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise BundleError(f"{path}: unparseable payload: {exc}") from None


def _checked(data: dict) -> _Fields:
    """The payload's `ModelBundle` fields, decoded by their type hints (the
    classifier by the model type of its kind), once every check a bundle
    makes holds: those of its dataclasses, `_check_arrays`, and the table
    digests. The tables are checked first, so a bad entry is the loaders'
    DataError rather than a decoding error. Plain Python throughout."""
    check_tables(data["slang"], data["leet"])
    hints = _hints(ModelBundle) | {"classifier": LEARNERS[data["kind"]].model}
    bundle = _Fields(ModelBundle, {f.name: _decode(hints[f.name], data[f.name])
                                   for f in _persisted(ModelBundle)})
    _check_vocabulary(bundle["tfidf"]["vocabulary"], bundle["tfidf"]["idf"].shape)
    if bundle["metrics_snapshot"] is not None:
        _check_confusion(bundle["metrics_snapshot"]["confusion"])
    SplitConfig(bundle["seed"], bundle["test_fraction"])
    _check_arrays(bundle)
    for table in ("slang", "leet"):
        if data[f"{table}_digest"] != pairs_digest(bundle[table]):
            raise ValueError(f"{table}_digest does not match the {table} table")
    return bundle


def _check_confusion(counts: _Array) -> None:
    """`model._check_counts` of the snapshot's counts, on the payload's lists."""
    if len(counts.shape) != 2:
        raise DataError(f"confusion counts must be 2-d, got shape {counts.shape}")
    if not _finite(counts.entries) or not all(
        v.is_integer() and abs(v) < 2.0**63 for v in map(float, counts.entries)
    ):
        raise DataError(f"confusion counts must be whole numbers, got {counts.lists!r:.80}")
    if counts.shape != (N_CLASSES, N_CLASSES):
        raise DataError(f"expected a {N_CLASSES}x{N_CLASSES} matrix, got {counts.shape}")
    if min(counts.entries) < 0:
        raise DataError("confusion counts must be non-negative")


def _check_arrays(bundle: _Fields) -> None:
    """Raise ValueError unless the scaler has one entry per numeric feature,
    the classifier's layers chain from V + 3 inputs (V vocabulary terms, whose
    columns and IDF `_checked` checks) to one score per class through the
    config's hidden widths, every vocabulary term has as many words as the
    config's `ngram_range` allows, and every entry of those arrays is finite
    (JSON parses NaN and Infinity, which a saved bundle never holds)."""
    tfidf, scaler, model = bundle["tfidf"], bundle["scaler"], bundle["classifier"]
    lo, hi = tfidf["config"].ngram_range
    words = {term.count(" ") + 1 for term in tfidf["vocabulary"]}
    outside = sorted(n for n in words if not lo <= n <= hi)
    if outside:
        raise ValueError(f"vocabulary has terms of {outside} words, outside ngram_range {lo},{hi}")
    n_numeric = len(NUMERIC_FEATURE_NAMES)
    for stats in (scaler["means"], scaler["stds"]):
        if stats.shape != (n_numeric,):
            raise ValueError(f"scaler has shape {stats.shape}, expected ({n_numeric},)")
    if issubclass(model.cls, _LinearModel):  # W holds the one layer's weights transposed
        layers = [(model["W"].shape[::-1], model["W"], model["b"])]
    else:
        layers = [(W.shape, W, b) for W, b in zip(model["weights"], model["biases"], strict=True)]
    width = len(tfidf["vocabulary"]) + n_numeric
    for shape, _, b in layers:
        if len(shape) != 2 or shape[0] != width or b.shape != (shape[1],):
            raise ValueError(
                f"classifier layer {shape} with bias {b.shape} does not take {width} inputs"
            )
        width = shape[1]
    if width != N_CLASSES:
        raise ValueError(f"classifier emits {width} scores, expected {N_CLASSES}")
    hidden = tuple(shape[1] for shape, _, _ in layers[:-1])
    declared = getattr(model["config"], "hidden_layer_sizes", ())
    if hidden != declared:
        raise ValueError(f"classifier has hidden widths {hidden}, its config declares {declared}")
    arrays = [tfidf["idf"], scaler["means"], scaler["stds"]]
    arrays += [a for _, W, b in layers for a in (W, b)]
    if not all(_finite(a.entries) for a in arrays):
        raise ValueError("a NaN or infinite entry in the IDF, scaler or classifier")


def _linear_serving(bundle: _Fields) -> Serving:
    """The `Serving` that a logreg or SVM `ModelBundle` of these checked
    fields would derive, built from the payload's lists: the same floats,
    with no numpy array made."""
    tfidf, scaler, model = bundle["tfidf"], bundle["scaler"], bundle["classifier"]
    idf, means, stds, bias = ([float(v) for v in a.entries]
                              for a in (tfidf["idf"], scaler["means"], scaler["stds"], model["b"]))
    return Serving(
        LEARNERS[bundle["kind"]].probabilistic, post_cleaner(bundle["slang"], bundle["leet"]),
        tfidf["config"], _term_columns(tfidf["vocabulary"], idf), means, _safe_stds(stds),
        weights=list(zip(*(map(float, row) for row in model["W"].lists))), bias=tuple(bias),
    )


# --------------------------------------------------------------------------
# inference
# --------------------------------------------------------------------------

@dataclass
class Prediction:
    label: SentimentClass
    scores: tuple[float, float, float]  # probabilities, or decision scores for SVM
    probabilistic: bool


@dataclass(eq=False)
class Serving:
    """What single-post prediction reads, built once per bundle as plain
    Python data: the cleaner of its tables, its vocabulary's term -> (column,
    idf) pairs and TF-IDF config, and the scaler's means and divisors. A
    logreg or SVM classifier is one (w_neg, w_neu, w_pos) tuple per input
    column and the bias, so scoring needs no numpy; an MLP's is its layers."""

    probabilistic: bool
    clean: Callable[[str], tuple[str, int, int]]  # raw post -> (text, words, hashtags)
    tfidf: TfidfConfig
    columns: dict[str, tuple[int, float]]
    means: list[float]
    divisors: list[float]
    weights: list[tuple[float, float, float]] | None = None
    bias: tuple[float, float, float] | None = None
    layers: list | None = None          # `model.forward`'s (W, b) pairs

    def scores(self, raw_text: str, retweets: int = 0, likes: int = 0) -> list[float]:
        """The post's class scores before any softmax.

        No feature matrix is built: the post's feature vector holds its
        TF-IDF weights followed by the scaled numeric features, and only the
        weights of those columns are read. Text that cleans to the empty
        string still yields scores from the numeric features alone.
        """
        if retweets < 0 or likes < 0:
            raise DataError(
                f"retweets and likes must be non-negative, got {retweets} and {likes}"
            )
        # cleaned and counted as prepare_corpus does for training
        text, word_count, hashtag_count = self.clean(raw_text)
        counts = (word_count, _engagement(retweets, likes), hashtag_count)
        cols, x = tfidf_row(self.columns, self.tfidf, text)
        # the scaled metadata as transform_scaler computes it, in Python floats
        x += [(v - m) / s for v, m, s in zip(counts, self.means, self.divisors)]
        if not all(map(math.isfinite, x)):
            raise TrainingError("feature vector contains non-finite values")
        n_terms = len(self.columns)
        cols += range(n_terms, n_terms + len(counts))
        if self.layers is not None:
            (W, b), *rest = self.layers
            _check_features(W.shape[0], n_terms + len(counts))
            return forward([(W.take(cols, 0), b), *rest], x).tolist()
        _check_features(len(self.weights), n_terms + len(counts))
        # x @ W.T + b as scipy's CSR product adds it: each score from 0.0,
        # plus x_j * w_j over ascending columns, then the bias
        neg = neu = pos = 0.0
        weights = self.weights
        for j, v in zip(cols, x):
            w_neg, w_neu, w_pos = weights[j]
            neg += v * w_neg
            neu += v * w_neu
            pos += v * w_pos
        b_neg, b_neu, b_pos = self.bias
        return [neg + b_neg, neu + b_neu, pos + b_pos]

    def predict(self, raw_text: str, retweets: int = 0, likes: int = 0) -> Prediction:
        scores = self.scores(raw_text, retweets, likes)
        if self.probabilistic:  # model.softmax, one row
            top = max(scores)
            exps = [math.exp(s - top) for s in scores]
            total = _left_sum(exps)
            scores = [e / total for e in exps]
        # the first maximum, as np.argmax breaks ties
        return Prediction(SentimentClass(scores.index(max(scores))), tuple(scores),
                          self.probabilistic)


def predict(
    bundle: ModelBundle, raw_text: str, retweets: int = 0, likes: int = 0
) -> Prediction:
    """Run the full inference pipeline on one raw post (`Serving.predict`)."""
    return bundle.serving_.predict(raw_text, retweets, likes)


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
