"""What a bundle holds, and how one post is scored.

The sentiment classes; the five configs and the one check of their bounds;
the three fitted classifiers and `forward` through their layers; a fitted
TF-IDF vocabulary and one document's row of it; the metadata scaler; a
held-out report; and `LEARNERS`, the one table the rest of the package
reads for what differs between the three classifiers. Nothing here trains,
and numpy is imported only inside the functions that compute on arrays, so
serving a logreg or SVM bundle loads neither numpy nor scipy.
"""

from __future__ import annotations

import functools
import math
import sys
import typing
from collections import Counter
from dataclasses import dataclass, field, fields
from enum import IntEnum
from itertools import repeat
from operator import itemgetter, mul, truediv
from typing import TYPE_CHECKING, ClassVar

from .errors import DataError, SentigaError

if TYPE_CHECKING:
    import numpy as np


class SentimentClass(IntEnum):
    """Operational sentiment classes; the ordinal order is used everywhere
    class indices appear (rows of weight matrices, confusion axes, ...)."""

    NEGATIVE = 0
    NEUTRAL = 1
    POSITIVE = 2

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def parse(cls, name: str) -> "SentimentClass":
        try:
            return cls[name.strip().upper()]
        except KeyError:
            raise DataError(f"unknown sentiment class: {name!r}") from None


CLASS_NAMES = tuple(c.label for c in SentimentClass)
N_CLASSES = len(SentimentClass)


def _engagement(retweets: int, likes: int) -> int:
    """retweets + likes, the engagement feature of training and serving."""
    engagement = retweets + likes
    if engagement > sys.float_info.max:
        raise DataError("retweets + likes is beyond the range of a float feature")
    return engagement


# Each bound a config's `bounds` may name, other than a tuple of the
# supported values: the name is how its error message reads.
_BOUNDS = {
    "positive": lambda v: v > 0,
    "non-negative": lambda v: v >= 0,
    "at least 1": lambda v: v >= 1,
    "in (0, 1)": lambda v: 0 < v < 1,
    "in (0, 1]": lambda v: 0 < v <= 1,
    "one or more positive widths": lambda v: len(v) > 0 and min(v) >= 1,
    "a pair lo,hi with 1 <= lo <= hi": lambda v: len(v) == 2 and 1 <= v[0] <= v[1],
}


_type_hints = functools.cache(typing.get_type_hints)  # of a config class


def _admits(hint, values) -> bool:
    """Whether the scalar type `hint` admits each of `values`, by the rule
    that configs and bundle payloads share: a float may be an int or a float;
    an int, bool or str must be exactly that type, so a bool is no int."""
    return set(map(type, values)) <= ({int, float} if hint is float else {hint})


def _finite(values) -> bool:
    """Whether each of `values`, ints or floats, is a finite float; an int
    beyond the range of a float is not."""
    try:
        return all(map(math.isfinite, values))
    except OverflowError:  # int too large to convert to float
        return False


def check_config(config) -> None:
    """Raise ValueError unless every field of `config` is of its type and
    within bounds. A field's type hint must admit its value (`_admits`; a
    tuple hint, a tuple of such entries; None wherever the hint allows it);
    a float must be finite (`_finite`; it is stored as a float), a `seed` non-negative
    as numpy requires, and each field that the class's `bounds` names within
    its bound there, a key of `_BOUNDS` or a tuple of the supported values."""
    hints, bounds = _type_hints(type(config)), config.bounds
    for f in fields(config):
        name, value, hint = f.name, getattr(config, f.name), hints[f.name]
        args = typing.get_args(hint)  # (X, None) of X | None; (X, ...) or (X, X) of a tuple
        if value is None and type(None) in args:
            continue
        tupled = typing.get_origin(hint) is tuple and type(value) is tuple
        if not _admits(args[0] if args else hint, value if tupled else [value]):
            hint = hint.__name__ if isinstance(hint, type) else hint  # int, not <class 'int'>
            raise ValueError(f"{name} must be of type {hint}, got {value!r}")
        if hint is float:
            if not _finite([value]):
                raise ValueError(f"{name} must be finite, got {value!r:.80}")
            object.__setattr__(config, name, float(value))  # C=2 reads back as C=2.0
        bound = bounds.get(name, "non-negative" if name == "seed" else None)
        if isinstance(bound, tuple):
            if value not in bound:
                raise ValueError(f"unsupported {name}: {value!r}")
        elif bound is not None and not _BOUNDS[bound](value):
            raise ValueError(f"{name} must be {bound}, got {value}")


class _Config:
    """The base of the five configs: each subclass is a frozen dataclass, and
    `check_config` checks each one built against the `bounds` beside its
    fields."""

    def __init_subclass__(cls):
        dataclass(frozen=True)(cls)

    def __post_init__(self):
        check_config(self)


class SplitConfig(_Config):
    """The held-out split; its seed also seeds a model whose config is not given."""

    seed: int = 42
    test_fraction: float = 0.2

    bounds: ClassVar = {"test_fraction": "in (0, 1)"}


class TfidfConfig(_Config):
    max_features: int = 3000
    min_df: int = 2          # absolute document count
    max_df: float = 0.9      # fraction of documents
    ngram_range: tuple[int, int] = (1, 2)
    sublinear_tf: bool = True

    bounds: ClassVar = {"max_features": "at least 1", "min_df": "at least 1",
                        "max_df": "in (0, 1]", "ngram_range": "a pair lo,hi with 1 <= lo <= hi"}


class LogRegConfig(_Config):
    C: float = 2.0
    class_weight: str | None = "balanced"
    solver: str = "lbfgs"
    max_iter: int = 2000
    tol: float = 1e-6
    seed: int = 42

    bounds: ClassVar = {"C": "positive", "class_weight": ("balanced",), "solver": ("lbfgs",),
                        "max_iter": "at least 1", "tol": "positive"}


class MlpConfig(_Config):
    hidden_layer_sizes: tuple[int, ...] = (256, 64)
    activation: str = "relu"
    solver: str = "adam"
    alpha: float = 1e-4
    learning_rate_init: float = 1e-3
    max_iter: int = 60
    early_stopping: bool = True
    validation_fraction: float = 0.1
    patience: int = 10
    improvement_tol: float = 1e-4
    batch_size: int | None = None  # None -> min(200, n)
    seed: int = 42

    bounds: ClassVar = {
        "hidden_layer_sizes": "one or more positive widths", "activation": ("relu",),
        "solver": ("adam",), "alpha": "non-negative", "learning_rate_init": "non-negative",
        "max_iter": "at least 1", "validation_fraction": "in (0, 1)",
        "patience": "non-negative", "improvement_tol": "non-negative", "batch_size": "at least 1",
    }


class LinearSvmConfig(_Config):
    regularization: float = 1.0
    epochs: int = 200
    seed: int = 42

    bounds: ClassVar = {"regularization": "positive", "epochs": "at least 1"}


@dataclass
class _LinearModel:
    """A classifier of one (W, b) layer: a row of W and a bias per class."""

    W: np.ndarray            # (3, D)
    b: np.ndarray            # (3,)

    @property
    def layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return [(self.W.T, self.b)]


@dataclass
class LogRegModel(_LinearModel):
    config: LogRegConfig
    n_iter_: int = 0
    objective_history_: list[float] = field(default_factory=list)


@dataclass
class MlpModel:
    weights: list[np.ndarray]   # [(D,H1), (H1,H2), (H2,3)]
    biases: list[np.ndarray]
    config: MlpConfig
    n_epochs_: int = 0
    best_epoch_: int = 0
    validation_scores_: list[float] = field(default_factory=list)
    loss_curve_: list[float] = field(default_factory=list)

    @property
    def layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return list(zip(self.weights, self.biases, strict=True))


@dataclass
class LinearSvmModel(_LinearModel):
    config: LinearSvmConfig


def _check_features(model_dim: int, n_features: int) -> None:
    if n_features != model_dim:
        raise DataError(
            f"model expects {model_dim} features, got {n_features}"
        )


# Row max and row sum over the N_CLASSES columns of a score matrix, folded
# one column at a time: the same bits as `max(axis=1)` and `sum(axis=1)`,
# which also go left to right over so few columns, at a fraction of the cost
# of numpy's strided row reduction. The row sum is `_left_sum(scores.T)`:
# like numpy's sum it starts from +0.0, so a row of -0.0 sums to 0.0.

def _row_max(scores: np.ndarray) -> np.ndarray:
    import numpy as np

    return functools.reduce(np.maximum, scores.T)


def softmax(scores: np.ndarray) -> np.ndarray:
    import numpy as np

    shifted = scores - _row_max(scores)[:, None]
    exp = np.exp(shifted)
    return exp / _left_sum(exp.T)[:, None]


def forward(layers, X) -> np.ndarray:
    """Scores before any softmax: x @ W + b for each (W, b) of `layers`,
    ReLU between layers. X is one row (1-d) or a batch of rows."""
    import numpy as np

    (W, b), *rest = layers
    scores = np.asarray(X @ W) + b
    for W, b in rest:
        np.maximum(scores, 0.0, out=scores)
        scores = np.asarray(scores @ W) + b
    return scores


NUMERIC_FEATURE_NAMES = ("word_count", "engagement", "hashtag_count")


def extract_terms(doc: str, ngram_range: tuple[int, int]) -> list[str]:
    """Unigrams and n-grams of whitespace tokens; n-grams are the tokens
    joined by a single space."""
    tokens = doc.split()
    lo, hi = ngram_range
    terms: list[str] = []
    for n in range(lo, min(hi, len(tokens)) + 1):  # no n-gram is longer than the document
        terms += tokens if n == 1 else map(" ".join, zip(*[tokens[i:] for i in range(n)]))
    return terms


@dataclass
class TfidfModel:
    vocabulary: dict[str, int]   # term -> dense column index, lexicographic
    idf: np.ndarray              # (V,), aligned with vocabulary indices
    config: TfidfConfig
    # term -> (column, idf as a Python float), what tfidf_row looks up; derived
    # from `vocabulary` and `idf`, so bundles do not store it
    columns_: dict[str, tuple[int, float]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_vocabulary(self.vocabulary, self.idf.shape)
        self.columns_ = _term_columns(self.vocabulary, self.idf.tolist())

    @property
    def n_features(self) -> int:
        return len(self.vocabulary)


def _check_vocabulary(vocabulary: dict[str, int], idf_shape: tuple[int, ...]) -> None:
    """Raise ValueError unless the vocabulary's columns are 0..V-1, each once,
    and the IDF has the shape (V,)."""
    n_terms = len(vocabulary)
    if idf_shape != (n_terms,) or sorted(vocabulary.values()) != list(range(n_terms)):
        raise ValueError(
            f"a vocabulary column is missing, repeated or outside 0..{n_terms - 1}, "
            f"or the IDF shape {idf_shape} is not ({n_terms},)"
        )


def _term_columns(vocabulary: dict[str, int], idf: list[float]) -> dict[str, tuple[int, float]]:
    """term -> (column, idf), what `tfidf_row` looks up."""
    return {term: (col, idf[col]) for term, col in vocabulary.items()}


def _left_sum(terms, total=0.0):
    """`total` plus the terms, added left to right with one rounding per
    addition: of floats, or elementwise of arrays. ``sum`` of floats is
    compensated from CPython 3.12 on, so it would round differently there."""
    for term in terms:
        total = total + term
    return total


def _term_frequency(count: int, sublinear: bool) -> float:
    """The weight of a term seen `count` times in a document, before its idf."""
    return 1.0 + math.log(count) if sublinear else float(count)


def tfidf_row(columns: dict[str, tuple[int, float]], config: TfidfConfig,
              doc: str) -> tuple[list[int], list[float]]:
    """One document's TF-IDF row as (ascending column indices, weights):
    (1 + ln c) * idf per term of `columns` (`_term_columns`), L2-normalized.
    All-OOV or empty documents give two empty lists."""
    hits = sorted(filter(None, map(columns.get, extract_terms(doc, config.ngram_range))))
    row = dict(hits)  # column -> idf, ascending
    if len(row) < len(hits):  # a repeated term: weigh each column by its count
        counts, sublinear = Counter(map(itemgetter(0), hits)), config.sublinear_tf
        row = {col: _term_frequency(counts[col], sublinear) * idf for col, idf in row.items()}
    # a term seen once weighs exactly its idf: (1 + ln 1) * idf == 1.0 * idf
    weights = list(row.values())
    norm = math.sqrt(_left_sum(map(mul, weights, weights)))
    if norm > 0:
        weights = list(map(truediv, weights, repeat(norm)))
    return list(row), weights


@dataclass
class Scaler:
    """Per-column standardizer with population statistics (divisor n)."""

    means: np.ndarray
    stds: np.ndarray
    # the divisors: a zero std marks a constant column, which maps to 0 at
    # transform; derived from `stds`, so bundles do not store it
    safe_stds_: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        import numpy as np

        self.safe_stds_ = np.array(_safe_stds(self.stds.tolist()), dtype=float)


def _safe_stds(stds: list[float]) -> list[float]:
    """The scaler's divisors: a std, or 1.0 where it is 0 (a constant column)."""
    return [std or 1.0 for std in stds]


def _whole(values, what: str, ndim: int = 1) -> np.ndarray:
    """`values` as an `ndim`-d int array; DataError unless each is a whole
    number that an int64 holds: NaN, 2.5, 1e19, 2**70, "1" and rows of
    unequal lengths are refused."""
    import numpy as np

    try:
        array = np.asarray(values)
    except ValueError:  # numpy: "... has an inhomogeneous shape ..."
        raise DataError(f"{what} must be {ndim}-d, got rows of unequal lengths") from None
    if array.ndim != ndim:
        raise DataError(f"{what} must be {ndim}-d, got shape {array.shape}")
    if array.dtype.kind not in "biuf" or not np.all(
        (array == np.trunc(array)) & (np.abs(array) < 2.0**63)
    ):
        raise DataError(f"{what} must be whole numbers, got {array.tolist()!r:.80}")
    return array.astype(int)


def _check_counts(counts) -> np.ndarray:
    """`counts` as a 3x3 int array, counts[i][j] = samples with true class i
    predicted as class j; DataError unless whole, 3x3 and non-negative."""
    import numpy as np

    counts = _whole(counts, "confusion counts", 2)
    if counts.shape != (N_CLASSES, N_CLASSES):
        raise DataError(f"expected a {N_CLASSES}x{N_CLASSES} matrix, got {counts.shape}")
    if np.any(counts < 0):
        raise DataError("confusion counts must be non-negative")
    return counts


@dataclass
class ClassMetrics:
    name: str
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class EvalReport:
    confusion: np.ndarray        # (3, 3) ints, as `_check_counts` returns them
    per_class: list[ClassMetrics]
    accuracy: float
    macro_f1: float
    weighted_f1: float

    def __post_init__(self):
        self.confusion = _check_counts(self.confusion)


@dataclass(frozen=True)
class Learner:
    """What the rest of the package knows about one kind of classifier.

    Training and batch prediction are held by name, `train` and `predict`,
    and looked up on `sentiga.learners` at call time, so a replaced attribute
    of that module is the one called.
    """

    config: type                # its config dataclass
    model: type                 # its fitted-model dataclass; `forward` applies
                                # the (W, b) pairs of `model.layers`
    train: str                  # train(X, y, config) -> model
    predict: str                # predict(model, X) -> class ordinals
    probabilistic: bool         # scores are softmax probabilities
    display: str
    family: str


LEARNERS = {
    "logreg": Learner(LogRegConfig, LogRegModel, "train_logreg", "predict_logreg",
                      True, "Logistic Regression", "Classical ML"),
    "mlp": Learner(MlpConfig, MlpModel, "train_mlp", "predict_mlp",
                   True, "MLPClassifier", "Neural baseline"),
    "svm": Learner(LinearSvmConfig, LinearSvmModel, "train_linear_svm", "predict_svm",
                   False, "Linear SVM", "Classical ML"),
}


def get_learner(kind: str) -> Learner:
    try:
        return LEARNERS[kind]
    except KeyError:
        raise SentigaError(f"unknown model kind: {kind!r}") from None


def public_name(field: str) -> str:
    """A config field's name in its override flag and the hyperparameter table."""
    return "random_state" if field == "seed" else field
