"""Stratified splitting, classification metrics, and the benchmark harness.

Per-class test counts come from round-half-up of n_c * fraction, realized
through largest-remainder allocation so the totals stay consistent; class
membership is drawn by a seeded shuffle, making splits fully deterministic.
Metric conventions: zero denominators yield 0 rather than an error, so the
harness survives degenerate models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import learners
from .corpus import CLASS_NAMES, CleanRecord
from .errors import (
    DataError,
    EmptyCorpusError,
    EmptyEvaluationError,
    ShapeMismatchError,
    StratificationError,
    TrainingError,
)
from .features import HybridFeatureSpace, TfidfConfig, fit_feature_space

N_CLASSES = len(CLASS_NAMES)


@dataclass
class SplitIndex:
    train_indices: np.ndarray
    test_indices: np.ndarray


def _per_class_test_counts(counts: np.ndarray, fraction: float) -> np.ndarray:
    """Largest-remainder allocation toward the round-half-up per-class quota."""
    quotas = counts * fraction
    target = int(sum(np.floor(q + 0.5) for q in quotas))
    allocated = np.floor(quotas).astype(int)
    remainders = quotas - allocated
    # hand out the remaining units by descending remainder, ties by ordinal
    order = sorted(range(len(counts)), key=lambda c: (-remainders[c], c))
    for c in order[: target - allocated.sum()]:
        allocated[c] += 1
    return allocated


def stratified_split(
    labels: Sequence[int] | np.ndarray,
    test_fraction: float,
    seed: int | np.random.Generator = 42,
) -> SplitIndex:
    """Partition indices per class, preserving class proportions.

    Deterministic given (labels, fraction, seed); two seeds give identical
    per-class counts but generally different memberships.
    """
    if not 0 < test_fraction < 1:
        raise StratificationError(f"test_fraction must be in (0, 1), got {test_fraction}")
    y = np.asarray([int(v) for v in labels])
    classes = np.unique(y)
    counts = np.array([int(np.sum(y == c)) for c in classes])
    if not len(classes):
        raise EmptyCorpusError("no records to split")
    if np.any(counts < 2):
        small = classes[counts < 2]
        raise StratificationError(f"classes with fewer than 2 members: {small.tolist()}")

    rng = np.random.default_rng(seed)
    test_counts = _per_class_test_counts(counts, test_fraction)
    train_parts, test_parts = [], []
    for cls, n_test in zip(classes, test_counts):
        members = np.flatnonzero(y == cls)
        members = members[rng.permutation(len(members))]
        test_parts.append(members[:n_test])
        train_parts.append(members[n_test:])
    return SplitIndex(
        train_indices=np.sort(np.concatenate(train_parts)),
        test_indices=np.sort(np.concatenate(test_parts)),
    )


@dataclass
class ConfusionMatrix:
    """counts[i][j] = samples with true class i predicted as class j."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts)
        # a float count must be whole and castable: NaN, 2.5 or 1e19 are refused
        if counts.dtype.kind == "f" and not np.all(
            (counts == np.trunc(counts)) & (np.abs(counts) < 2.0**63)
        ):
            raise DataError(f"confusion counts must be whole numbers, got {counts.tolist()}")
        self.counts = counts.astype(int)
        if self.counts.shape != (N_CLASSES, N_CLASSES):
            raise ShapeMismatchError(
                f"expected a {N_CLASSES}x{N_CLASSES} matrix, got {self.counts.shape}"
            )
        if np.any(self.counts < 0):
            raise ShapeMismatchError("confusion counts must be non-negative")

    @property
    def supports(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion(y_true, y_pred) -> ConfusionMatrix:
    y_true = np.asarray([int(v) for v in y_true])
    y_pred = np.asarray([int(v) for v in y_pred])
    if y_true.shape != y_pred.shape:
        raise ShapeMismatchError(
            f"length mismatch: {y_true.shape[0]} true vs {y_pred.shape[0]} predicted"
        )
    counts = np.zeros((N_CLASSES, N_CLASSES), dtype=int)
    for t, p in zip(y_true, y_pred):
        counts[t, p] += 1
    return ConfusionMatrix(counts=counts)


@dataclass
class ClassMetrics:
    name: str
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class EvalReport:
    confusion: ConfusionMatrix
    per_class: list[ClassMetrics]
    accuracy: float
    macro_f1: float
    weighted_f1: float


def report(cm: ConfusionMatrix) -> EvalReport:
    """Per-class precision/recall/F1 plus accuracy, macro F1 and weighted F1.

    Zero denominators (a class absent from predictions or from the test
    set) contribute 0, never an exception.
    """
    counts = cm.counts
    total = cm.total
    if total == 0:
        raise EmptyEvaluationError("confusion matrix is all zero")

    diag = np.diag(counts).astype(float)
    col_sums = counts.sum(axis=0).astype(float)
    row_sums = counts.sum(axis=1).astype(float)

    per_class = []
    for c, name in enumerate(CLASS_NAMES):
        precision = diag[c] / col_sums[c] if col_sums[c] > 0 else 0.0
        recall = diag[c] / row_sums[c] if row_sums[c] > 0 else 0.0
        denom = precision + recall
        f1 = 2 * precision * recall / denom if denom > 0 else 0.0
        per_class.append(
            ClassMetrics(
                name=name,
                precision=precision,
                recall=recall,
                f1=f1,
                support=int(row_sums[c]),
            )
        )
    f1s = np.array([m.f1 for m in per_class])
    supports = np.array([m.support for m in per_class], dtype=float)
    return EvalReport(
        confusion=cm,
        per_class=per_class,
        accuracy=float(diag.sum() / total),
        macro_f1=float(f1s.mean()),
        weighted_f1=float((supports @ f1s) / total),
    )


# --------------------------------------------------------------------------
# benchmark harness
# --------------------------------------------------------------------------

MODEL_DISPLAY = {kind: (l.display, l.family) for kind, l in learners.LEARNERS.items()}


@dataclass
class BenchmarkRow:
    model: str
    family: str
    accuracy: float | None
    macro_f1: float | None
    weighted_f1: float | None
    failed: bool = False
    error: str | None = None
    report: EvalReport | None = field(default=None, repr=False)


def train_model(kind: str, X, y, config=None):
    learner = learners.get_learner(kind)
    # an overflow or NaN on the way (say C = 1e300) is a fit that diverged
    with np.errstate(over="raise", invalid="raise"):
        try:
            return getattr(learners, learner.train)(X, y, config or learner.config())
        except FloatingPointError as exc:
            raise TrainingError(f"{kind} training diverged: {exc}") from None


def predict_model(kind: str, model, X) -> np.ndarray:
    return getattr(learners, learners.get_learner(kind).predict)(model, X)


def featurized(space: HybridFeatureSpace, records: Sequence[CleanRecord]):
    """(X, y): the feature matrix of `records` in `space`, and their labels."""
    return space.featurize(records).to_csr(), np.array([int(r.label) for r in records])


def held_out_report(kind: str, model, X, y) -> EvalReport:
    """The report of `model`'s predictions on held-out features X, labels y."""
    return report(confusion(y, predict_model(kind, model, X)))


def featurized_split(
    records: Sequence[CleanRecord],
    test_fraction: float,
    seed: int,
    tfidf_config: TfidfConfig | None = None,
) -> tuple[SplitIndex, HybridFeatureSpace, object, np.ndarray, object, np.ndarray]:
    """Stratified split, then the feature space fitted on the training part
    only. Returns (split, space, X_train, y_train, X_test, y_test)."""
    split = stratified_split([r.label for r in records], test_fraction, seed)
    train_records = [records[i] for i in split.train_indices]
    test_records = [records[i] for i in split.test_indices]
    space = fit_feature_space(train_records, tfidf_config or TfidfConfig())
    return split, space, *featurized(space, train_records), *featurized(space, test_records)


def run_benchmark(
    records: Sequence[CleanRecord],
    seed: int = 42,
    test_fraction: float = 0.2,
    tfidf_config: TfidfConfig | None = None,
) -> list[BenchmarkRow]:
    """Train every learner of `learners.LEARNERS` on one shared stratified
    split and evaluate on the shared test part. A failing model yields a row
    flagged as failed; the remaining rows are still produced. Rows are sorted
    by accuracy descending, failed rows last."""
    _, _, X_train, y_train, X_test, y_test = featurized_split(
        records, test_fraction, seed, tfidf_config
    )

    rows = []
    for kind, learner in learners.LEARNERS.items():
        try:
            model = train_model(kind, X_train, y_train, learner.config(seed=seed))
            rep = held_out_report(kind, model, X_test, y_test)
            rows.append(
                BenchmarkRow(
                    model=learner.display,
                    family=learner.family,
                    accuracy=rep.accuracy,
                    macro_f1=rep.macro_f1,
                    weighted_f1=rep.weighted_f1,
                    report=rep,
                )
            )
        except Exception as exc:  # isolate per-model failures
            rows.append(
                BenchmarkRow(
                    model=learner.display,
                    family=learner.family,
                    accuracy=None,
                    macro_f1=None,
                    weighted_f1=None,
                    failed=True,
                    error=str(exc),
                )
            )
    return rank_rows(rows)


def rank_rows(rows: Sequence[BenchmarkRow]) -> list[BenchmarkRow]:
    """The rows by accuracy descending, failed rows last; ties keep their order."""
    return sorted(rows, key=lambda r: (r.failed, -(r.accuracy if r.accuracy is not None else 0.0)))


__all__ = [
    "SplitIndex",
    "stratified_split",
    "ConfusionMatrix",
    "confusion",
    "ClassMetrics",
    "EvalReport",
    "report",
    "BenchmarkRow",
    "run_benchmark",
    "rank_rows",
    "featurized",
    "featurized_split",
    "held_out_report",
    "train_model",
    "predict_model",
]
