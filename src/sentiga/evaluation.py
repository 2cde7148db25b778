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
from .corpus import CleanRecord
from .errors import DataError, SentigaError, TrainingError
from .features import HybridFeatureSpace, fit_feature_space
from .model import (CLASS_NAMES, LEARNERS, N_CLASSES, ClassMetrics, EvalReport, SplitConfig,
                    TfidfConfig, _check_counts, _whole, get_learner)


def seeded_config(kind: str, split: SplitConfig, **values):
    """Learner `kind`'s config with `values`, seeded by the split unless they give a seed."""
    return get_learner(kind).config(**{"seed": split.seed} | values)


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
    seed: int | np.random.Generator,
) -> SplitIndex:
    """Partition indices per class, preserving class proportions.

    Deterministic given (labels, fraction, seed); two seeds give identical
    per-class counts but generally different memberships.
    """
    if not 0 < test_fraction < 1:
        raise DataError(f"test_fraction must be in (0, 1), got {test_fraction}")
    y = _whole(labels, "class labels")
    classes = np.unique(y)
    counts = np.array([int(np.sum(y == c)) for c in classes])
    if not len(classes):
        raise DataError("no records to split")
    if np.any(counts < 2):
        small = classes[counts < 2]
        raise DataError(f"classes with fewer than 2 members: {small.tolist()}")

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


def confusion(y_true, y_pred) -> np.ndarray:
    """The 3x3 count array: [i][j] = samples with true class i predicted as class j."""
    y_true, y_pred = _whole(y_true, "class labels"), _whole(y_pred, "class labels")
    if y_true.shape != y_pred.shape:
        raise DataError(
            f"length mismatch: {y_true.shape[0]} true vs {y_pred.shape[0]} predicted"
        )
    outside = np.setdiff1d(np.concatenate([y_true, y_pred]), np.arange(N_CLASSES))
    if outside.size:
        raise DataError(f"class ordinals must be in 0..{N_CLASSES - 1}, got {outside.tolist()}")
    counts = np.bincount(y_true * N_CLASSES + y_pred, minlength=N_CLASSES * N_CLASSES)
    return counts.reshape(N_CLASSES, N_CLASSES)


def report(counts) -> EvalReport:
    """Per-class precision/recall/F1 plus accuracy, macro F1 and weighted F1
    of a 3x3 confusion matrix, any array-like of counts.

    Zero denominators (a class absent from predictions or from the test
    set) contribute 0, never an exception.
    """
    counts = _check_counts(counts)
    total = int(counts.sum())
    if total == 0:
        raise DataError("confusion matrix is all zero")

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
        confusion=counts,
        per_class=per_class,
        accuracy=float(diag.sum() / total),
        macro_f1=float(f1s.mean()),
        weighted_f1=float((supports @ f1s) / total),
    )


# --------------------------------------------------------------------------
# benchmark harness
# --------------------------------------------------------------------------

MODEL_DISPLAY = {kind: (l.display, l.family) for kind, l in LEARNERS.items()}


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


def benchmark_row(kind: str, rep: EvalReport) -> BenchmarkRow:
    """The benchmark row of learner `kind`, with the metrics of `rep`."""
    learner = get_learner(kind)
    return BenchmarkRow(learner.display, learner.family, rep.accuracy, rep.macro_f1,
                        rep.weighted_f1, report=rep)


def train_model(kind: str, X, y, config):
    learner = get_learner(kind)
    # an overflow or NaN on the way (say C = 1e300) is a fit that diverged
    with np.errstate(over="raise", invalid="raise"):
        try:
            return getattr(learners, learner.train)(X, y, config)
        except FloatingPointError as exc:
            raise TrainingError(f"{kind} training diverged: {exc}") from None
        except MemoryError as exc:  # say, hidden layers too wide for any address space
            raise TrainingError(f"{kind} model is too large to allocate: {exc}") from None


def predict_model(kind: str, model, X) -> np.ndarray:
    return getattr(learners, get_learner(kind).predict)(model, X)


def featurized(space: HybridFeatureSpace, records: Sequence[CleanRecord]):
    """(X, y): the feature matrix of `records` in `space`, and their labels."""
    return space.featurize(records).to_csr(), np.array([int(r.label) for r in records])


def held_out_report(kind: str, model, X, y) -> EvalReport:
    """The report of `model`'s predictions on held-out features X, labels y."""
    return report(confusion(y, predict_model(kind, model, X)))


def featurized_split(
    records: Sequence[CleanRecord],
    split: SplitConfig,
    tfidf_config: TfidfConfig = TfidfConfig(),
) -> tuple[SplitIndex, HybridFeatureSpace, object, np.ndarray, object, np.ndarray]:
    """Stratified split, then the feature space fitted on the training part
    only. `fit_tfidf` and `transform_corpus` each split the training texts
    into terms. Returns (indices, space, X_train, y_train, X_test, y_test)."""
    indices = stratified_split([r.label for r in records], split.test_fraction, split.seed)
    train_records = [records[i] for i in indices.train_indices]
    test_records = [records[i] for i in indices.test_indices]
    space = fit_feature_space(train_records, tfidf_config)
    return (indices, space, *featurized(space, train_records), *featurized(space, test_records))


def run_benchmark(
    records: Sequence[CleanRecord],
    split: SplitConfig = SplitConfig(),
    tfidf_config: TfidfConfig = TfidfConfig(),
) -> list[BenchmarkRow]:
    """Train every learner of `model.LEARNERS` on one shared stratified
    split and evaluate on the shared test part. A failing model yields a row
    flagged as failed; the remaining rows are still produced. Rows are sorted
    by accuracy descending, failed rows last."""
    _, _, X_train, y_train, X_test, y_test = featurized_split(records, split, tfidf_config)

    rows = []
    for kind, learner in LEARNERS.items():
        try:
            model = train_model(kind, X_train, y_train, seeded_config(kind, split))
            rows.append(benchmark_row(kind, held_out_report(kind, model, X_test, y_test)))
        except Exception as exc:  # isolate per-model failures
            rows.append(BenchmarkRow(learner.display, learner.family, None, None, None,
                                     failed=True, error=str(exc)))
    return rank_rows(rows)


def rank_rows(rows: Sequence[BenchmarkRow]) -> list[BenchmarkRow]:
    """The rows by accuracy descending, failed rows last; ties keep their
    order. A table names each model once, so a repeated name is refused."""
    names = [r.model for r in rows]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise SentigaError(f"benchmark rows repeat the model names {repeated}")
    return sorted(rows, key=lambda r: (r.failed, -(r.accuracy if r.accuracy is not None else 0.0)))

