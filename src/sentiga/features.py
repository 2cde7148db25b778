"""Hybrid feature space: TF-IDF text vectors plus standardized metadata.

The vectorizer is built from scratch over whitespace tokens of cleaned
text. Term weights use sublinear term frequency (1 + ln c) and smoothed
inverse document frequency ln((1 + n) / (1 + df)) + 1, L2-normalized per
document. The three numeric features (word count, engagement, hashtag
count) are standardized with statistics fitted on the training split only,
then concatenated after the text block.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .corpus import CleanRecord
from .errors import DataError

if TYPE_CHECKING:
    import scipy.sparse as sp

NUMERIC_FEATURE_NAMES = ("word_count", "engagement", "hashtag_count")


@dataclass(frozen=True)
class TfidfConfig:
    max_features: int = 3000
    min_df: int = 2          # absolute document count
    max_df: float = 0.9      # fraction of documents
    ngram_range: tuple[int, int] = (1, 2)
    sublinear_tf: bool = True

    def __post_init__(self):
        lo, hi = self.ngram_range
        if not (1 <= lo <= hi):
            raise ValueError(f"bad ngram_range: {self.ngram_range}")
        if self.min_df < 1 or int(self.min_df) != self.min_df:
            raise ValueError("min_df must be a positive integer document count")
        if not 0 < self.max_df <= 1:
            raise ValueError("max_df must be a fraction in (0, 1]")


def extract_terms(doc: str, ngram_range: tuple[int, int]) -> list[str]:
    """Unigrams and n-grams of whitespace tokens; n-grams are the tokens
    joined by a single space."""
    tokens = doc.split()
    lo, hi = ngram_range
    terms: list[str] = []
    for n in range(lo, hi + 1):
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
        n_terms = len(self.vocabulary)
        if self.idf.shape != (n_terms,) or sorted(self.vocabulary.values()) != list(range(n_terms)):
            raise ValueError(
                f"a vocabulary column is missing, repeated or outside 0..{n_terms - 1}, "
                f"or the IDF shape {self.idf.shape} is not ({n_terms},)"
            )
        idf = self.idf.tolist()
        self.columns_ = {term: (col, idf[col]) for term, col in self.vocabulary.items()}

    @property
    def n_features(self) -> int:
        return len(self.vocabulary)


def fit_tfidf(docs: Sequence[str], config: TfidfConfig = TfidfConfig()) -> TfidfModel:
    """Build vocabulary and IDF weights from cleaned documents.

    Terms are pruned to document frequency >= min_df and <= max_df * n.
    If more than max_features survive, the terms with the highest total
    corpus count are kept, ties broken lexicographically. The result is
    invariant under permutations of the input documents.
    """
    if len(docs) == 0:
        raise DataError("cannot fit TF-IDF on an empty corpus")

    doc_freq: Counter[str] = Counter()
    total_count: Counter[str] = Counter()
    for doc in docs:
        terms = extract_terms(doc, config.ngram_range)
        total_count.update(terms)
        doc_freq.update(set(terms))

    n_docs = len(docs)
    max_count = config.max_df * n_docs
    surviving = [
        term
        for term, df in doc_freq.items()
        if df >= config.min_df and df <= max_count
    ]
    if not surviving:
        raise DataError(
            f"no term survived pruning (min_df={config.min_df}, "
            f"max_df={config.max_df}, n_docs={n_docs})"
        )
    if len(surviving) > config.max_features:
        surviving.sort(key=lambda term: (-total_count[term], term))
        surviving = surviving[: config.max_features]

    vocabulary = {term: idx for idx, term in enumerate(sorted(surviving))}
    idf = np.empty(len(vocabulary))
    for term, idx in vocabulary.items():
        idf[idx] = math.log((1 + n_docs) / (1 + doc_freq[term])) + 1.0
    return TfidfModel(vocabulary=vocabulary, idf=idf, config=config)


def tfidf_row(model: TfidfModel, doc: str) -> tuple[list[int], list[float]]:
    """One document's TF-IDF row as (ascending column indices, weights):
    (1 + ln c) * idf per in-vocabulary term, L2-normalized. All-OOV or
    empty documents give two empty lists."""
    hits = sorted(filter(None, map(model.columns_.get,
                                   extract_terms(doc, model.config.ngram_range))))
    row = dict(hits)  # column -> idf, ascending
    if len(row) < len(hits):  # a repeated term: weigh each column by its count
        counts = Counter(col for col, _ in hits)
        if model.config.sublinear_tf:
            row = {col: (1.0 + math.log(counts[col])) * idf for col, idf in row.items()}
        else:
            row = {col: float(counts[col]) * idf for col, idf in row.items()}
    # a term seen once weighs exactly its idf: (1 + ln 1) * idf == 1.0 * idf
    weights = list(row.values())
    norm = math.sqrt(sum(w * w for w in weights))
    if norm > 0:
        weights = [w / norm for w in weights]
    return list(row), weights


def transform_corpus(model: TfidfModel, docs: Sequence[str]) -> sp.csr_matrix:
    """Stack transform rows for many documents into an n x V CSR matrix."""
    import scipy.sparse as sp

    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    for doc in docs:
        cols, weights = tfidf_row(model, doc)
        indices.extend(cols)
        data.extend(weights)
        indptr.append(len(indices))
    return sp.csr_matrix(
        (np.asarray(data), np.asarray(indices, dtype=np.int32), indptr),
        shape=(len(docs), model.n_features),
    )


def numeric_matrix(records: Sequence[CleanRecord]) -> np.ndarray:
    """One row per record: [word count of cleaned text, retweets + likes,
    raw-text hashtag count]."""
    return np.array(
        [v for r in records for v in (r.word_count, r.engagement, r.hashtag_count)],
        dtype=float,
    ).reshape(-1, len(NUMERIC_FEATURE_NAMES))


@dataclass
class Scaler:
    """Per-column standardizer with population statistics (divisor n)."""

    means: np.ndarray
    stds: np.ndarray
    # the divisors: a zero std marks a constant column, which maps to 0 at
    # transform; derived from `stds`, so bundles do not store it
    safe_stds_: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.safe_stds_ = np.where(self.stds == 0, 1.0, self.stds)


def fit_scaler(rows: np.ndarray | Sequence[Sequence[float]]) -> Scaler:
    rows = np.asarray(rows, dtype=float)
    if rows.size == 0:
        raise DataError("cannot fit scaler on empty input")
    return Scaler(means=rows.mean(axis=0), stds=rows.std(axis=0))


def transform_scaler(scaler: Scaler, values: np.ndarray) -> np.ndarray:
    return (np.asarray(values, dtype=float) - scaler.means) / scaler.safe_stds_


@dataclass
class HybridMatrix:
    """Concatenation contract: TF-IDF columns first, then the three scaled
    numeric columns [word_count, engagement, hashtag_count]."""

    tfidf_block: sp.csr_matrix
    numeric_block: np.ndarray

    def __post_init__(self):
        if self.tfidf_block.shape[0] != self.numeric_block.shape[0]:
            raise DataError(
                f"row mismatch: tfidf {self.tfidf_block.shape[0]} rows, "
                f"numeric {self.numeric_block.shape[0]} rows"
            )

    def to_csr(self) -> sp.csr_matrix:
        import scipy.sparse as sp

        return sp.hstack(
            [self.tfidf_block, sp.csr_matrix(self.numeric_block)], format="csr"
        )


@dataclass
class HybridFeatureSpace:
    """Fitted vectorizer + scaler pair, reusable at test and inference time."""

    tfidf: TfidfModel
    scaler: Scaler

    def featurize(self, records: Sequence[CleanRecord]) -> HybridMatrix:
        return HybridMatrix(
            tfidf_block=transform_corpus(self.tfidf, [r.clean_text for r in records]),
            numeric_block=transform_scaler(self.scaler, numeric_matrix(records)),
        )


def fit_feature_space(
    records: Sequence[CleanRecord], config: TfidfConfig = TfidfConfig()
) -> HybridFeatureSpace:
    """Fit vectorizer and scaler on training records only (no leakage)."""
    tfidf = fit_tfidf([r.clean_text for r in records], config)
    scaler = fit_scaler(numeric_matrix(records))
    return HybridFeatureSpace(tfidf=tfidf, scaler=scaler)
