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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .corpus import CleanRecord
from .errors import EmptyCorpusError, EmptyVocabularyError, ShapeMismatchError

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
        raise EmptyCorpusError("cannot fit TF-IDF on an empty corpus")

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
        raise EmptyVocabularyError(
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


def transform_tfidf(model: TfidfModel, doc: str) -> sp.csr_matrix:
    """Weight one document against the fitted vocabulary.

    Returns a 1 x V sparse row: (1 + ln c) * idf per in-vocabulary term,
    L2-normalized; all-OOV or empty documents give the zero vector.
    """
    return transform_corpus(model, [doc])


def tfidf_row(model: TfidfModel, doc: str) -> tuple[list[int], list[float]]:
    """One document's TF-IDF row as (ascending column indices, weights):
    (1 + ln c) * idf per in-vocabulary term, L2-normalized. All-OOV or
    empty documents give two empty lists."""
    vocabulary = model.vocabulary
    counts: dict[int, int] = {}
    for term in extract_terms(doc, model.config.ngram_range):
        col = vocabulary.get(term)
        if col is not None:
            counts[col] = counts.get(col, 0) + 1
    cols = sorted(counts)
    if model.config.sublinear_tf:
        tfs = [1.0 + math.log(counts[col]) for col in cols]
    else:
        tfs = [float(counts[col]) for col in cols]
    weights = [tf * idf for tf, idf in zip(tfs, model.idf[cols].tolist())]
    norm = math.sqrt(sum(w * w for w in weights))
    if norm > 0:
        weights = [w / norm for w in weights]
    return cols, weights


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


def numeric_features(record: CleanRecord) -> np.ndarray:
    """[word count of cleaned text, retweets + likes, raw-text hashtag count]."""
    return np.array(
        [record.word_count, record.engagement, record.hashtag_count], dtype=float
    )


def numeric_matrix(records: Sequence[CleanRecord]) -> np.ndarray:
    if not records:
        return np.zeros((0, 3))
    return np.stack([numeric_features(r) for r in records])


@dataclass
class Scaler:
    """Per-column standardizer with population statistics (divisor n)."""

    means: np.ndarray
    stds: np.ndarray

    def _safe_stds(self) -> np.ndarray:
        # a zero std marks a constant column, which maps to 0 at transform
        return np.where(self.stds == 0, 1.0, self.stds)


def fit_scaler(rows: np.ndarray | Sequence[Sequence[float]]) -> Scaler:
    rows = np.asarray(rows, dtype=float)
    if rows.size == 0:
        raise EmptyCorpusError("cannot fit scaler on empty input")
    return Scaler(means=rows.mean(axis=0), stds=rows.std(axis=0))


def transform_scaler(scaler: Scaler, values: np.ndarray) -> np.ndarray:
    return (np.asarray(values, dtype=float) - scaler.means) / scaler._safe_stds()


def inverse_scaler(scaler: Scaler, values: np.ndarray) -> np.ndarray:
    return np.asarray(values, dtype=float) * scaler._safe_stds() + scaler.means


@dataclass
class HybridMatrix:
    """Concatenation contract: TF-IDF columns first, then the three scaled
    numeric columns [word_count, engagement, hashtag_count]."""

    tfidf_block: sp.csr_matrix
    numeric_block: np.ndarray

    def __post_init__(self):
        if self.tfidf_block.shape[0] != self.numeric_block.shape[0]:
            raise ShapeMismatchError(
                f"row mismatch: tfidf {self.tfidf_block.shape[0]} rows, "
                f"numeric {self.numeric_block.shape[0]} rows"
            )

    @property
    def n_rows(self) -> int:
        return self.tfidf_block.shape[0]

    @property
    def n_features(self) -> int:
        return self.tfidf_block.shape[1] + self.numeric_block.shape[1]

    def to_csr(self) -> sp.csr_matrix:
        import scipy.sparse as sp

        return sp.hstack(
            [self.tfidf_block, sp.csr_matrix(self.numeric_block)], format="csr"
        )


def assemble_hybrid(
    tfidf_rows: sp.csr_matrix, numeric_rows: np.ndarray
) -> HybridMatrix:
    return HybridMatrix(tfidf_block=tfidf_rows, numeric_block=np.asarray(numeric_rows, dtype=float))


@dataclass
class HybridFeatureSpace:
    """Fitted vectorizer + scaler pair, reusable at test and inference time."""

    tfidf: TfidfModel
    scaler: Scaler

    def featurize(self, records: Sequence[CleanRecord]) -> HybridMatrix:
        tfidf_rows = transform_corpus(self.tfidf, [r.clean_text for r in records])
        numeric_rows = transform_scaler(self.scaler, numeric_matrix(records))
        return assemble_hybrid(tfidf_rows, numeric_rows)


def fit_feature_space(
    records: Sequence[CleanRecord], config: TfidfConfig = TfidfConfig()
) -> HybridFeatureSpace:
    """Fit vectorizer and scaler on training records only (no leakage)."""
    tfidf = fit_tfidf([r.clean_text for r in records], config)
    scaler = fit_scaler(numeric_matrix(records))
    return HybridFeatureSpace(tfidf=tfidf, scaler=scaler)
