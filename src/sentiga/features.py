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
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter, mul, truediv
from typing import TYPE_CHECKING, ClassVar, Sequence

import numpy as np

from .corpus import CleanRecord
from .errors import DataError
from .learners import check_config

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

    bounds: ClassVar = {"max_features": "at least 1", "min_df": "a whole number at least 1",
                        "max_df": "in (0, 1]", "ngram_range": "a pair lo,hi with 1 <= lo <= hi"}

    def __post_init__(self):
        check_config(self)


def extract_terms(doc: str, ngram_range: tuple[int, int]) -> list[str]:
    """Unigrams and n-grams of whitespace tokens; n-grams are the tokens
    joined by a single space."""
    tokens = doc.split()
    lo, hi = ngram_range
    terms: list[str] = []
    for n in range(lo, min(hi, len(tokens)) + 1):  # no n-gram is longer than the document
        terms += tokens if n == 1 else map(" ".join, zip(*[tokens[i:] for i in range(n)]))
    return terms


@dataclass(frozen=True)
class DocTerms:
    """Documents split into their terms once (`extract_terms`), each term
    held as an id: fitting a vocabulary on them and transforming them then
    share that one pass."""

    ngram_range: tuple[int, int]
    terms: dict[str, int]   # distinct term -> id, ids 0, 1, ... in first-seen order
    ids: np.ndarray         # the term ids of every document, documents in order
    lengths: np.ndarray     # the number of terms of each document

    @classmethod
    def of(cls, docs: Sequence[str], ngram_range: tuple[int, int]) -> "DocTerms":
        terms: defaultdict[str, int] = defaultdict()
        terms.default_factory = terms.__len__   # an unseen term gets the next id
        ids = array("q")
        lengths = []
        for doc in docs:
            doc_terms = extract_terms(doc, ngram_range)
            ids.extend(map(terms.__getitem__, doc_terms))
            lengths.append(len(doc_terms))
        return cls(tuple(ngram_range), dict(terms), np.frombuffer(ids, dtype=np.int64),
                   np.array(lengths, dtype=np.int64))

    def rows(self) -> np.ndarray:
        """The document index of each entry of `ids`."""
        return np.repeat(np.arange(len(self.lengths)), self.lengths)


def _as_doc_terms(docs: Sequence[str] | DocTerms, ngram_range: tuple[int, int]) -> DocTerms:
    if not isinstance(docs, DocTerms):
        return DocTerms.of(docs, ngram_range)
    if docs.ngram_range != tuple(ngram_range):
        raise ValueError(f"terms of n-grams {docs.ngram_range}, expected {ngram_range}")
    return docs


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


def fit_tfidf(docs: Sequence[str] | DocTerms, config: TfidfConfig = TfidfConfig()) -> TfidfModel:
    """Build vocabulary and IDF weights from cleaned documents, given as
    strings or as their `DocTerms`.

    Terms are pruned to document frequency >= min_df and <= max_df * n.
    If more than max_features survive, the terms with the highest total
    corpus count are kept, ties broken lexicographically. The result is
    invariant under permutations of the input documents.
    """
    docs = _as_doc_terms(docs, config.ngram_range)
    n_docs, n_ids = len(docs.lengths), len(docs.terms)
    if n_docs == 0:
        raise DataError("cannot fit TF-IDF on an empty corpus")

    # a term's document frequency: the distinct (document, term) pairs it has
    pairs, _ = _count_distinct(docs.rows() * n_ids + docs.ids)
    doc_freq = np.bincount(pairs % n_ids, minlength=n_ids).tolist()
    total_count = np.bincount(docs.ids, minlength=n_ids).tolist()
    names = list(docs.terms)

    max_count = config.max_df * n_docs
    surviving = [
        term_id
        for term_id, df in enumerate(doc_freq)
        if df >= config.min_df and df <= max_count
    ]
    if not surviving:
        raise DataError(
            f"no term survived pruning (min_df={config.min_df}, "
            f"max_df={config.max_df}, n_docs={n_docs})"
        )
    if len(surviving) > config.max_features:
        surviving.sort(key=lambda term_id: (-total_count[term_id], names[term_id]))
        surviving = surviving[: config.max_features]

    kept = sorted(surviving, key=names.__getitem__)
    vocabulary = {names[term_id]: idx for idx, term_id in enumerate(kept)}
    idf = np.array([math.log((1 + n_docs) / (1 + doc_freq[term_id])) + 1.0 for term_id in kept])
    return TfidfModel(vocabulary=vocabulary, idf=idf, config=config)


def _count_distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of non-negative `keys`, ascending, and how often
    each occurs. Sorts: numpy's hashing `unique` is several times slower on
    these keys."""
    keys = np.sort(keys)
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    return keys[starts], np.diff(starts, append=len(keys))


def _left_sum(terms, total=0.0):
    """`total` plus the terms, added left to right with one rounding per
    addition: of floats, or elementwise of arrays. ``sum`` of floats is
    compensated from CPython 3.12 on, so it would round differently there."""
    for term in terms:
        total = total + term
    return total


def _entries_by_position(values: np.ndarray, indptr: np.ndarray):
    """The k-th entry of every CSR row for k = 0, 1, ..., as one vector per
    k, 0.0 for a row with k entries or fewer."""
    starts, lengths = indptr[:-1], np.diff(indptr)
    for k in range(lengths.max(initial=0)):
        entries = np.zeros(len(lengths))
        live = lengths > k
        entries[live] = values[starts[live] + k]
        yield entries


def _term_frequency(count: int, sublinear: bool) -> float:
    """The weight of a term seen `count` times in a document, before its idf."""
    return 1.0 + math.log(count) if sublinear else float(count)


def tfidf_row(model: TfidfModel, doc: str) -> tuple[list[int], list[float]]:
    """One document's TF-IDF row as (ascending column indices, weights):
    (1 + ln c) * idf per in-vocabulary term, L2-normalized. All-OOV or
    empty documents give two empty lists."""
    hits = sorted(filter(None, map(model.columns_.get,
                                   extract_terms(doc, model.config.ngram_range))))
    row = dict(hits)  # column -> idf, ascending
    if len(row) < len(hits):  # a repeated term: weigh each column by its count
        counts, sublinear = Counter(map(itemgetter(0), hits)), model.config.sublinear_tf
        row = {col: _term_frequency(counts[col], sublinear) * idf for col, idf in row.items()}
    # a term seen once weighs exactly its idf: (1 + ln 1) * idf == 1.0 * idf
    weights = list(row.values())
    norm = math.sqrt(_left_sum(map(mul, weights, weights)))
    if norm > 0:
        weights = list(map(truediv, weights, repeat(norm)))
    return list(row), weights


def _vocabulary_hits(model: TfidfModel, docs: Sequence[str] | DocTerms) -> tuple[int, np.ndarray]:
    """(number of documents, one key per in-vocabulary term occurrence):
    the key of column c in document i is ``i * V + c``, keys in document
    order. Each document's terms become columns as they are read."""
    n_terms, column = model.n_features, model.vocabulary.get
    if isinstance(docs, DocTerms):
        docs = _as_doc_terms(docs, model.config.ngram_range)
        column_of_id = np.fromiter((column(term, -1) for term in docs.terms),
                                   dtype=np.int64, count=len(docs.terms))
        cols = column_of_id[docs.ids]
        known = cols >= 0
        return len(docs.lengths), docs.rows()[known] * n_terms + cols[known]
    hits = array("q")   # the in-vocabulary columns of every document, in order
    ends = [0]
    for doc in docs:
        terms = extract_terms(doc, model.config.ngram_range)
        # -1 marks a term outside the vocabulary; the filter drops it
        hits.extend(filter((-1).__ne__, map(column, terms, repeat(-1))))
        ends.append(len(hits))
    rows = np.repeat(np.arange(len(ends) - 1), np.diff(ends))
    return len(ends) - 1, rows * n_terms + np.frombuffer(hits, dtype=np.int64)


def transform_corpus(model: TfidfModel, docs: Sequence[str] | DocTerms) -> sp.csr_matrix:
    """The n x V CSR matrix of the documents, given as strings or as their
    `DocTerms`; row i equals ``tfidf_row(model, docs[i])`` bit for bit.

    The matrix is built from the flat (row, column) hits in one pass: the
    counts from one sort, each row's norm from the same left fold of its
    squared weights in ascending-column order that `tfidf_row` uses.
    """
    import scipy.sparse as sp

    n_docs, keys = _vocabulary_hits(model, docs)
    keys, counts = _count_distinct(keys)
    rows, cols = np.divmod(keys, model.n_features)
    tf = [_term_frequency(count, model.config.sublinear_tf)
          for count in range(1, counts.max(initial=1) + 1)]
    weights = np.array(tf)[counts - 1] * model.idf[cols]
    indptr = np.zeros(n_docs + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n_docs), out=indptr[1:])
    norms = np.sqrt(_left_sum(_entries_by_position(weights * weights, indptr), np.zeros(n_docs)))
    weights /= np.where(norms > 0, norms, 1.0)[rows]
    return sp.csr_matrix(
        (weights, cols.astype(np.int32), indptr), shape=(n_docs, model.n_features)
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

    def featurize(
        self, records: Sequence[CleanRecord], terms: DocTerms | None = None
    ) -> HybridMatrix:
        """The records' features; `terms`, when given, are the `DocTerms` of
        their cleaned texts."""
        return HybridMatrix(
            tfidf_block=transform_corpus(
                self.tfidf, [r.clean_text for r in records] if terms is None else terms
            ),
            numeric_block=transform_scaler(self.scaler, numeric_matrix(records)),
        )


def fit_feature_space(
    records: Sequence[CleanRecord],
    config: TfidfConfig = TfidfConfig(),
    terms: DocTerms | None = None,
) -> HybridFeatureSpace:
    """Fit vectorizer and scaler on training records only (no leakage);
    `terms`, when given, are the `DocTerms` of their cleaned texts."""
    tfidf = fit_tfidf([r.clean_text for r in records] if terms is None else terms, config)
    scaler = fit_scaler(numeric_matrix(records))
    return HybridFeatureSpace(tfidf=tfidf, scaler=scaler)
