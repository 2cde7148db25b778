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
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import compress, islice, repeat
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

import numpy as np

from .corpus import CleanRecord
from .errors import DataError
from .model import (NUMERIC_FEATURE_NAMES, Scaler, TfidfConfig, TfidfModel, _left_sum,
                    _term_frequency, extract_terms)

if TYPE_CHECKING:
    import scipy.sparse as sp


# the tokens in one chunk of whole documents that `_term_values` splits and
# joins at a time: a few hundred posts, so a chunk's token and n-gram strings
# stay small next to the matrix however long the corpus is. On the reference
# serving stream, chunks of 2**12 to 2**15 tokens run equally fast; from 2**14
# on, the chunk's strings and not the matrix set `transform_corpus`'s peak
_CHUNK_TOKENS = 1 << 12

# what `_term_values` passes each chunk's terms through: the terms of one
# n-gram length, in order, to the integer of each
_Lookup = Callable[[Iterator[str]], Iterator[int]]

_NO_ENTRIES = np.zeros(0, dtype=np.int64)


def _term_values(docs: Iterable[str], ngram_range: tuple[int, int],
                 lookup: _Lookup) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every term of every document, as `extract_terms` gives them, passed
    through `lookup`, in (document index of each term, its value) pieces:
    one piece per n-gram length of each chunk of whole documents that holds
    `_CHUNK_TOKENS` tokens or just over. Only the pieces' integers outlive
    a chunk."""
    tokens, lengths, first = [], [], 0
    for doc_tokens in map(str.split, docs):
        tokens += doc_tokens
        lengths.append(len(doc_tokens))
        if len(tokens) >= _CHUNK_TOKENS:
            yield from _chunk_values(tokens, lengths, first, ngram_range, lookup)
            first += len(lengths)
            tokens, lengths = [], []
    yield from _chunk_values(tokens, lengths, first, ngram_range, lookup)


def _chunk_values(tokens: list[str], lengths: list[int], first: int,
                  ngram_range: tuple[int, int], lookup: _Lookup):
    """`_term_values` of one chunk: the tokens of its documents laid end to
    end, each document's token count, the index of its first document. Each
    n-gram length joins its n-grams once across all the tokens; a mask then
    drops those that run past the end of their document. A function of its
    own, so that none of its locals keeps a chunk's strings alive while
    `_term_values` gathers the next chunk."""
    lo, hi = ngram_range
    lengths = np.array(lengths, dtype=np.int64)
    rows = np.repeat(np.arange(first, first + len(lengths)), lengths)
    # how many tokens its document has from each token on, itself included
    left = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(tokens))
    for n in range(lo, min(hi, int(lengths.max(initial=0))) + 1):
        grams = tokens if n == 1 else map(
            " ".join, zip(*(islice(tokens, i, None) for i in range(n))))
        whole = left[: len(tokens) - n + 1] >= n
        gram_rows = rows[: len(whole)][whole]
        yield gram_rows, np.fromiter(lookup(compress(grams, whole.tolist())),
                                     dtype=np.int64, count=len(gram_rows))


@dataclass(frozen=True)
class DocTerms:
    """Documents split into their terms once (`_term_values`), each term
    held as an id: fitting a vocabulary on them and transforming them then
    share that one pass. Each document's terms are those of
    `extract_terms`, but the entries are not in document order."""

    ngram_range: tuple[int, int]
    terms: dict[str, int]   # distinct term -> id, ids 0, 1, ... in first-seen order
    ids: np.ndarray         # the term id of every term occurrence
    rows: np.ndarray        # the document index of each entry of `ids`
    n_docs: int

    @classmethod
    def of(cls, docs: Sequence[str], ngram_range: tuple[int, int]) -> "DocTerms":
        terms: defaultdict[str, int] = defaultdict()
        terms.default_factory = terms.__len__   # an unseen term gets the next id
        rows, ids = [_NO_ENTRIES], [_NO_ENTRIES]
        for piece_rows, piece_ids in _term_values(docs, ngram_range,
                                                  partial(map, terms.__getitem__)):
            rows.append(piece_rows)
            ids.append(piece_ids)
        return cls(tuple(ngram_range), dict(terms), np.concatenate(ids), np.concatenate(rows),
                   len(docs))


def _as_doc_terms(docs: Sequence[str] | DocTerms, ngram_range: tuple[int, int]) -> DocTerms:
    if not isinstance(docs, DocTerms):
        return DocTerms.of(docs, ngram_range)
    if docs.ngram_range != tuple(ngram_range):
        raise ValueError(f"terms of n-grams {docs.ngram_range}, expected {ngram_range}")
    return docs


def fit_tfidf(docs: Sequence[str] | DocTerms, config: TfidfConfig = TfidfConfig()) -> TfidfModel:
    """Build vocabulary and IDF weights from cleaned documents, given as
    strings or as their `DocTerms`.

    Terms are pruned to document frequency >= min_df and <= max_df * n.
    If more than max_features survive, the terms with the highest total
    corpus count are kept, ties broken lexicographically. The result is
    invariant under permutations of the input documents.
    """
    docs = _as_doc_terms(docs, config.ngram_range)
    n_docs, n_ids = docs.n_docs, len(docs.terms)
    if n_docs == 0:
        raise DataError("cannot fit TF-IDF on an empty corpus")

    # a term's document frequency: the distinct (document, term) pairs it has
    pairs, _ = _count_distinct(docs.rows * n_ids + docs.ids)
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


def _entries_by_position(values: np.ndarray, indptr: np.ndarray):
    """The k-th entry of every CSR row for k = 0, 1, ..., as one vector per
    k, 0.0 for a row with k entries or fewer."""
    starts, lengths = indptr[:-1], np.diff(indptr)
    for k in range(lengths.max(initial=0)):
        entries = np.zeros(len(lengths))
        live = lengths > k
        entries[live] = values[starts[live] + k]
        yield entries


def _vocabulary_hits(model: TfidfModel, docs: Sequence[str] | DocTerms) -> tuple[int, np.ndarray]:
    """(number of documents, one key per in-vocabulary term occurrence):
    the key of column c in document i is ``i * V + c``, in no set order.
    Strings are read through `_term_values`, each term looked up as it
    is joined, so only integers are kept."""
    n_terms, column = model.n_features, model.vocabulary.get
    if isinstance(docs, DocTerms):
        docs = _as_doc_terms(docs, model.config.ngram_range)
        column_of_id = np.fromiter((column(term, -1) for term in docs.terms),
                                   dtype=np.int64, count=len(docs.terms))
        cols = column_of_id[docs.ids]
        known = cols >= 0
        return docs.n_docs, docs.rows[known] * n_terms + cols[known]
    keys = [_NO_ENTRIES]
    # -1 marks a term outside the vocabulary
    for rows, cols in _term_values(docs, model.config.ngram_range,
                                   lambda grams: map(column, grams, repeat(-1))):
        known = cols >= 0
        keys.append(rows[known] * n_terms + cols[known])
    return len(docs), np.concatenate(keys)


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
