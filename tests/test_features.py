import math
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from conftest import write_raw_csv
from sentiga import features
from sentiga.corpus import (
    CleanRecord,
    SentimentClass,
    clean_record,
    deduplicate,
    default_label_map,
    load_raw,
    prepare_corpus,
)
from sentiga.datasets import generate_reference_rows, reference_corpus_path
from sentiga.errors import DataError
from sentiga.evaluation import SplitConfig, featurized_split
from sentiga.features import (
    HybridFeatureSpace,
    HybridMatrix,
    TfidfConfig,
    TfidfModel,
    extract_terms,
    fit_feature_space,
    fit_scaler,
    fit_tfidf,
    numeric_matrix,
    transform_corpus,
    transform_scaler,
)
from sentiga.model import tfidf_row

UNIGRAM = TfidfConfig(min_df=1, max_df=1.0, ngram_range=(1, 1))


def reference_terms(doc, ngram_range):
    """The n-gram strings of a document by definition: every run of n
    consecutive whitespace tokens, joined by a space, for each n in range."""
    tokens = doc.split()
    lo, hi = ngram_range
    return [" ".join(tokens[i : i + n])
            for n in range(lo, hi + 1) for i in range(len(tokens) - n + 1)]


def reference_tfidf_row(model, doc):
    """One TF-IDF row as a plain loop over n-gram strings, with numpy-scalar
    arithmetic; tfidf_row must match it bit for bit."""
    terms = reference_terms(doc, model.config.ngram_range)
    counts = Counter(term for term in terms if term in model.vocabulary)
    row = sorted((model.vocabulary[term], count) for term, count in counts.items())
    weights = []
    for idx, count in row:
        tf = 1.0 + math.log(count) if model.config.sublinear_tf else float(count)
        weights.append(tf * model.idf[idx])
    norm_sq = 0.0  # added left to right: `sum` of floats is compensated on 3.12+
    for w in weights:
        norm_sq += w * w
    norm = math.sqrt(norm_sq)
    if norm > 0:
        weights = [w / norm for w in weights]
    return [idx for idx, _ in row], weights


def reference_fit_tfidf(docs, config):
    """(vocabulary, idf) counted over n-gram strings; fit_tfidf must match it."""
    doc_freq, total_count = Counter(), Counter()
    for doc in docs:
        terms = extract_terms(doc, config.ngram_range)
        total_count.update(terms)
        doc_freq.update(set(terms))
    kept = [t for t, df in doc_freq.items() if config.min_df <= df <= config.max_df * len(docs)]
    kept = sorted(kept, key=lambda t: (-total_count[t], t))[: config.max_features]
    vocabulary = {term: idx for idx, term in enumerate(sorted(kept))}
    idf = [math.log((1 + len(docs)) / (1 + doc_freq[t])) + 1.0 for t in sorted(kept)]
    return vocabulary, idf


def stacked_reference_rows(model, docs):
    """The n x V CSR matrix of tfidf_row rows, stacked the plain way."""
    indptr, indices, data = [0], [], []
    for doc in docs:
        cols, weights = tfidf_row(model.columns_, model.config, doc)
        indices.extend(cols)
        data.extend(weights)
        indptr.append(len(indices))
    return sp.csr_matrix(
        (np.asarray(data), np.asarray(indices, dtype=np.int32), indptr),
        shape=(len(docs), model.n_features),
    )


def assert_csr_identical(actual, expected):
    assert actual.shape == expected.shape
    for part in ("data", "indices", "indptr"):
        a, e = getattr(actual, part), getattr(expected, part)
        assert a.dtype == e.dtype and a.tobytes() == e.tobytes(), part


def assert_rows_bit_equal(model, doc):
    cols, weights = tfidf_row(model.columns_, model.config, doc)
    ref_cols, ref_weights = reference_tfidf_row(model, doc)
    assert cols == ref_cols
    assert [float(w).hex() for w in weights] == [float(w).hex() for w in ref_weights]


_WORDS = ["aa", "bb", "cc", "dd", "ee", "ff", "gg"]
_ORACLE_CORPUS = [
    " ".join(np.random.default_rng(seed).choice(_WORDS, size=2 + seed % 7))
    for seed in range(40)
]
_ORACLE_MODELS = {
    (ngram_range, sublinear): fit_tfidf(
        _ORACLE_CORPUS,
        TfidfConfig(min_df=1, max_df=0.95, ngram_range=ngram_range, sublinear_tf=sublinear),
    )
    for ngram_range in [(1, 1), (1, 2), (2, 3)]
    for sublinear in (True, False)
}


class TestExtractTerms:
    DOCS = ["", "aa", "aa bb cc dd", "aa bb aa bb aa bb cc"]

    @pytest.mark.parametrize("doc", DOCS)
    def test_equals_reference(self, doc):
        for lo in range(1, 6):
            for hi in range(lo, 12):
                assert extract_terms(doc, (lo, hi)) == reference_terms(doc, (lo, hi))

    @pytest.mark.parametrize("doc", DOCS)
    def test_an_upper_bound_past_the_document_stops_at_its_length(self, doc):
        n_tokens = len(doc.split())
        for lo in (1, 2, 10**9):
            assert extract_terms(doc, (lo, 10**9)) == reference_terms(doc, (lo, n_tokens))

    def test_a_huge_upper_bound_fits_and_transforms_as_the_longest_document(self):
        config = TfidfConfig(min_df=1, max_df=1.0, ngram_range=(1, 10**9))
        longest = TfidfConfig(min_df=1, max_df=1.0, ngram_range=(1, 7))
        huge, model = fit_tfidf(self.DOCS, config), fit_tfidf(self.DOCS, longest)
        assert huge.vocabulary == model.vocabulary
        assert np.array_equal(huge.idf, model.idf)
        assert_csr_identical(transform_corpus(huge, self.DOCS), transform_corpus(model, self.DOCS))


class TestFitTfidf:
    def test_hand_computed_idf(self):
        model = fit_tfidf(["a b", "a c", "a b b"], UNIGRAM)
        idf = {term: model.idf[idx] for term, idx in model.vocabulary.items()}
        assert idf["a"] == pytest.approx(1.0, abs=1e-5)
        assert idf["b"] == pytest.approx(1.28768, abs=1e-5)
        assert idf["c"] == pytest.approx(1.69315, abs=1e-5)

    def test_min_df_prunes_rare_terms(self):
        docs = ["rare unik"] + ["umum biasa"] * 9
        model = fit_tfidf(docs, TfidfConfig(min_df=2, max_df=1.0, ngram_range=(1, 1)))
        assert "rare" not in model.vocabulary
        assert "umum" in model.vocabulary

    def test_max_df_prunes_ubiquitous_terms(self):
        docs = [f"everywhere only{i}" for i in range(10)] + ["only0 only1"]
        model = fit_tfidf(docs, TfidfConfig(min_df=1, max_df=0.9, ngram_range=(1, 1)))
        assert "everywhere" not in model.vocabulary
        assert "only0" in model.vocabulary

    def test_max_features_by_count_with_lexicographic_ties(self):
        docs = ["b a", "a b", "c c"]  # totals a=2, b=2, c=2; ties resolve a, b
        cfg = TfidfConfig(min_df=1, max_df=1.0, ngram_range=(1, 1), max_features=2)
        model = fit_tfidf(docs, cfg)
        assert sorted(model.vocabulary) == ["a", "b"]

    def test_indices_dense_lexicographic(self):
        model = fit_tfidf(["c a b", "b a c"], UNIGRAM)
        assert model.vocabulary == {"a": 0, "b": 1, "c": 2}

    def test_bigrams_join_with_single_space(self):
        model = fit_tfidf(["x y", "x y"], TfidfConfig(min_df=1, max_df=1.0, ngram_range=(1, 2)))
        assert "x y" in model.vocabulary

    def test_empty_corpus_raises(self):
        for config in (UNIGRAM, TfidfConfig()):
            with pytest.raises(DataError, match="empty corpus"):
                fit_tfidf([], config)

    def test_min_df_above_corpus_size_raises(self):
        with pytest.raises(DataError, match="no term survived pruning"):
            fit_tfidf(["a", "b"], TfidfConfig(min_df=5, max_df=1.0, ngram_range=(1, 1)))

    def test_vocabulary_invariant_under_document_permutation(self):
        docs = ["a b c", "b c d", "c d e", "a a b"]
        base = fit_tfidf(docs, UNIGRAM)
        rng = np.random.default_rng(0)
        for _ in range(5):
            shuffled = [docs[i] for i in rng.permutation(len(docs))]
            model = fit_tfidf(shuffled, UNIGRAM)
            assert model.vocabulary == base.vocabulary
            assert np.array_equal(model.idf, base.idf)


class TestTransformTfidf:
    def test_hand_computed_vector(self):
        model = fit_tfidf(["a b", "a c", "a b b"], UNIGRAM)
        vec = transform_corpus(model, ["a b b"]).toarray()[0]
        assert vec[model.vocabulary["a"]] == pytest.approx(0.41694, abs=1e-4)
        assert vec[model.vocabulary["b"]] == pytest.approx(0.90893, abs=1e-4)
        assert vec[model.vocabulary["c"]] == 0.0

    def test_empty_document_is_zero_vector(self):
        model = fit_tfidf(["a b", "a c"], UNIGRAM)
        assert transform_corpus(model, [""]).nnz == 0

    def test_oov_only_document_is_zero_vector(self):
        model = fit_tfidf(["a b", "a c"], UNIGRAM)
        assert transform_corpus(model, ["zzz qqq"]).nnz == 0

    def test_unit_norm_or_zero(self):
        model = fit_tfidf(["a b", "a c", "a b b"], UNIGRAM)
        for doc in ("a", "a b", "b b b c", "zzz", ""):
            norm = sp.linalg.norm(transform_corpus(model, [doc]))
            assert norm == 0 or norm == pytest.approx(1.0, abs=1e-9)

    def test_brute_force_recount_on_small_corpora(self):
        # independent oracle: naive dense recount of surviving terms
        rng = np.random.default_rng(7)
        alphabet = ["aa", "bb", "cc", "dd", "ee", "ff"]
        for trial in range(10):
            n_docs = int(rng.integers(2, 21))
            docs = [
                " ".join(rng.choice(alphabet, size=rng.integers(1, 8)))
                for _ in range(n_docs)
            ]
            cfg = TfidfConfig(min_df=1, max_df=1.0, ngram_range=(1, 2))
            model = fit_tfidf(docs, cfg)
            X = transform_corpus(model, docs)
            for row, doc in enumerate(docs):
                counts = Counter(extract_terms(doc, cfg.ngram_range))
                expected = {}
                for term, count in counts.items():
                    if term in model.vocabulary:
                        idx = model.vocabulary[term]
                        expected[idx] = (1 + math.log(count)) * model.idf[idx]
                norm = math.sqrt(sum(w * w for w in expected.values()))
                expected = {i: w / norm for i, w in expected.items()} if norm else {}
                dense = X[row].toarray()[0]
                assert set(np.flatnonzero(dense)) == set(expected)
                for idx, weight in expected.items():
                    assert dense[idx] == pytest.approx(weight, rel=1e-12)


class TestReferenceRow:
    """tfidf_row counts by column and weighs in Python floats; the columns
    and every weight bit must equal the string-counting loop."""

    @pytest.mark.parametrize("key", list(_ORACLE_MODELS), ids=str)
    @given(doc=st.lists(st.sampled_from(_WORDS + ["zz"]), max_size=30).map(" ".join))
    def test_equals_reference(self, key, doc):
        assert_rows_bit_equal(_ORACLE_MODELS[key], doc)

    def test_equals_reference_on_every_reference_record(self):
        docs = [r.clean_text for r in prepare_corpus(load_raw(reference_corpus_path()))]
        for sublinear in (True, False):
            model = fit_tfidf(docs, TfidfConfig(sublinear_tf=sublinear))
            for doc in docs:
                assert_rows_bit_equal(model, doc)
                # every term twice, and the first word four times
                assert_rows_bit_equal(model, f"{doc} {doc}")
                assert_rows_bit_equal(model, " ".join([doc, *doc.split()[:1] * 3]))

    @pytest.mark.parametrize(
        "doc", ["aa aa", "aa bb aa bb aa", "cc cc cc cc dd", "ee ff ee ff gg gg gg zz zz"]
    )
    @pytest.mark.parametrize("key", list(_ORACLE_MODELS), ids=str)
    def test_equals_reference_with_repeated_terms(self, key, doc):
        assert_rows_bit_equal(_ORACLE_MODELS[key], doc)

    def test_column_beyond_the_idf_is_refused(self):
        model = fit_tfidf(["aa bb", "bb cc"], UNIGRAM)
        with pytest.raises(ValueError, match="outside"):
            TfidfModel(vocabulary=model.vocabulary, idf=model.idf[:2], config=UNIGRAM)


# documents for the one-pass matrix: empty, all out of vocabulary, random
# words, and one word repeated up to 30 times
_ORACLE_DOCS = st.lists(
    st.one_of(
        st.sampled_from(["", "zz", "zz zz qq"]),
        st.lists(st.sampled_from(_WORDS + ["zz"]), max_size=12).map(" ".join),
        st.tuples(st.sampled_from(_WORDS), st.integers(1, 30)).map(
            lambda word_times: " ".join([word_times[0]] * word_times[1])
        ),
    ),
    max_size=8,
)


class TestOnePassMatrix:
    """transform_corpus builds the whole matrix from flat (row, column) hits;
    every row must be the string-counting loop's, bit for bit."""

    @pytest.mark.parametrize("key", list(_ORACLE_MODELS), ids=str)
    @given(docs=_ORACLE_DOCS)
    def test_rows_equal_reference(self, key, docs):
        model = _ORACLE_MODELS[key]
        X = transform_corpus(model, docs)
        assert X.shape == (len(docs), model.n_features)
        for i, doc in enumerate(docs):
            ref_cols, ref_weights = reference_tfidf_row(model, doc)
            entries = slice(X.indptr[i], X.indptr[i + 1])
            assert X.indices[entries].tolist() == ref_cols
            assert [w.hex() for w in X.data[entries].tolist()] == [
                float(w).hex() for w in ref_weights
            ]
        assert_csr_identical(X, stacked_reference_rows(model, docs))

    @given(
        docs=st.lists(st.lists(st.sampled_from(_WORDS), max_size=8).map(" ".join),
                      min_size=1, max_size=12),
        max_features=st.integers(1, 12),
        ngram_range=st.sampled_from([(1, 1), (1, 2), (2, 3)]),
    )
    def test_fit_equals_reference(self, docs, max_features, ngram_range):
        config = TfidfConfig(max_features=max_features, min_df=1, max_df=0.8,
                             ngram_range=ngram_range)
        vocabulary, idf = reference_fit_tfidf(docs, config)
        if not vocabulary:
            with pytest.raises(DataError, match="no term survived"):
                fit_tfidf(docs, config)
            return
        fitted = fit_tfidf(docs, config)
        assert fitted.vocabulary == vocabulary
        assert [w.hex() for w in fitted.idf.tolist()] == [w.hex() for w in idf]

    def test_x4_corpus_matches_the_per_record_path(self, tmp_path):
        rows = [row for seed in range(4) for row in generate_reference_rows(seed)]
        raw = load_raw(write_raw_csv(tmp_path / "x4.csv", rows))
        label_map = default_label_map()
        records = prepare_corpus(raw, label_map)
        assert records == deduplicate(
            [r for r in (clean_record(one, label_map) for one in raw) if r]
        )

        split, space, X_train, _, _, _ = featurized_split(records, SplitConfig(42, 0.2))
        train = [records[i] for i in split.train_indices]
        expected = stacked_reference_rows(space.tfidf, [r.clean_text for r in train])
        assert_csr_identical(transform_corpus(space.tfidf, [r.clean_text for r in train]),
                             expected)
        numeric = transform_scaler(space.scaler, numeric_matrix(train))
        assert_csr_identical(X_train, HybridMatrix(expected, numeric).to_csr())


# documents for the chunked term pass: empty, one token, a few words, or
# one word repeated, so n-grams of every length meet a document's end
_PASS_DOCS = st.lists(
    st.one_of(
        st.sampled_from(["", "aa", "zz"]),
        st.lists(st.sampled_from(_WORDS + ["zz"]), max_size=9).map(" ".join),
        st.tuples(st.sampled_from(_WORDS), st.integers(1, 12)).map(
            lambda word_times: " ".join([word_times[0]] * word_times[1])
        ),
    ),
    max_size=12,
)


class TestChunkedTermPass:
    """`fit_tfidf` and `transform_corpus` find every term of a chunk of
    documents in one pass over all its tokens; each document's terms must
    still be exactly `extract_terms` of it, wherever the chunks end."""

    @given(docs=_PASS_DOCS, chunk_tokens=st.sampled_from([1, 2, 3, 7, 4096]),
           ngram_range=st.sampled_from([(1, 1), (1, 2), (2, 2), (2, 3), (3, 5),
                                        (1, 10**9), (2, 10**9)]))
    def test_each_document_has_the_terms_of_extract_terms(self, docs, chunk_tokens,
                                                          ngram_range):
        # every term is kept, so the vocabulary is each term of the corpus and
        # its IDF the term's document frequency; the matrix, each term's count
        config = TfidfConfig(max_features=10**6, min_df=1, max_df=1.0, ngram_range=ngram_range)
        corpus = docs + ["aa bb cc"]  # a term for every n-gram range above
        with mock.patch.object(features, "_CHUNK_TOKENS", chunk_tokens):
            model = fit_tfidf(corpus, config)
            X = transform_corpus(model, docs)
        vocabulary, idf = reference_fit_tfidf(corpus, config)
        assert model.vocabulary == vocabulary
        assert [w.hex() for w in model.idf.tolist()] == [w.hex() for w in idf]
        assert_csr_identical(X, stacked_reference_rows(model, docs))

    def test_transform_memory_is_the_matrix_and_one_chunk(self):
        # eight chunks of tokens, nearly all outside the vocabulary: a pass
        # that held every token string at once would peak near 3.8 MiB; a
        # chunk holds its token strings and a few int64 arrays per token
        model = fit_tfidf(["aa bb", "bb cc", "cc aa"],
                          TfidfConfig(min_df=1, max_df=1.0, ngram_range=(1, 2)))
        docs = [" ".join(["aa", "bb", *(f"w{i}x{k}" for k in range(18))])
                for i in range(8 * features._CHUNK_TOKENS // 20)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            X = transform_corpus(model, docs)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        matrix = X.data.nbytes + X.indices.nbytes + X.indptr.nbytes
        chunk = features._CHUNK_TOKENS * 192
        assert peak <= 4 * matrix + chunk, (
            f"peak {peak / 2**20:.2f} MiB, matrix {matrix / 2**20:.2f} MiB, "
            f"chunk {chunk / 2**20:.2f} MiB")


class TestNumericFeatures:
    def _record(self, text, retweets, likes, hashtags):
        return CleanRecord(
            clean_text=text,
            label=SentimentClass.POSITIVE,
            word_count=len(text.split()),
            engagement=retweets + likes,
            hashtag_count=hashtags,
        )

    def test_direct_arithmetic(self):
        assert numeric_matrix([self._record("a b c", 2, 3, 2)])[0].tolist() == [3, 5, 2]

    def test_zeros(self):
        assert numeric_matrix([self._record("halo", 0, 0, 0)])[0].tolist() == [1, 0, 0]

    def test_larger_sums(self):
        rec = self._record(" ".join(["kata"] * 14), 100, 250, 3)
        assert numeric_matrix([rec])[0].tolist() == [14, 350, 3]

    def test_one_row_per_record_and_none_for_no_records(self):
        records = [self._record("a b", 1, 2, 0), self._record("c", 0, 0, 4)]
        assert numeric_matrix(records).tolist() == [[2, 3, 0], [1, 0, 4]]
        assert numeric_matrix([]).shape == (0, 3)


class TestScaler:
    def test_population_std_oracle(self):
        scaler = fit_scaler([[1], [2], [3]])
        assert scaler.means[0] == pytest.approx(2.0)
        assert scaler.stds[0] == pytest.approx(0.81650, abs=1e-5)
        assert transform_scaler(scaler, np.array([1.0]))[0] == pytest.approx(-1.22474, abs=1e-5)

    def test_constant_column_maps_to_zero(self):
        scaler = fit_scaler([[5.0], [5.0], [5.0]])
        assert transform_scaler(scaler, np.array([5.0]))[0] == 0.0

    def test_mean_vector_maps_to_zero(self):
        scaler = fit_scaler([[1, 10, 3], [3, 20, 9]])
        assert np.allclose(transform_scaler(scaler, scaler.means), 0.0)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(20, 3)) * [1, 50, 2]
        rows[:, 2] = 4.0  # constant column exercises the zero-std guard
        scaler = fit_scaler(rows)
        recovered = transform_scaler(scaler, rows) * scaler.safe_stds_ + scaler.means
        assert np.allclose(recovered, rows, atol=1e-12)

    def test_empty_fit_raises(self):
        with pytest.raises(DataError, match="empty input"):
            fit_scaler(np.zeros((0, 3)))


class TestHybridMatrix:
    def test_dimension_is_vocabulary_plus_three(self):
        hybrid = HybridMatrix(tfidf_block=sp.csr_matrix((2, 3000)), numeric_block=np.zeros((2, 3)))
        assert hybrid.to_csr().shape[1] == 3003

    def test_zero_rows_preserve_dimension(self):
        hybrid = HybridMatrix(tfidf_block=sp.csr_matrix((0, 5)), numeric_block=np.zeros((0, 3)))
        assert hybrid.to_csr().shape == (0, 8)

    def test_single_row_concatenation(self):
        tfidf = sp.csr_matrix(np.array([[0.6, 0.8]]))
        numeric = np.array([[1.0, 2.0, 3.0]])
        dense = HybridMatrix(tfidf_block=tfidf, numeric_block=numeric).to_csr().toarray()
        assert dense.tolist() == [[0.6, 0.8, 1.0, 2.0, 3.0]]

    def test_row_mismatch_raises(self):
        with pytest.raises(DataError, match="row mismatch"):
            HybridMatrix(tfidf_block=sp.csr_matrix((2, 4)), numeric_block=np.zeros((3, 3)))


class TestFeatureSpace:
    def test_fit_and_featurize(self, clean_records):
        space = fit_feature_space(clean_records, TfidfConfig(min_df=1, max_df=1.0))
        hybrid = space.featurize(clean_records)
        assert hybrid.to_csr().shape == (len(clean_records), space.tfidf.n_features + 3)
        # tf-idf block rows are unit norm or zero
        for row in range(len(clean_records)):
            norm = sp.linalg.norm(hybrid.tfidf_block[row])
            assert norm == 0 or norm == pytest.approx(1.0, abs=1e-9)

    def test_transform_reuses_training_statistics(self, clean_records):
        space = fit_feature_space(clean_records, TfidfConfig(min_df=1, max_df=1.0))
        subset = clean_records[:4]
        counts = [[r.word_count, r.engagement, r.hashtag_count] for r in subset]
        expected = transform_scaler(space.scaler, np.array(counts, dtype=float))
        hybrid = space.featurize(subset)
        assert np.allclose(hybrid.numeric_block, expected)
        assert isinstance(space, HybridFeatureSpace)
