import math
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from sentiga.corpus import CleanRecord, SentimentClass, load_raw, prepare_corpus
from sentiga.datasets import reference_corpus_path
from sentiga.errors import EmptyCorpusError, EmptyVocabularyError, ShapeMismatchError
from sentiga.features import (
    HybridFeatureSpace,
    TfidfConfig,
    assemble_hybrid,
    extract_terms,
    fit_feature_space,
    fit_scaler,
    fit_tfidf,
    inverse_scaler,
    numeric_features,
    tfidf_row,
    transform_corpus,
    transform_scaler,
    transform_tfidf,
)

UNIGRAM = TfidfConfig(min_df=1, max_df=1.0, ngram_range=(1, 1))


def reference_tfidf_row(model, doc):
    """One TF-IDF row as a plain loop over n-gram strings, with numpy-scalar
    arithmetic; tfidf_row must match it bit for bit."""
    tokens = doc.split()
    lo, hi = model.config.ngram_range
    terms = []
    for n in range(lo, hi + 1):
        terms.extend(" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1))
    counts = Counter(term for term in terms if term in model.vocabulary)
    row = sorted((model.vocabulary[term], count) for term, count in counts.items())
    weights = []
    for idx, count in row:
        tf = 1.0 + math.log(count) if model.config.sublinear_tf else float(count)
        weights.append(tf * model.idf[idx])
    norm = math.sqrt(sum(w * w for w in weights))
    if norm > 0:
        weights = [w / norm for w in weights]
    return [idx for idx, _ in row], weights


def assert_rows_bit_equal(model, doc):
    cols, weights = tfidf_row(model, doc)
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
        with pytest.raises(EmptyCorpusError):
            fit_tfidf([], UNIGRAM)

    def test_min_df_above_corpus_size_raises(self):
        with pytest.raises(EmptyVocabularyError):
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
        vec = transform_tfidf(model, "a b b").toarray()[0]
        assert vec[model.vocabulary["a"]] == pytest.approx(0.41694, abs=1e-4)
        assert vec[model.vocabulary["b"]] == pytest.approx(0.90893, abs=1e-4)
        assert vec[model.vocabulary["c"]] == 0.0

    def test_empty_document_is_zero_vector(self):
        model = fit_tfidf(["a b", "a c"], UNIGRAM)
        assert transform_tfidf(model, "").nnz == 0

    def test_oov_only_document_is_zero_vector(self):
        model = fit_tfidf(["a b", "a c"], UNIGRAM)
        assert transform_tfidf(model, "zzz qqq").nnz == 0

    def test_unit_norm_or_zero(self):
        model = fit_tfidf(["a b", "a c", "a b b"], UNIGRAM)
        for doc in ("a", "a b", "b b b c", "zzz", ""):
            norm = sp.linalg.norm(transform_tfidf(model, doc))
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
        assert numeric_features(self._record("a b c", 2, 3, 2)).tolist() == [3, 5, 2]

    def test_zeros(self):
        assert numeric_features(self._record("halo", 0, 0, 0)).tolist() == [1, 0, 0]

    def test_larger_sums(self):
        rec = self._record(" ".join(["kata"] * 14), 100, 250, 3)
        assert numeric_features(rec).tolist() == [14, 350, 3]


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
        recovered = inverse_scaler(scaler, transform_scaler(scaler, rows))
        assert np.allclose(recovered, rows, atol=1e-12)

    def test_empty_fit_raises(self):
        with pytest.raises(EmptyCorpusError):
            fit_scaler(np.zeros((0, 3)))


class TestHybridMatrix:
    def test_dimension_is_vocabulary_plus_three(self):
        hybrid = assemble_hybrid(sp.csr_matrix((2, 3000)), np.zeros((2, 3)))
        assert hybrid.n_features == 3003

    def test_zero_rows_preserve_dimension(self):
        hybrid = assemble_hybrid(sp.csr_matrix((0, 5)), np.zeros((0, 3)))
        assert hybrid.n_features == 8
        assert hybrid.to_csr().shape == (0, 8)

    def test_single_row_concatenation(self):
        tfidf = sp.csr_matrix(np.array([[0.6, 0.8]]))
        numeric = np.array([[1.0, 2.0, 3.0]])
        dense = assemble_hybrid(tfidf, numeric).to_csr().toarray()
        assert dense.tolist() == [[0.6, 0.8, 1.0, 2.0, 3.0]]

    def test_row_mismatch_raises(self):
        with pytest.raises(ShapeMismatchError):
            assemble_hybrid(sp.csr_matrix((2, 4)), np.zeros((3, 3)))


class TestFeatureSpace:
    def test_fit_and_featurize(self, clean_records):
        space = fit_feature_space(clean_records, TfidfConfig(min_df=1, max_df=1.0))
        hybrid = space.featurize(clean_records)
        assert hybrid.n_rows == len(clean_records)
        assert hybrid.n_features == space.tfidf.n_features + 3
        # tf-idf block rows are unit norm or zero
        for row in range(hybrid.n_rows):
            norm = sp.linalg.norm(hybrid.tfidf_block[row])
            assert norm == 0 or norm == pytest.approx(1.0, abs=1e-9)

    def test_transform_reuses_training_statistics(self, clean_records):
        space = fit_feature_space(clean_records, TfidfConfig(min_df=1, max_df=1.0))
        subset = clean_records[:4]
        expected = transform_scaler(space.scaler, np.stack([numeric_features(r) for r in subset]))
        hybrid = space.featurize(subset)
        assert np.allclose(hybrid.numeric_block, expected)
        assert isinstance(space, HybridFeatureSpace)
