import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import make_clean_records
import sentiga.evaluation
from sentiga.errors import DataError, SentigaError, TrainingError
from sentiga.features import TfidfConfig
from sentiga.model import SentimentClass
from sentiga.evaluation import (
    BenchmarkRow,
    SplitConfig,
    confusion,
    report,
    run_benchmark,
    stratified_split,
)

# one completion of the reference per-class metrics (rows true, cols predicted)
REFERENCE_CM = [[26, 0, 12], [2, 7, 3], [7, 4, 81]]


def labels_from_counts(counts):
    return np.repeat([0, 1, 2], counts)


class TestStratifiedSplit:
    def test_reference_counts(self):
        # counts given per class ordinal: negative 188, neutral 60, positive 459
        labels = labels_from_counts([188, 60, 459])
        split = stratified_split(labels, 0.2, seed=42)
        assert len(split.test_indices) == 142
        assert len(split.train_indices) == 565
        test_labels = labels[split.test_indices]
        assert np.sum(test_labels == 2) == 92
        assert np.sum(test_labels == 0) == 38
        assert np.sum(test_labels == 1) == 12

    def test_exact_halves(self):
        labels = labels_from_counts([10, 10, 10])
        split = stratified_split(labels, 0.5, seed=0)
        test_labels = labels[split.test_indices]
        assert [np.sum(test_labels == c) for c in range(3)] == [5, 5, 5]

    def test_seeds_change_membership_not_counts(self):
        labels = labels_from_counts([20, 15, 25])
        a = stratified_split(labels, 0.2, seed=1)
        b = stratified_split(labels, 0.2, seed=2)
        for c in range(3):
            assert np.sum(labels[a.test_indices] == c) == np.sum(labels[b.test_indices] == c)
        assert not np.array_equal(a.test_indices, b.test_indices)

    def test_deterministic_for_fixed_seed(self):
        labels = labels_from_counts([20, 15, 25])
        a = stratified_split(labels, 0.2, seed=9)
        b = stratified_split(labels, 0.2, seed=9)
        assert np.array_equal(a.test_indices, b.test_indices)
        assert np.array_equal(a.train_indices, b.train_indices)

    def test_small_class_raises(self):
        with pytest.raises(DataError, match="fewer than 2 members"):
            stratified_split([0, 0, 1, 2, 2], 0.5, seed=0)

    def test_bad_fraction_raises(self):
        with pytest.raises(DataError, match="test_fraction must be in"):
            stratified_split([0, 0, 1, 1, 2, 2], 1.5, seed=0)

    @given(
        counts=st.tuples(
            st.integers(2, 40), st.integers(2, 40), st.integers(2, 40)
        ),
        fraction=st.floats(0.05, 0.95),
        seed=st.integers(0, 1000),
    )
    def test_partition_property(self, counts, fraction, seed):
        labels = labels_from_counts(counts)
        split = stratified_split(labels, fraction, seed)
        combined = np.concatenate([split.train_indices, split.test_indices])
        assert len(combined) == len(labels)
        assert np.array_equal(np.sort(combined), np.arange(len(labels)))


class TestSplitConfig:
    def test_default_is_the_papers_split(self):
        assert SplitConfig() == SplitConfig(seed=42, test_fraction=0.2)

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"seed": -1}, "seed must be non-negative, got -1"),
            ({"test_fraction": float("nan")}, "test_fraction must be finite, got nan"),
            ({"test_fraction": float("inf")}, "test_fraction must be finite, got inf"),
            ({"test_fraction": 0.0}, r"test_fraction must be in \(0, 1\), got 0.0"),
            ({"test_fraction": 1.0}, r"test_fraction must be in \(0, 1\), got 1.0"),
        ],
        ids=["seed-negative", "fraction-nan", "fraction-inf", "fraction-0", "fraction-1"],
    )
    def test_refuses_values_out_of_bounds(self, values, message):
        with pytest.raises(ValueError, match=message):
            SplitConfig(**values)


class TestStratifiedSplitLabels:
    @pytest.mark.parametrize("bad", [1.5, float("inf"), "2", None], ids=repr)
    def test_label_that_is_not_a_whole_number_raises(self, bad):
        with pytest.raises(DataError, match="class labels must be whole numbers"):
            stratified_split([0, 0, 1, 1, 2, bad], 0.5, seed=0)

    def test_labels_that_are_not_one_dimensional_raise(self):
        # flattened, these 3 records' labels would split into indices up to 5
        with pytest.raises(DataError, match=r"class labels must be 1-d, got shape \(3, 2\)"):
            stratified_split([[0, 1], [2, 0], [1, 2]], 0.5, seed=0)
        with pytest.raises(DataError, match=r"class labels must be 1-d, got shape \(2, 2\)"):
            confusion([[0, 1], [1, 2]], [[0, 1], [1, 2]])

    def test_whole_float_labels_split_as_their_ints(self):
        labels = labels_from_counts([6, 4, 8])
        floats = stratified_split(labels.astype(float), 0.5, seed=3)
        enums = stratified_split([SentimentClass(v) for v in labels], 0.5, seed=3)
        ints = stratified_split(labels, 0.5, seed=3)
        for split in (floats, enums):
            assert np.array_equal(split.test_indices, ints.test_indices)


class TestConfusion:
    def test_perfect_predictions_are_diagonal(self):
        y = labels_from_counts([38, 12, 92])
        cm = confusion(y, y)
        assert np.array_equal(np.diag(cm), [38, 12, 92])
        assert cm.sum() == 142

    def test_single_off_diagonal_entry(self):
        cm = confusion([0], [2])
        assert cm[0, 2] == 1
        assert cm.sum() == 1

    def test_length_mismatch_raises(self):
        with pytest.raises(DataError, match="length mismatch"):
            confusion([0, 1], [0])

    @pytest.mark.parametrize(
        "y_true, y_pred",
        [([0, 1, 2], [0, 1, -1]), ([0], [3]), ([-1], [0]), ([5, 0], [0, 0])],
        ids=["predicted-minus-one", "predicted-three", "true-minus-one", "true-five"],
    )
    def test_ordinal_outside_the_classes_raises(self, y_true, y_pred):
        # as an index, -1 would be the last column: a wrong prediction counted as right
        with pytest.raises(DataError, match=r"class ordinals must be in 0\.\.2"):
            confusion(y_true, y_pred)

    @pytest.mark.parametrize("bad", [1.7, float("nan"), 1e19, 2**70, "1", None], ids=repr)
    def test_label_that_is_not_a_whole_number_raises(self, bad):
        # int() would count 1.7 as class 1
        with pytest.raises(DataError, match="class labels must be whole numbers"):
            confusion([0, bad, 2], [0, 1, 2])
        with pytest.raises(DataError, match="class labels must be whole numbers"):
            confusion([0, 1, 2], [0, bad, 2])

    def test_whole_float_and_enum_labels_are_accepted(self):
        cm = confusion([0.0, 1.0, 2.0], list(SentimentClass))
        assert cm.tolist() == np.eye(3, dtype=int).tolist()

    def test_empty_input_is_all_zero(self):
        assert confusion([], []).tolist() == [[0] * 3] * 3

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=60))
    def test_counts_equal_a_per_sample_count(self, pairs):
        expected = np.zeros((3, 3), dtype=int)
        for t, p in pairs:
            expected[t, p] += 1
        cm = confusion([t for t, _ in pairs], [p for _, p in pairs])
        assert cm.dtype == expected.dtype
        assert np.array_equal(cm, expected)


class TestReport:
    def test_whole_float_counts_are_accepted(self):
        rep = report(np.array(REFERENCE_CM, dtype=float))
        assert rep.confusion.dtype.kind == "i"
        assert rep.confusion.tolist() == REFERENCE_CM
        assert rep.confusion.sum(axis=1).tolist() == [38, 12, 92]

    @pytest.mark.parametrize("bad", [2.5, float("nan"), float("inf"), 1e19], ids=str)
    def test_count_that_is_not_a_whole_number_raises(self, bad):
        counts = np.array(REFERENCE_CM, dtype=float)
        counts[1, 2] = bad
        with pytest.raises(DataError, match="whole numbers"):
            report(counts)

    @pytest.mark.parametrize("counts, message", [
        ([[1, 2], [3, 4]], r"expected a 3x3 matrix, got \(2, 2\)"),
        ([[26, 0, 12], [2, 7, -3], [7, 4, 81]], "confusion counts must be non-negative"),
    ], ids=["two-by-two", "negative"])
    def test_counts_not_3x3_or_negative_raise(self, counts, message):
        with pytest.raises(DataError, match=message):
            report(counts)

    def test_reference_per_class_metrics(self):
        rep = report(REFERENCE_CM)
        expected = {
            "negative": (0.7429, 0.6842, 0.7123, 38),
            "neutral": (0.6364, 0.5833, 0.6087, 12),
            "positive": (0.8438, 0.8804, 0.8617, 92),
        }
        for metrics in rep.per_class:
            precision, recall, f1, support = expected[metrics.name]
            assert metrics.precision == pytest.approx(precision, abs=1e-4)
            assert metrics.recall == pytest.approx(recall, abs=1e-4)
            assert metrics.f1 == pytest.approx(f1, abs=1e-4)
            assert metrics.support == support

    def test_reference_aggregates(self):
        rep = report(REFERENCE_CM)
        assert rep.accuracy == pytest.approx(0.8028, abs=1e-4)
        assert rep.macro_f1 == pytest.approx(0.7276, abs=1e-4)
        assert rep.weighted_f1 == pytest.approx(0.8003, abs=1e-4)

    def test_diagonal_matrix_is_perfect(self):
        rep = report(np.diag([5, 7, 9]))
        assert rep.accuracy == 1.0 and rep.macro_f1 == 1.0 and rep.weighted_f1 == 1.0
        assert all(m.precision == m.recall == m.f1 == 1.0 for m in rep.per_class)

    def test_zero_division_yields_zero(self):
        counts = np.zeros((3, 3), dtype=int)
        counts[0, 0] = 4
        counts[1, 0] = 2  # neutral never predicted, positive absent entirely
        rep = report(counts)
        by_name = {m.name: m for m in rep.per_class}
        assert by_name["neutral"].precision == 0.0
        assert by_name["neutral"].recall == 0.0
        assert by_name["neutral"].f1 == 0.0
        assert by_name["positive"].f1 == 0.0

    def test_all_zero_matrix_raises(self):
        with pytest.raises(DataError, match="all zero"):
            report(np.zeros((3, 3), dtype=int))

    def test_macro_equals_weighted_for_equal_supports(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            counts = rng.integers(0, 10, size=(3, 3))
            counts += np.diag([1, 1, 1])  # avoid all-zero rows
            target = counts.sum(axis=1).max()
            for c in range(3):
                counts[c, c] += target - counts[c].sum()
            rep = report(counts)
            assert rep.macro_f1 == pytest.approx(rep.weighted_f1, abs=1e-12)

    def test_weighted_f1_reconstruction(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            counts = rng.integers(0, 30, size=(3, 3))
            if counts.sum() == 0:
                counts[0, 0] = 1
            rep = report(counts)
            total = counts.sum()
            recon = sum(m.support * m.f1 for m in rep.per_class) / total
            assert rep.weighted_f1 == pytest.approx(recon, abs=1e-12)

    def test_precision_colsum_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            counts = rng.integers(0, 30, size=(3, 3))
            if counts.sum() == 0:
                counts[1, 1] = 2
            rep = report(counts)
            col_sums = counts.sum(axis=0)
            lhs = sum(m.precision * col_sums[i] for i, m in enumerate(rep.per_class))
            assert lhs == pytest.approx(rep.accuracy * counts.sum(), abs=1e-9)


class TestRankRows:
    def test_rows_rank_by_accuracy_failed_last_ties_in_order(self):
        rows = [BenchmarkRow("F", "X", None, None, None, failed=True),
                BenchmarkRow("A", "X", 0.5, 0.5, 0.5), BenchmarkRow("B", "X", 0.9, 0.9, 0.9),
                BenchmarkRow("C", "X", 0.5, 0.5, 0.5)]
        assert [r.model for r in sentiga.evaluation.rank_rows(rows)] == ["B", "A", "C", "F"]

    def test_a_repeated_model_name_is_refused(self):
        rows = [BenchmarkRow(name, "X", 0.5, 0.5, 0.5) for name in ("A", "B", "A", "B", "C")]
        with pytest.raises(SentigaError, match=r"repeat the model names \['A', 'B'\]"):
            sentiga.evaluation.rank_rows(rows)


class TestBenchmark:
    def test_three_rows_on_shared_split(self):
        records = make_clean_records(n_per_class=(14, 14, 14), seed=4)
        rows = run_benchmark(records, SplitConfig(42, 0.25),
                             tfidf_config=TfidfConfig(min_df=1, max_df=1.0))
        assert len(rows) == 3
        assert {row.model for row in rows} == {
            "Logistic Regression",
            "MLPClassifier",
            "Linear SVM",
        }
        accuracies = [row.accuracy for row in rows if not row.failed]
        assert accuracies == sorted(accuracies, reverse=True)

    def test_failing_model_is_isolated(self):
        # 6 records: enough for LR and SVM, below the MLP early-stopping minimum
        small = make_clean_records(n_per_class=(2, 2, 2), seed=5)
        rows = run_benchmark(small, SplitConfig(0, 0.4),
                             tfidf_config=TfidfConfig(min_df=1, max_df=1.0))
        by_model = {row.model: row for row in rows}
        assert by_model["MLPClassifier"].failed
        assert by_model["MLPClassifier"].error
        assert not by_model["Logistic Regression"].failed
        assert not by_model["Linear SVM"].failed
        assert rows[-1].failed  # failed rows sort last

    def test_rows_cover_reference_models(self, monkeypatch):
        # every model refused, so no accuracy reorders the rows
        trained = []

        def refuse(kind, X, y, config=None):
            trained.append((kind, config))
            raise TrainingError(f"{kind} refused")

        monkeypatch.setattr(sentiga.evaluation, "train_model", refuse)
        rows = run_benchmark(make_clean_records(n_per_class=(14, 14, 14), seed=4),
                             SplitConfig(seed=7),
                             tfidf_config=TfidfConfig(min_df=1, max_df=1.0))
        assert [(row.model, row.family) for row in rows] == [
            ("Logistic Regression", "Classical ML"),
            ("MLPClassifier", "Neural baseline"),
            ("Linear SVM", "Classical ML"),
        ]
        assert [row.error for row in rows] == ["logreg refused", "mlp refused", "svm refused"]
        assert [kind for kind, _ in trained] == ["logreg", "mlp", "svm"]
        assert all(config.seed == 7 for _, config in trained)

    def test_reference_corpus_rows_share_the_142_row_test_split(self):
        from sentiga.corpus import load_raw, prepare_corpus
        from sentiga.datasets import reference_corpus_path

        records = prepare_corpus(load_raw(reference_corpus_path()))
        rows = run_benchmark(records, SplitConfig(seed=42))
        assert len(rows) == 3
        assert not any(row.failed for row in rows)
        assert all(row.report.confusion.sum() == 142 for row in rows)
