import csv
import os
import stat

import numpy as np
import pytest

from sentiga.corpus import LabelMap, SentimentClass, default_label_map
from sentiga.evaluation import BenchmarkRow, report
from sentiga.export import (
    BENCHMARK_FILE,
    BENCHMARK_HEADER,
    HYPERPARAMETER_FILE,
    HYPERPARAMETER_HEADER,
    LABEL_MAPPING_FILE,
    LABEL_MAPPING_HEADER,
    MINI_LABELS,
    PER_CLASS_FILE,
    PER_CLASS_HEADER,
    export_tables,
    write_csv_atomic,
)
from sentiga.features import TfidfConfig
from sentiga.learners import LogRegConfig, MlpConfig

REFERENCE_CM = np.array([[26, 0, 12], [2, 7, 3], [7, 4, 81]])


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


@pytest.fixture
def reference_report():
    return report(REFERENCE_CM)


@pytest.fixture
def benchmark_rows():
    return [
        BenchmarkRow("Logistic Regression", "Classical ML", 0.8028, 0.7276, 0.8003),
        BenchmarkRow("Broken Model", "Classical ML", None, None, None, failed=True, error="x"),
    ]


@pytest.fixture
def inputs(reference_report, benchmark_rows):
    """Every input of export_tables, as `sentiga export` passes them."""
    return {
        "report": reference_report,
        "benchmark": benchmark_rows,
        "tfidf_config": TfidfConfig(),
        "model_configs": {"logreg": LogRegConfig()},
        "label_map": default_label_map(),
    }


class TestExportTables:
    def test_writes_all_four_tables(self, tmp_path, inputs):
        written = export_tables(tmp_path, **inputs)
        assert set(written) == {
            BENCHMARK_FILE,
            PER_CLASS_FILE,
            HYPERPARAMETER_FILE,
            LABEL_MAPPING_FILE,
        }
        for path in written.values():
            assert path.exists()

    def test_headers_are_fixed(self, tmp_path, inputs):
        written = export_tables(tmp_path, **inputs)
        assert read_csv(written[BENCHMARK_FILE])[0] == list(BENCHMARK_HEADER)
        assert read_csv(written[PER_CLASS_FILE])[0] == list(PER_CLASS_HEADER)
        assert read_csv(written[HYPERPARAMETER_FILE])[0] == list(HYPERPARAMETER_HEADER)
        assert read_csv(written[LABEL_MAPPING_FILE])[0] == list(LABEL_MAPPING_HEADER)

    def test_per_class_rows_match_reference_at_four_decimals(self, tmp_path, inputs):
        written = export_tables(tmp_path, **inputs)
        rows = read_csv(written[PER_CLASS_FILE])[1:]
        expected = {
            "negative": ("0.7429", "0.6842", "0.7123", "38"),
            "neutral": ("0.6364", "0.5833", "0.6087", "12"),
            "positive": ("0.8438", "0.8804", "0.8617", "92"),
        }
        assert len(rows) == 3
        for name, precision, recall, f1, support in rows:
            assert (precision, recall, f1, support) == expected[name]

    def test_exported_values_reparse_to_report_values(self, tmp_path, inputs):
        written = export_tables(tmp_path, **inputs)
        rows = read_csv(written[PER_CLASS_FILE])[1:]
        by_name = {m.name: m for m in inputs["report"].per_class}
        for name, precision, recall, f1, support in rows:
            metric = by_name[name]
            assert float(precision) == pytest.approx(metric.precision, abs=5e-5)
            assert float(recall) == pytest.approx(metric.recall, abs=5e-5)
            assert float(f1) == pytest.approx(metric.f1, abs=5e-5)
            assert int(support) == metric.support

    def test_benchmark_rows_render_failures(self, tmp_path, inputs):
        written = export_tables(tmp_path, **inputs)
        rows = read_csv(written[BENCHMARK_FILE])[1:]
        assert rows[0] == ["Logistic Regression", "Classical ML", "0.8028", "0.7276", "0.8003"]
        assert rows[1][2:] == ["failed", "failed", "failed"]

    def test_hyperparameter_table_contains_reference_rows(self, tmp_path, inputs):
        written = export_tables(tmp_path, **inputs)
        rows = {tuple(r) for r in read_csv(written[HYPERPARAMETER_FILE])[1:]}
        assert ("Logistic Regression", "C", "2.0") in rows
        assert ("Logistic Regression", "class_weight", "balanced") in rows
        assert ("Logistic Regression", "solver", "lbfgs") in rows
        assert ("Logistic Regression", "max_iter", "2000") in rows
        assert ("Logistic Regression", "random_state", "42") in rows
        assert ("TF-IDF", "max_features", "3000") in rows
        assert ("TF-IDF", "min_df", "2") in rows
        assert ("TF-IDF", "max_df", "0.9") in rows
        assert ("TF-IDF", "ngram_range", "(1, 2)") in rows
        assert ("TF-IDF", "sublinear_tf", "True") in rows

    def test_no_class_weighting_renders_as_none(self, tmp_path, inputs):
        configs = {"logreg": LogRegConfig(class_weight=None), "mlp": MlpConfig()}
        written = export_tables(tmp_path, **inputs | {"model_configs": configs})
        rows = {tuple(r) for r in read_csv(written[HYPERPARAMETER_FILE])[1:]}
        assert ("Logistic Regression", "class_weight", "none") in rows
        assert ("MLPClassifier", "batch_size", "none") in rows

    def test_label_mapping_mini_table(self, tmp_path, inputs):
        written = export_tables(tmp_path, **inputs)
        rows = read_csv(written[LABEL_MAPPING_FILE])[1:]
        assert [raw_label for raw_label, _ in rows] == list(MINI_LABELS)
        for raw_label, mapped in rows:
            assert default_label_map().lookup(raw_label).label == mapped
        assert rows[0] == ["Joy", "positive"]
        assert rows[-1] == ["Curiosity", "neutral"]

    def test_label_mapping_follows_custom_map(self, tmp_path, inputs):
        custom = LabelMap(entries={"joy": SentimentClass.NEGATIVE})
        written = export_tables(tmp_path, **inputs | {"label_map": custom})
        rows = read_csv(written[LABEL_MAPPING_FILE])[1:]
        assert rows == [["Joy", "negative"]]  # the labels the map lacks are left out


class TestWriteCsvAtomic:
    def test_lf_line_endings_and_utf8(self, tmp_path):
        path = write_csv_atomic(tmp_path / "t.csv", ("A", "B"), [("x", "ý")])
        blob = path.read_bytes()
        assert b"\r\n" not in blob
        assert blob.decode("utf-8") == "A,B\nx,ý\n"

    def test_no_temp_file_left_behind(self, tmp_path):
        write_csv_atomic(tmp_path / "t.csv", ("A",), [("1",)])
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    def test_file_mode_is_what_open_gives_under_the_umask(self, tmp_path):
        for umask, mode in [(0o022, 0o644), (0o077, 0o600)]:
            previous = os.umask(umask)
            try:
                path = write_csv_atomic(tmp_path / f"{umask:o}.csv", ("A",), [("1",)])
            finally:
                os.umask(previous)
            assert stat.S_IMODE(path.stat().st_mode) == mode, f"umask {umask:o}"

    def test_unwritable_destination_raises_oserror(self, tmp_path):
        # the parent "directory" is a regular file, so the write must fail
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory", encoding="utf-8")
        with pytest.raises(OSError):
            write_csv_atomic(blocker / "t.csv", ("A",), [("1",)])
