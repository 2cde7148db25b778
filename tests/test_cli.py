import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import edit_bundle_payload, spell_index, write_raw_csv
import sentiga
from sentiga import export
from sentiga.cli import main


def run(*argv):
    return main(list(argv))


@pytest.fixture
def trained_bundle(small_raw_csv, tmp_path):
    bundle_path = tmp_path / "model.bundle"
    code = run(
        "train",
        "--data", str(small_raw_csv),
        "--bundle", str(bundle_path),
        "--min_df", "1", "--max_df", "1.0",
        "--seed", "7",
    )
    assert code == 0
    return bundle_path


class TestPreprocess:
    def test_writes_clean_corpus(self, small_raw_csv, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert run("preprocess", "--data", str(small_raw_csv), "--out-dir", str(out_dir)) == 0
        text = (out_dir / "clean_corpus.csv").read_text(encoding="utf-8")
        rows = list(csv.reader(text.splitlines()))
        assert rows[0] == ["clean_text", "label", "word_count", "engagement", "hashtag_count"]
        assert len(rows) == 61  # 60 records + header
        assert "prepared 60 records" in capsys.readouterr().out


class TestTrainEvaluatePredict:
    def test_train_writes_bundle_and_report(self, small_raw_csv, tmp_path, capsys):
        bundle_path = tmp_path / "m.bundle"
        code = run(
            "train", "--data", str(small_raw_csv), "--bundle", str(bundle_path),
            "--min_df", "1", "--max_df", "1.0",
        )
        assert code == 0
        assert bundle_path.exists()
        out = capsys.readouterr().out
        assert "accuracy" in out

    def test_train_requires_bundle_path(self, small_raw_csv):
        assert run("train", "--data", str(small_raw_csv)) == 2

    def test_train_twice_is_byte_identical(self, small_raw_csv, tmp_path):
        a, b = tmp_path / "a.bundle", tmp_path / "b.bundle"
        for path in (a, b):
            code = run(
                "train", "--data", str(small_raw_csv), "--bundle", str(path),
                "--min_df", "1", "--max_df", "1.0", "--seed", "42",
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_hyperparameter_overrides_reach_the_model(self, small_raw_csv, tmp_path):
        from sentiga.bundle import load_bundle

        bundle_path = tmp_path / "m.bundle"
        code = run(
            "train", "--data", str(small_raw_csv), "--bundle", str(bundle_path),
            "--min_df", "1", "--max_df", "1.0", "--C", "0.5", "--max_iter", "500",
            "--random_state", "7",
        )
        assert code == 0
        loaded = load_bundle(bundle_path)
        assert loaded.classifier.config.C == 0.5
        assert loaded.classifier.config.max_iter == 500
        assert loaded.classifier.config.seed == 7

    def test_evaluate_prints_metrics(self, trained_bundle, small_raw_csv, capsys):
        code = run("evaluate", "--data", str(small_raw_csv), "--bundle", str(trained_bundle))
        assert code == 0
        assert "weighted F1" in capsys.readouterr().out

    def test_predict_emits_json(self, trained_bundle, capsys):
        code = run(
            "predict", "--bundle", str(trained_bundle),
            "--text", "senang bagus keren banget", "--retweets", "2", "--likes", "3",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["class"] in ("negative", "neutral", "positive")
        assert payload["probabilistic"] is True
        proba = payload["probabilities"]
        assert abs(sum(proba.values()) - 1.0) < 1e-9

    def test_predict_on_svm_bundle_flags_scores(self, small_raw_csv, tmp_path, capsys):
        bundle_path = tmp_path / "svm.bundle"
        code = run(
            "train", "--data", str(small_raw_csv), "--bundle", str(bundle_path),
            "--model", "svm", "--min_df", "1", "--max_df", "1.0",
        )
        assert code == 0
        assert run("predict", "--bundle", str(bundle_path), "--text", "sedih") == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["probabilistic"] is False
        assert "decision_scores" in payload

    def test_predict_does_not_import_scipy(self, trained_bundle):
        script = (
            "import sys\n"
            "import sentiga\n"
            "from sentiga import cli\n"
            "code = cli.main(['predict', '--bundle', sys.argv[1], '--text', 'aku senang'])\n"
            "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        )
        src = str(Path(sentiga.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]
        )}
        proc = subprocess.run(
            [sys.executable, "-c", script, str(trained_bundle)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"


class TestBenchmarkExport:
    def test_benchmark_writes_table_with_extra_row(self, small_raw_csv, tmp_path, capsys):
        out_dir = tmp_path / "bench"
        code = run(
            "benchmark", "--data", str(small_raw_csv), "--out-dir", str(out_dir),
            "--min_df", "1", "--max_df", "1.0",
            "--extra-row", "Random Forest,Classical ML,0.7324,0.4821,0.6749",
        )
        assert code == 0
        text = (out_dir / export.BENCHMARK_FILE).read_text(encoding="utf-8")
        rows = list(csv.reader(text.splitlines()))
        assert rows[0] == list(export.BENCHMARK_HEADER)
        models = [r[0] for r in rows[1:]]
        assert set(models) == {
            "Logistic Regression", "MLPClassifier", "Linear SVM", "Random Forest",
        }
        forest = next(r for r in rows[1:] if r[0] == "Random Forest")
        assert forest[2] == "0.7324"

    def test_export_writes_four_tables(self, trained_bundle, tmp_path, capsys):
        out_dir = tmp_path / "tables"
        code = run("export", "--bundle", str(trained_bundle), "--out-dir", str(out_dir))
        assert code == 0
        for name in (
            export.BENCHMARK_FILE,
            export.PER_CLASS_FILE,
            export.HYPERPARAMETER_FILE,
            export.LABEL_MAPPING_FILE,
        ):
            assert (out_dir / name).exists()


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        assert run("frobnicate") == 2

    def test_missing_data_file_is_data_error(self, tmp_path, capsys):
        assert run("preprocess", "--data", str(tmp_path / "absent.csv")) == 3

    def test_schema_error_is_data_error(self, tmp_path, capsys):
        path = write_raw_csv(tmp_path / "bad.csv", [("a", "b")], header=("Text", "Junk"))
        assert run("preprocess", "--data", str(path)) == 3

    def test_unmapped_label_is_data_error_unless_dropped(self, tmp_path, capsys):
        rows = [("senang sekali", "NotAnEmotion", "1", "1", "")]
        path = write_raw_csv(tmp_path / "um.csv", rows)
        assert run("preprocess", "--data", str(path)) == 3
        assert run("preprocess", "--data", str(path), "--drop-unmapped",
                   "--out-dir", str(tmp_path)) == 0

    def test_single_class_training_is_training_error(self, tmp_path, capsys):
        rows = [(f"senang nomor u{spell_index(i)}", "Joy", "1", "1", "") for i in range(12)]
        path = write_raw_csv(tmp_path / "one.csv", rows)
        code = run(
            "train", "--data", str(path), "--bundle", str(tmp_path / "m.bundle"),
            "--min_df", "1", "--max_df", "1.0",
        )
        assert code in (3, 4)  # stratifier or learner rejects the degenerate labels

    def test_bad_config_value_is_usage_error(self, small_raw_csv, tmp_path, capsys):
        code = run(
            "train", "--data", str(small_raw_csv), "--bundle", str(tmp_path / "m.bundle"),
            "--max_df", "1.5",
        )
        assert code == 2

    def test_unsupported_solver_is_training_error(self, small_raw_csv, tmp_path, capsys):
        code = run(
            "train", "--data", str(small_raw_csv), "--bundle", str(tmp_path / "m.bundle"),
            "--min_df", "1", "--max_df", "1.0", "--solver", "saga",
        )
        assert code == 4

    def test_corrupt_bundle_is_io_error(self, trained_bundle, capsys):
        blob = bytearray(trained_bundle.read_bytes())
        blob[-5] ^= 0x01
        trained_bundle.write_bytes(bytes(blob))
        assert run("predict", "--bundle", str(trained_bundle), "--text", "halo") == 5

    def test_negative_counts_are_data_error(self, trained_bundle, capsys):
        code = run(
            "predict", "--bundle", str(trained_bundle), "--text", "aku senang",
            "--retweets", "-5", "--likes", "-100000",
        )
        assert code == 3
        assert "non-negative" in capsys.readouterr().err

    def test_bundle_missing_a_key_is_io_error(self, trained_bundle, capsys):
        edit_bundle_payload(trained_bundle, lambda data: data.pop("scaler"))
        assert run("predict", "--bundle", str(trained_bundle), "--text", "halo") == 5

    def test_bundle_with_wrong_shapes_is_io_error(self, trained_bundle, capsys):
        edit_bundle_payload(trained_bundle, lambda data: data["tfidf"]["idf"].pop())
        assert run("predict", "--bundle", str(trained_bundle), "--text", "halo") == 5

    def test_bundle_with_bad_leet_table_is_io_error(self, trained_bundle, capsys):
        edit_bundle_payload(trained_bundle, lambda data: data["leet"].update({"10": "i"}))
        assert run("predict", "--bundle", str(trained_bundle), "--text", "halo") == 5
        assert "leet key must be one digit" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0


class TestConfigErrors:
    def _train(self, small_raw_csv, tmp_path, *extra):
        return run(
            "train", "--data", str(small_raw_csv), "--bundle", str(tmp_path / "m.bundle"),
            "--min_df", "1", "--max_df", "1.0", *extra,
        )

    @pytest.mark.parametrize(
        "extra",
        [
            ("--model", "svm", "--regularization", "0"),
            ("--C", "-1"),
            ("--model", "mlp", "--hidden_layer_sizes", ","),
            ("--max_iter", "0"),
            ("--model", "svm", "--epochs", "0"),
        ],
        ids=" ".join,
    )
    def test_out_of_bounds_hyperparameter_is_usage_error(self, small_raw_csv, tmp_path,
                                                         capsys, extra):
        assert self._train(small_raw_csv, tmp_path, *extra) == 2
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "m.bundle").exists()

    def test_override_the_model_does_not_take_is_usage_error(self, small_raw_csv, tmp_path,
                                                             capsys):
        assert self._train(small_raw_csv, tmp_path, "--model", "svm", "--C", "5") == 2
        assert "--model svm does not take --C" in capsys.readouterr().err

    def test_benchmark_takes_no_model_hyperparameters(self, small_raw_csv, tmp_path, capsys):
        code = run("benchmark", "--data", str(small_raw_csv), "--out-dir", str(tmp_path),
                   "--C", "5")
        assert code == 2

    def test_bundle_with_out_of_bounds_config_is_io_error(self, trained_bundle, capsys):
        edit_bundle_payload(trained_bundle, lambda data: data["classifier"]["config"].update(C=-1))
        assert run("predict", "--bundle", str(trained_bundle), "--text", "halo") == 5


class TestCountOverflow:
    def _rows(self, first_counts):
        rows = []
        for i, label in enumerate(["Joy", "Sad", "Neutral"] * 10):
            counts = first_counts if i == 0 else ("1", "2")
            rows.append((f"kata {label.lower()} nomor u{spell_index(i)}", label, *counts, ""))
        return rows

    @pytest.mark.parametrize("cell", ["1e400", "inf"])
    def test_count_cell_beyond_float_range_is_data_error(self, tmp_path, capsys, cell):
        path = write_raw_csv(tmp_path / "big.csv", self._rows((cell, "1")))
        argv = ["train", "--data", str(path), "--bundle", str(tmp_path / "m.bundle"),
                "--min_df", "1", "--max_df", "1.0"]
        assert run(*argv) == 3
        assert "cannot parse retweets" in capsys.readouterr().err
        assert run(*argv, "--lenient") == 0

    def test_engagement_beyond_float_range_is_data_error(self, tmp_path, capsys):
        path = write_raw_csv(tmp_path / "big.csv", self._rows(("1e308", "1e308")))
        code = run("train", "--data", str(path), "--bundle", str(tmp_path / "m.bundle"),
                   "--min_df", "1", "--max_df", "1.0")
        assert code == 3

    def test_predict_count_beyond_float_range_is_data_error(self, trained_bundle, capsys):
        code = run("predict", "--bundle", str(trained_bundle), "--text", "aku senang",
                   "--retweets", "1" + "0" * 400)
        assert code == 3
        assert "data error" in capsys.readouterr().err


class TestFlagsPerCommand:
    """Each subcommand takes only the flags it reads; any other flag is a
    usage error instead of being silently ignored."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("predict", "--text", "aku senang", "--model", "svm"),
            ("predict", "--text", "aku senang", "--data", "/nonexistent.csv"),
            ("predict", "--text", "aku senang", "--seed", "5"),
            ("predict", "--text", "aku senang", "--slang", "/nonexistent"),
            ("predict", "--text", "aku senang", "--out-dir", "out"),
            ("evaluate", "--slang", "/nonexistent.txt"),
            ("evaluate", "--leet", "/nonexistent.txt"),
            ("evaluate", "--model", "svm"),
            ("evaluate", "--out-dir", "out"),
            ("export", "--seed", "5"),
            ("export", "--data", "/nonexistent.csv"),
            ("export", "--model", "svm"),
        ],
        ids=" ".join,
    )
    def test_flag_the_command_does_not_read_is_usage_error(self, trained_bundle, capsys,
                                                           argv):
        command, *rest = argv
        assert run(command, "--bundle", str(trained_bundle), *rest) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("preprocess", "--model", "svm"),
            ("preprocess", "--bundle", "m.bundle"),
            ("benchmark", "--model", "svm"),
            ("benchmark", "--bundle", "m.bundle"),
            ("train", "--bundle", "m.bundle", "--out-dir", "out"),
        ],
        ids=" ".join,
    )
    def test_corpus_command_flag_it_does_not_read_is_usage_error(self, small_raw_csv, capsys,
                                                                 argv):
        command, *rest = argv
        assert run(command, "--data", str(small_raw_csv), *rest) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
