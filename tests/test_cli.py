import argparse
import ast
import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import edit_bundle_payload, spell_index, write_raw_csv
import sentiga
import sentiga.bundle
import sentiga.cli
import sentiga.evaluation
import sentiga.learners
from sentiga import export
from sentiga.cli import build_parser, main
from sentiga.corpus import SentimentClass, default_label_map, default_label_map_path
from sentiga.datasets import reference_corpus_path
from sentiga.errors import BundleError, DataError, SentigaError, TrainingError
from sentiga.evaluation import SplitConfig
from sentiga.features import TfidfConfig
from sentiga.model import LEARNERS


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

    def test_train_requires_bundle_path(self, small_raw_csv, capsys):
        assert run("train", "--data", str(small_raw_csv)) == 2
        assert "the following arguments are required: --bundle" in capsys.readouterr().err

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

    def test_mlp_overrides_reach_the_model(self, small_raw_csv, tmp_path):
        from sentiga.bundle import load_bundle

        bundle_path = tmp_path / "m.bundle"
        code = run(
            "train", "--data", str(small_raw_csv), "--bundle", str(bundle_path),
            "--min_df", "1", "--max_df", "1.0", "--model", "mlp", "--hidden_layer_sizes", "8",
            "--batch_size", "none", "--patience", "0", "--validation_fraction", "0.25",
            "--improvement_tol", "0",
        )
        assert code == 0
        config = load_bundle(bundle_path).classifier.config
        assert (config.batch_size, config.patience) == (None, 0)
        assert (config.validation_fraction, config.improvement_tol) == (0.25, 0.0)

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

    @pytest.mark.parametrize("kind", ["logreg", "svm", "mlp"])
    def test_predict_does_not_import_scipy(self, small_raw_csv, tmp_path, kind):
        """`sentiga predict`, run the way `python -m sentiga` runs it, imports
        only the serving modules, and on a logreg or SVM bundle no numpy."""
        bundle_path = tmp_path / f"{kind}.bundle"
        assert run("train", "--data", str(small_raw_csv), "--bundle", str(bundle_path),
                   "--model", kind, "--min_df", "1", "--max_df", "1.0") == 0
        script = (
            "import runpy, sys\n"
            "try:\n"
            "    runpy.run_module('sentiga', run_name='__main__', alter_sys=True)\n"
            "finally:\n"
            "    print(sorted(m for m in sys.modules\n"
            "                 if m.split('.')[0] in ('sentiga', 'scipy', 'numpy')),\n"
            "          file=sys.stderr)\n"
        )
        src = str(Path(sentiga.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]
        )}
        proc = subprocess.run(
            [sys.executable, "-c", script, "predict", "--bundle", str(bundle_path),
             "--text", "aku senang"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["class"] in ("negative", "neutral", "positive")
        loaded = set(ast.literal_eval(proc.stderr.splitlines()[-1])) - {"sentiga.__main__"}
        assert not any(m.split(".")[0] == "scipy" for m in loaded)
        assert any(m.split(".")[0] == "numpy" for m in loaded) == (kind == "mlp")
        assert {m for m in loaded if m.split(".")[0] == "sentiga"} == {
            "sentiga", "sentiga.cli", "sentiga.bundle", "sentiga.model", "sentiga.textnorm",
            "sentiga.errors",
        }


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

    def test_export_spells_unweighted_class_weight_as_the_flag(self, small_raw_csv, tmp_path):
        bundle_path, out_dir = tmp_path / "m.bundle", tmp_path / "tables"
        assert run(
            "train", "--data", str(small_raw_csv), "--bundle", str(bundle_path),
            "--min_df", "1", "--max_df", "1.0", "--class_weight", "none",
        ) == 0
        assert run("export", "--bundle", str(bundle_path), "--out-dir", str(out_dir)) == 0
        text = (out_dir / export.HYPERPARAMETER_FILE).read_text(encoding="utf-8")
        assert "Logistic Regression,class_weight,none\n" in text


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

    def test_unsupported_solver_is_usage_error(self, small_raw_csv, tmp_path, capsys):
        code = run(
            "train", "--data", str(small_raw_csv), "--bundle", str(tmp_path / "m.bundle"),
            "--min_df", "1", "--max_df", "1.0", "--solver", "saga",
        )
        assert code == 2
        assert "unsupported solver: 'saga'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--model", "mlp", "--activation", "tanh"), "unsupported activation: 'tanh'"),
            (("--solver", "saga"), "unsupported solver: 'saga'"),
            (("--class_weight", "bogus"), "usage error: unsupported class_weight: 'bogus'"),
            (("--model", "mlp", "--random_state=-1"), "seed must be non-negative, got -1"),
            (("--max_features=-2",), "max_features must be at least 1, got -2"),
            (("--max_features", "0"), "max_features must be at least 1, got 0"),
            (("--model", "mlp", "--improvement_tol", "-1"),
             "improvement_tol must be non-negative, got -1.0"),
            (("--ngram_range", "3"),
             "usage error: ngram_range must be a pair lo,hi with 1 <= lo <= hi, got (3,)"),
            (("--ngram_range", "2,1"),
             "usage error: ngram_range must be a pair lo,hi with 1 <= lo <= hi, got (2, 1)"),
            (("--min_df", "0"), "usage error: min_df must be at least 1, got 0"),
            (("--max_df", "2"), "usage error: max_df must be in (0, 1], got 2.0"),
        ],
        ids=["activation", "solver", "class_weight", "random_state", "max_features-negative",
             "max_features-zero", "improvement_tol", "ngram_range-single", "ngram_range-reversed",
             "min_df-zero", "max_df-above-1"],
    )
    def test_unsupported_option_is_refused_before_the_data_is_read(
        self, tmp_path, capsys, flags, message
    ):
        # a missing --data file would be exit 3; the option is checked first
        code = run("train", "--data", "/nonexistent.csv",
                   "--bundle", str(tmp_path / "m.bundle"), *flags)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "m.bundle").exists()

    @pytest.mark.parametrize(
        "command",
        [("train", "--bundle", "m.bundle"), ("benchmark",), ("evaluate", "--bundle", "m.bundle")],
        ids=lambda command: command[0],
    )
    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--seed=-1", "usage error: seed must be non-negative, got -1"),
            ("--seed=-3", "usage error: seed must be non-negative, got -3"),
            ("--test-fraction=2", "usage error: test_fraction must be in (0, 1), got 2.0"),
            ("--test-fraction=0", "usage error: test_fraction must be in (0, 1), got 0.0"),
            ("--test-fraction=nan", "usage error: test_fraction must be finite, got nan"),
        ],
        ids=["seed=-1", "seed=-3", "test-fraction=2", "test-fraction=0", "test-fraction=nan"],
    )
    def test_split_out_of_bounds_is_usage_error_before_the_data_is_read(
        self, tmp_path, monkeypatch, capsys, command, flag, message
    ):
        # numpy's generators take no negative seed (for --random_state, see
        # the test above); a missing --data file would be exit 3, and
        # evaluate's missing bundle exit 5
        monkeypatch.chdir(tmp_path)
        assert run(*command, flag, "--data", "/nonexistent.csv") == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [("train",), ("evaluate",), ("predict", "--text", "halo"), ("export",)],
        ids=lambda argv: argv[0],
    )
    def test_empty_bundle_path_is_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        command, *rest = argv
        assert run(command, "--bundle", "", *rest) == 2
        assert "--bundle: expected a path, got an empty string" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # refused before any work

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

    def test_bundle_with_nan_weight_is_io_error(self, trained_bundle, capsys):
        def edit(data):
            data["classifier"]["b"][0] = float("nan")

        edit_bundle_payload(trained_bundle, edit)
        assert run("predict", "--bundle", str(trained_bundle), "--text", "aku senang") == 5
        out, err = capsys.readouterr()
        assert out == ""
        assert "NaN or infinite" in err

    def test_bundle_with_fractional_confusion_count_is_io_error(self, trained_bundle, capsys):
        def edit(data):
            data["metrics_snapshot"]["confusion"][1][1] = 2.5

        edit_bundle_payload(trained_bundle, edit)
        assert run("predict", "--bundle", str(trained_bundle), "--text", "aku senang") == 5
        assert "whole numbers" in capsys.readouterr().err

    def test_overflowing_scaled_metadata_is_training_error(self, trained_bundle, capsys):
        edit_bundle_payload(trained_bundle, lambda data: data["scaler"].update(stds=[5e-324] * 3))
        assert run("predict", "--bundle", str(trained_bundle), "--text", "aku senang") == 4
        assert "non-finite" in capsys.readouterr().err

    def test_export_of_bundle_with_nan_metric_is_io_error(self, trained_bundle, tmp_path,
                                                          capsys):
        edit_bundle_payload(
            trained_bundle, lambda data: data["metrics_snapshot"].update(accuracy=float("nan"))
        )
        out_dir = tmp_path / "tables"
        assert run("export", "--bundle", str(trained_bundle), "--out-dir", str(out_dir)) == 5
        assert "finite" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_bundle_with_bad_leet_table_is_io_error(self, trained_bundle, capsys):
        edit_bundle_payload(trained_bundle, lambda data: data["leet"].update({"10": "i"}))
        assert run("predict", "--bundle", str(trained_bundle), "--text", "halo") == 5
        assert "leet key must be one digit" in capsys.readouterr().err

    @pytest.mark.parametrize("table, edit", [
        ("slang", lambda data: data["slang"].update({"gk": "bukan"})),
        ("leet", lambda data: data["leet"].pop("3")),
    ])
    def test_bundle_with_stale_table_digest_is_io_error(self, trained_bundle, capsys,
                                                          table, edit):
        edit_bundle_payload(trained_bundle, edit)
        assert run("predict", "--bundle", str(trained_bundle), "--text", "halo") == 5
        assert f"{table}_digest does not match" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda data: data["tfidf"]["idf"].__setitem__(0, "1.5"),
            lambda data: data["scaler"]["means"].__setitem__(0, True),
            lambda data: data.update(label_map_digest=5),
        ],
        ids=["idf-string-entry", "mean-boolean-entry", "label-map-digest-number"],
    )
    def test_bundle_value_of_the_wrong_json_type_is_io_error(self, trained_bundle, capsys,
                                                             edit):
        edit_bundle_payload(trained_bundle, edit)
        assert run("predict", "--bundle", str(trained_bundle), "--text", "aku senang") == 5
        out, err = capsys.readouterr()
        assert out == "" and "malformed payload" in err

    def test_malformed_extra_row_is_usage_error_before_training(self, small_raw_csv, tmp_path,
                                                               capsys, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("run_benchmark called before --extra-row was parsed")

        monkeypatch.setattr(sentiga.evaluation, "run_benchmark", no_training)
        code = run("benchmark", "--data", str(small_raw_csv), "--out-dir", str(tmp_path),
                   "--extra-row", "Random Forest,Classical ML,0.7,high,0.6")
        assert code == 2
        assert "--extra-row" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ("--model", "logreg", "--C", "1e300"),
            ("--model", "svm", "--regularization", "1e-300"),
            ("--model", "mlp", "--learning_rate_init", "1e300"),
        ],
        ids=" ".join,
    )
    def test_training_that_overflows_is_training_error(self, small_raw_csv, tmp_path, capsys,
                                                       flags):
        bundle_path = tmp_path / "m.bundle"
        code = run("train", "--data", str(small_raw_csv), "--bundle", str(bundle_path),
                   "--min_df", "1", *flags)
        assert code == 4
        assert "diverged" in capsys.readouterr().err
        assert not bundle_path.exists()

    def test_model_too_large_to_allocate_is_training_error(self, small_raw_csv, tmp_path,
                                                           capsys):
        # a first layer of 8 PiB or more, beyond any address space, so numpy
        # refuses it at once; a width that could be allocated is never tried
        bundle_path = tmp_path / "m.bundle"
        code = run("train", "--data", str(small_raw_csv), "--bundle", str(bundle_path),
                   "--min_df", "1", "--model", "mlp", "--hidden_layer_sizes", "1000000000000")
        err = capsys.readouterr().err
        assert code == 4
        assert "mlp model is too large to allocate" in err
        assert "Traceback" not in err
        assert not bundle_path.exists()

    def test_bundle_in_a_missing_directory_is_io_error_naming_the_bundle(
        self, small_raw_csv, tmp_path, capsys
    ):
        bundle_path = tmp_path / "nodir" / "m.bundle"
        code = run("train", "--data", str(small_raw_csv), "--bundle", str(bundle_path),
                   "--min_df", "1")
        assert code == 5
        assert f"No such file or directory: '{bundle_path}'" in capsys.readouterr().err
        assert not bundle_path.parent.exists()

    def test_bundle_path_that_is_a_directory_is_io_error_naming_the_bundle(
        self, small_raw_csv, tmp_path, capsys
    ):
        # the temp file is written, then the rename onto the directory fails
        bundle_path = tmp_path / "m.bundle"
        bundle_path.mkdir()
        code = run("train", "--data", str(small_raw_csv), "--bundle", str(bundle_path),
                   "--min_df", "1")
        err = capsys.readouterr().err
        assert code == 5
        assert f"Is a directory: '{bundle_path}'" in err
        assert ".tmp" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [bundle_path.name, small_raw_csv.name]
        )
        assert not any(bundle_path.iterdir())

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize(
        "model, flag",
        [
            ("logreg", "--C"),
            ("logreg", "--tol"),
            ("mlp", "--alpha"),
            ("mlp", "--learning_rate_init"),
            ("svm", "--regularization"),
        ],
    )
    def test_non_finite_hyperparameter_is_usage_error(self, small_raw_csv, tmp_path, capsys,
                                                      monkeypatch, model, flag, value):
        def no_training(*args, **kwargs):
            raise AssertionError(f"trained with {flag} {value}")

        for name in ("train_logreg", "train_mlp", "train_linear_svm"):
            monkeypatch.setattr(sentiga.learners, name, no_training)
        bundle_path = tmp_path / "m.bundle"
        code = run("train", "--data", str(small_raw_csv), "--bundle", str(bundle_path),
                   "--min_df", "1", "--model", model, f"{flag}={value}")
        assert code == 2
        assert f"{flag.removeprefix('--')} must be" in capsys.readouterr().err
        assert not bundle_path.exists()

    @pytest.mark.parametrize(
        "extra_row",
        ["A,B,nan,1,1", "C,D,inf,0.5,0.5", "C,D,0.5,-3,0.5", "C,D,0.5,0.5,7", "C,D,0.5,-inf,1"],
    )
    def test_extra_row_metric_outside_unit_interval_is_usage_error(
        self, trained_bundle, small_raw_csv, tmp_path, capsys, monkeypatch, extra_row
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("run_benchmark called before --extra-row was parsed")

        monkeypatch.setattr(sentiga.evaluation, "run_benchmark", no_training)
        out_dir = tmp_path / "tables"
        for argv in (
            ["export", "--bundle", str(trained_bundle)],
            ["benchmark", "--data", str(small_raw_csv)],
        ):
            code = run(*argv, "--out-dir", str(out_dir), "--extra-row", extra_row)
            assert code == 2
            assert "must be in [0, 1]" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_extra_rows_at_the_bounds_rank_by_accuracy(self, trained_bundle, tmp_path, capsys):
        out_dir = tmp_path / "tables"
        code = run("export", "--bundle", str(trained_bundle), "--out-dir", str(out_dir),
                   "--extra-row", "Bottom,X,0,0,0", "--extra-row", "Top,X,1,1,1")
        assert code == 0
        text = (out_dir / export.BENCHMARK_FILE).read_text(encoding="utf-8")
        models = [row[0] for row in csv.reader(text.splitlines()[1:])]
        assert models.index("Top") < models.index("Bottom") == len(models) - 1

    @pytest.mark.parametrize("extra_rows", [
        [",,0.5,0.5,0.5", "Logistic Regression,X,1,1,1"],  # refused before the repeated name
        [" ,X,0.5,0.5,0.5"],
        ["M,,1,1,1"],
    ], ids=["unnamed-then-repeated", "blank-model", "no-family"])
    def test_extra_row_without_model_or_family_is_usage_error(
        self, trained_bundle, small_raw_csv, tmp_path, capsys, monkeypatch, extra_rows
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("run_benchmark called before --extra-row was parsed")

        monkeypatch.setattr(sentiga.evaluation, "run_benchmark", no_training)
        out_dir = tmp_path / "tables"
        flags = [arg for row in extra_rows for arg in ("--extra-row", row)]
        for argv in (
            ["export", "--bundle", str(trained_bundle)],
            ["benchmark", "--data", str(small_raw_csv)],
        ):
            code = run(*argv, "--out-dir", str(out_dir), *flags)
            assert code == 2
            assert "argument --extra-row: MODEL and FAMILY must be non-empty" in (
                capsys.readouterr().err)
        assert not out_dir.exists()

    @pytest.mark.parametrize("extra_rows", [
        ["Logistic Regression,X,1,1,1"],  # the name of a trained model
        ["Twice,X,0.5,0.5,0.5", "Twice,Y,0.6,0.6,0.6"],
    ], ids=["trained-name", "two-extra-rows"])
    def test_extra_row_repeating_a_model_name_is_usage_error(
        self, trained_bundle, small_raw_csv, tmp_path, capsys, extra_rows
    ):
        out_dir = tmp_path / "tables"
        flags = [arg for row in extra_rows for arg in ("--extra-row", row)]
        for argv in (
            ["export", "--bundle", str(trained_bundle)],
            ["benchmark", "--data", str(small_raw_csv), "--min_df", "1"],
        ):
            code = run(*argv, "--out-dir", str(out_dir), *flags)
            out, err = capsys.readouterr()
            assert code == 2
            assert out == "" and err.startswith("usage error: benchmark rows repeat the model ")
        assert not out_dir.exists()

    def test_evaluate_with_every_record_dropped_is_data_error(self, trained_bundle,
                                                              tmp_path, capsys):
        # the bundle's own label map, which maps none of these labels
        rows = [(f"senang bagus nomor u{spell_index(i)}", "NotAnEmotion", "1", "2", "")
                for i in range(6)]
        path = write_raw_csv(tmp_path / "unmapped.csv", rows)
        code = run("evaluate", "--data", str(path), "--bundle", str(trained_bundle),
                   "--drop-unmapped", "--label-map", str(default_label_map_path()))
        assert code == 3
        assert "no records to split" in capsys.readouterr().err

    @pytest.mark.parametrize("version", ["0", "-1"])
    def test_bundle_version_below_one_is_io_error(self, trained_bundle, capsys, version):
        lines = trained_bundle.read_text(encoding="utf-8").split("\n")
        lines[0] = f"SENTIGA-BUNDLE v{version}"
        trained_bundle.write_text("\n".join(lines), encoding="utf-8")
        assert run("predict", "--bundle", str(trained_bundle), "--text", "senang") == 5
        assert "malformed version header" in capsys.readouterr().err

    @pytest.mark.parametrize("fraction", [5.0, 0])
    def test_bundle_with_split_out_of_bounds_is_io_error(self, trained_bundle, capsys, fraction):
        edit_bundle_payload(trained_bundle, lambda data: data.update(test_fraction=fraction))
        assert run("predict", "--bundle", str(trained_bundle), "--text", "senang") == 5
        assert "test_fraction must be in (0, 1)" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0


class TestErrorReporting:
    """`main` reports every failure by its error class's `kind` and
    `exit_code`, whichever command raises it."""

    PREDICT = ("predict", "--bundle", "m.bundle", "--text", "halo")

    @pytest.fixture
    def raising(self, monkeypatch):
        def install(exc):
            def command(args):
                raise exc

            monkeypatch.setattr(sentiga.cli, "cmd_predict", command)

        return install

    @pytest.mark.parametrize(
        "cls, prefix, code",
        [
            (SentigaError, "usage", 2),
            (DataError, "data", 3),
            (TrainingError, "training", 4),
            (BundleError, "i/o", 5),
            (OSError, "i/o", 5),
        ],
        ids=lambda value: getattr(value, "__name__", str(value)),
    )
    def test_each_error_class_exits_with_its_code_and_prefix(self, raising, capsys, cls,
                                                             prefix, code):
        raising(cls("x"))
        assert run(*self.PREDICT) == code
        out, err = capsys.readouterr()
        assert out == "" and err == f"{prefix} error: x\n"

    def test_plain_sentiga_error_is_usage_error_without_traceback(self):
        script = (
            "import sys, sentiga.cli as cli\n"
            "from sentiga.errors import SentigaError\n"
            "def command(args): raise SentigaError('x')\n"
            "cli.cmd_predict = command\n"
            f"sys.exit(cli.main({list(self.PREDICT)!r}))\n"
        )
        env = os.environ | {"PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "usage error: x\n")

    def test_bad_extra_row_is_refused_before_the_bundle_is_read(self, tmp_path, capsys,
                                                                monkeypatch):
        def no_load(*args, **kwargs):
            raise AssertionError("load_bundle called before --extra-row was parsed")

        monkeypatch.setattr(sentiga.bundle, "load_bundle", no_load)
        code = run("export", "--bundle", str(tmp_path / "missing.bundle"),
                   "--out-dir", str(tmp_path / "out"), "--extra-row", "bad")
        assert code == 2
        err = capsys.readouterr().err
        assert "sentiga export: error: argument --extra-row: expects MODEL,FAMILY" in err
        assert not (tmp_path / "out").exists()


def write_unreadable_files(root, bundle):
    """Inputs that no reader can decode: a Latin-1 CSV, a Latin-1 pairs
    file, `bundle` with one Latin-1 byte in its payload, a CSV whose
    unclosed quote runs past the csv module's 128 KiB field limit, and a
    bundle whose checksummed payload nests 100,000 arrays deep."""
    paths = {key: root / name for key, name in [
        ("latin1_csv", "latin1.csv"), ("latin1_pairs", "latin1.txt"),
        ("latin1_bundle", "latin1.bundle"), ("unclosed", "unclosed.csv"),
        ("nested_bundle", "nested.bundle"),
    ]}
    header = "Text,Sentiment,Retweets,Likes\n"
    paths["latin1_csv"].write_bytes(f"{header}café,Joy,1,1\n".encode("latin-1"))
    paths["latin1_pairs"].write_bytes("café,joy\n".encode("latin-1"))
    paths["latin1_bundle"].write_bytes(bundle.read_bytes().replace(b"{", b"\xe9{", 1))
    paths["unclosed"].write_text(f'{header}"' + "a" * 140_000, encoding="utf-8")
    nested = "[" * 100_000 + "]" * 100_000  # deeper than the JSON decoder recurses
    digest = hashlib.sha256(nested.encode("utf-8")).hexdigest()
    paths["nested_bundle"].write_text(f"SENTIGA-BUNDLE v1\nsha256:{digest}\n{nested}\n",
                                      encoding="utf-8")
    return paths


class TestUnreadableFiles:
    """A file that does not decode or parse is a typed error, not a
    traceback: exit 3 for data, 5 for a bundle."""

    @pytest.fixture
    def files(self, trained_bundle, tmp_path):
        return write_unreadable_files(tmp_path, trained_bundle)

    def _run(self, capsys, *argv):
        code = run(*argv)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return code, err

    @pytest.mark.parametrize("key", ["latin1_csv", "unclosed"])
    def test_unreadable_csv_is_data_error(self, files, tmp_path, capsys, key):
        code, err = self._run(capsys, "preprocess", "--data", str(files[key]),
                              "--out-dir", str(tmp_path / "out"))
        assert code == 3
        assert f"{files[key].name}: unreadable after line" in err

    @pytest.mark.parametrize("flag", ["--label-map", "--slang", "--leet"])
    def test_pairs_file_that_is_not_utf8_is_data_error(self, files, small_raw_csv, tmp_path,
                                                        capsys, flag):
        code, err = self._run(capsys, "preprocess", "--data", str(small_raw_csv),
                              flag, str(files["latin1_pairs"]), "--out-dir", str(tmp_path))
        assert code == 3
        assert "latin1.txt: not UTF-8 text" in err

    def test_bundle_that_is_not_utf8_is_io_error(self, files, capsys):
        code, err = self._run(capsys, "predict", "--bundle", str(files["latin1_bundle"]),
                              "--text", "halo")
        assert code == 5
        assert "latin1.bundle: not UTF-8 text" in err

    def test_bundle_nested_too_deep_is_io_error(self, files, capsys):
        code, err = self._run(capsys, "predict", "--bundle", str(files["nested_bundle"]),
                              "--text", "halo")
        assert code == 5
        assert "nested.bundle: unparseable payload" in err


class TestCsvHeader:
    def test_repeated_bound_header_is_data_error_naming_the_column(self, tmp_path, capsys):
        path = write_raw_csv(tmp_path / "dup.csv", [("halo", "Joy", "1", "1", "")],
                             header=("Text", "Sentiment", "Retweets", "Likes", "Text"))
        assert run("preprocess", "--data", str(path), "--out-dir", str(tmp_path)) == 3
        assert "header repeats 'text', the 'text' column" in capsys.readouterr().err

    def test_label_map_repeating_a_bundled_key_is_data_error(self, small_raw_csv, tmp_path,
                                                             capsys):
        # the bundled map holds Joy,positive; before, the appended line won
        label_map = tmp_path / "labels.txt"
        label_map.write_text(default_label_map_path().read_text(encoding="utf-8")
                             + "joy,negative\n", encoding="utf-8")
        code = run("train", "--data", str(small_raw_csv), "--bundle", str(tmp_path / "m.bundle"),
                   "--label-map", str(label_map), "--min_df", "1", "--max_df", "1.0")
        assert code == 3
        assert f"data error: {label_map}: line" in capsys.readouterr().err
        assert not (tmp_path / "m.bundle").exists()

    def test_four_column_reference_corpus_trains_the_reference_bundle(self, tmp_path, capsys):
        """The Hashtags column feeds nothing: without it, `train` writes the
        bytes of TestReferenceBundleBytes."""
        with reference_corpus_path().open(encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0][4] == "Hashtags"
        data = write_raw_csv(tmp_path / "four.csv", [row[:4] for row in rows[1:]],
                             header=rows[0][:4])
        path = tmp_path / "logreg.bundle"
        assert run("train", "--data", str(data), "--bundle", str(path)) == 0
        assert _sha256(path) == TestReferenceBundleBytes.DIGESTS["logreg"]


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

    @pytest.mark.parametrize(
        "flag, value",
        [("--hidden_layer_sizes", "8,,4"), ("--ngram_range", ",1,2"),
         ("--hidden_layer_sizes", "8,")],
    )
    def test_empty_part_beside_a_number_is_refused_at_parse_time(self, tmp_path, capsys,
                                                                 flag, value):
        # the data file does not exist: parsing refuses the value before it is read
        code = run("train", "--data", str(tmp_path / "missing.csv"),
                   "--bundle", str(tmp_path / "m.bundle"), "--model", "mlp", flag, value)
        assert code == 2
        assert f"argument {flag}: expected comma-separated integers, got {value!r}" in (
            capsys.readouterr().err
        )

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

    def test_bundle_config_that_disagrees_with_its_layers_is_io_error(self, small_raw_csv,
                                                                      tmp_path, capsys):
        path = tmp_path / "m.bundle"
        assert self._train(small_raw_csv, tmp_path, "--model", "mlp",
                           "--hidden_layer_sizes", "8") == 0
        edit_bundle_payload(path, lambda data: data["classifier"]["config"].update(
            hidden_layer_sizes=[256, 64]))
        out_dir = tmp_path / "tables"
        assert run("export", "--bundle", str(path), "--out-dir", str(out_dir)) == 5
        assert "hidden widths (8,), its config declares (256, 64)" in capsys.readouterr().err
        assert not out_dir.exists()


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


def _subcommand(command: str) -> argparse.ArgumentParser:
    """`command`'s parser, as `build_parser` declares it."""
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return commands.choices[command]


def _override_flags(command: str) -> list[str]:
    """The flags of `command`'s override groups."""
    return [
        option
        for group in _subcommand(command)._action_groups if "overrides" in group.title
        for action in group._group_actions for option in action.option_strings
    ]


class TestOverrideFlags:
    """The override flags are derived from the config dataclasses: one per
    field, under the field's public name."""

    def test_train_takes_one_flag_per_config_field(self):
        configs = [TfidfConfig, *(learner.config for learner in LEARNERS.values())]
        public = {f"--{export.public_name(f.name)}" for cls in configs for f in fields(cls)}
        assert sorted(_override_flags("train")) == sorted(public)
        assert "--random_state" in public and "--seed" not in public

    def test_benchmark_takes_the_tfidf_flags(self):
        assert _override_flags("benchmark") == [f"--{f.name}" for f in fields(TfidfConfig)]

    @pytest.mark.parametrize("command", ["train", "evaluate", "benchmark"])
    def test_split_flags_are_the_split_config_fields(self, command):
        split = fields(SplitConfig)
        actions = [action for action in _subcommand(command)._actions
                   if action.dest in {f.name for f in split}]
        assert [(action.option_strings, action.dest) for action in actions] == [
            ([f"--{f.name.replace('_', '-')}"], f.name) for f in split
        ]
        for action, f in zip(actions, split):
            assert action.default is argparse.SUPPRESS
            assert action.help.endswith(f"(default {f.default})")

    @staticmethod
    def _readme_table() -> dict[str, list[str]]:
        """The cells of each row of the README's override table, by flag."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Hyperparameter overrides", 1)[1].split("\n#", 1)[0]
        rows = [[cell.strip() for cell in line.split("|")[1:-1]]
                for line in section.splitlines() if line.startswith("| `--")]
        return {row[0].strip("`"): row for row in rows}

    def test_readme_table_lists_every_override_flag(self):
        assert sorted(self._readme_table()) == sorted(_override_flags("train"))

    def test_readme_table_words_each_named_bound_as_its_config(self):
        table = self._readme_table()
        for cls in [TfidfConfig, *(learner.config for learner in LEARNERS.values())]:
            for name, bound in cls.bounds.items():
                if isinstance(bound, str):
                    assert bound in table[f"--{export.public_name(name)}"][3], (cls, name)


class TestReferenceBundleBytes:
    """`sentiga train` with default flags on the bundled corpus writes these
    exact bytes. Recorded with CPython 3.11, numpy 2.4.6 and scipy 1.17.1
    (scipy-openblas 0.3.31, x86-64); another BLAS may round the MLP's
    matrix products differently and change its digest."""

    DIGESTS = {
        "logreg": "42b78cfdb08377333772be5e07f2697ec58e71bdcdaeae6459d00540841e7657",
        "mlp": "5270489ccf8ee31f36354f4a2f1446ac7d0fa0a7ce56d717e35fc9b6e93d3350",
        "svm": "d33fad18e6a42f0b9bc36ce3fa29bc2fabacd03eeea1eac0aa47283dc21d08e2",
    }

    @pytest.mark.parametrize("kind", sorted(DIGESTS))
    def test_retrained_bundle_sha256(self, tmp_path, capsys, kind):
        path = tmp_path / f"{kind}.bundle"
        assert run("train", "--bundle", str(path), "--model", kind) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.DIGESTS[kind]


@pytest.fixture(scope="module")
def reference_logreg_bundle(tmp_path_factory):
    """`sentiga train` with default flags, once per module."""
    path = tmp_path_factory.mktemp("reference") / "logreg.bundle"
    assert main(["train", "--bundle", str(path)]) == 0
    return path


class TestReferenceTableBytes:
    """The tables the CLI writes on the bundled corpus with default flags,
    recorded on the platform of TestReferenceBundleBytes."""

    def test_benchmark_table_sha256(self, tmp_path, capsys):
        assert run("benchmark", "--out-dir", str(tmp_path)) == 0
        assert _sha256(tmp_path / export.BENCHMARK_FILE) == (
            "6f879005137759504a7237adab98a28100d5f1504b9e7b300bf7e384aa97f48a"
        )

    def test_export_tables_sha256(self, reference_logreg_bundle, tmp_path, capsys):
        assert run("export", "--bundle", str(reference_logreg_bundle),
                   "--out-dir", str(tmp_path)) == 0
        assert {p.name: _sha256(p) for p in tmp_path.iterdir()} == {
            export.BENCHMARK_FILE:
                "1671cc3cbf6953a95df549b0cb032859047c9e580e622376b658d8e7237c12f0",
            export.PER_CLASS_FILE:
                "c9bee05f5b5593918c021befefb9be58992ab463cda847f5b3a5eaa330147534",
            export.HYPERPARAMETER_FILE:
                "99410c52b49712436519e79b00a2643fbacafa11afa6e7ccbaf34cffb064b3cd",
            export.LABEL_MAPPING_FILE:
                "7bee13263c785d8edf01ebd5c4aba7b1c0d0ae7020779d5aec3803ad488b45ce",
        }

    def test_preprocess_corpus_sha256(self, tmp_path, capsys):
        assert run("preprocess", "--out-dir", str(tmp_path)) == 0
        assert _sha256(tmp_path / "clean_corpus.csv") == (
            "47208a7e9fc7f5b09ef20cad11452b735bc6bf56360d75f6a6c6b4800e33ad09"
        )


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestLabelMapMatchesTheBundle:
    """`evaluate` and `export` take only the label map the bundle was trained
    with, compared by digest, so a file's order and comments do not matter."""

    @staticmethod
    def _write_map(path, entries, comments=False):
        lines = [f"{key},{cls.label}" for key, cls in entries]
        if comments:
            lines = ["# a reordered copy", ""] + [f"{line}\n# entry" for line in lines]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    @pytest.fixture
    def swapped_map(self, tmp_path):
        swap = {"positive": "negative", "negative": "positive", "neutral": "neutral"}
        entries = [(key, SentimentClass.parse(swap[cls.label]))
                   for key, cls in default_label_map().entries.items()]
        return self._write_map(tmp_path / "swapped.txt", entries)

    def test_evaluate_refuses_a_swapped_map(self, trained_bundle, small_raw_csv, swapped_map,
                                            capsys):
        code = run("evaluate", "--data", str(small_raw_csv), "--bundle", str(trained_bundle),
                   "--label-map", str(swapped_map))
        assert code == 3
        out, err = capsys.readouterr()
        assert out == "" and "differs from the bundle's" in err

    def test_export_refuses_a_swapped_map_and_writes_nothing(self, trained_bundle, tmp_path,
                                                             swapped_map, capsys):
        out_dir = tmp_path / "tables"
        code = run("export", "--bundle", str(trained_bundle), "--out-dir", str(out_dir),
                   "--label-map", str(swapped_map))
        assert code == 3
        assert "differs from the bundle's" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_reordered_map_with_comments_is_the_same_map(self, trained_bundle, small_raw_csv,
                                                         tmp_path, capsys):
        entries = sorted(default_label_map().entries.items(), reverse=True)
        reordered = self._write_map(tmp_path / "reordered.txt", entries, comments=True)
        assert run("evaluate", "--data", str(small_raw_csv), "--bundle", str(trained_bundle),
                   "--label-map", str(reordered)) == 0
        for name, extra in (("default", []), ("reordered", ["--label-map", str(reordered)])):
            assert run("export", "--bundle", str(trained_bundle),
                       "--out-dir", str(tmp_path / name), *extra) == 0
        table = export.LABEL_MAPPING_FILE
        assert (tmp_path / "default" / table).read_bytes() == (
            tmp_path / "reordered" / table).read_bytes()


class TestArgvProperty:
    """Any argv for any subcommand ends in a documented exit code, and a
    failure prints a diagnosis, never a traceback. Every command reads a
    15-row CSV or a bundle trained on it, so no example trains on the
    reference corpus."""

    SOURCE = ["--data", "--drop-unmapped", "--lenient", "--label-map"]
    TABLES = ["--slang", "--leet"]
    SPLIT = ["--seed", "--test-fraction"]
    TFIDF = ["--max_features", "--min_df", "--max_df", "--ngram_range", "--sublinear_tf"]
    MODEL = [
        "--model", "--C", "--class_weight", "--max_iter", "--tol", "--random_state",
        "--hidden_layer_sizes", "--activation", "--solver", "--alpha",
        "--learning_rate_init", "--early_stopping", "--validation_fraction", "--patience",
        "--improvement_tol", "--batch_size", "--regularization", "--epochs",
    ]
    FLAGS = {  # what each command reads, as build_parser declares it
        "preprocess": SOURCE + TABLES + ["--out-dir"],
        "train": ["--bundle"] + SOURCE + TABLES + SPLIT + TFIDF + MODEL,
        "evaluate": ["--bundle"] + SOURCE + SPLIT,
        "predict": ["--bundle", "--text", "--retweets", "--likes"],
        "benchmark": SOURCE + TABLES + SPLIT + TFIDF + ["--out-dir", "--extra-row"],
        "export": ["--bundle", "--label-map", "--out-dir", "--extra-row"],
        "frobnicate": [],
    }
    JUNK = ["--bogus", "stray", "--help", "--model", "--text", "--out-dir"]

    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("argv")
        rows = [
            (f"{words} nomor u{spell_index(i)}", label, str(i), str(2 * i), "#x" * (i % 2))
            for i, (words, label) in enumerate(
                [("senang bagus", "Joy"), ("sedih kecewa", "Sad"), ("info jadwal", "Neutral")]
                * 5
            )
        ]
        paths = {
            "csv": write_raw_csv(root / "tiny.csv", rows),
            "bundle": root / "tiny.bundle",
            "garbage": root / "garbage.txt",
            "empty": root / "empty.txt",
            "dir": root,
            "missing": root / "missing" / "x",
            "out": root / "out",
        }
        paths["garbage"].write_text("not,a\nbundle,\x00\n", encoding="utf-8")
        paths["empty"].write_text("", encoding="utf-8")
        assert main(["train", "--data", str(paths["csv"]), "--bundle", str(paths["bundle"]),
                     "--min_df", "1", "--max_df", "1.0"]) == 0
        return paths | write_unreadable_files(root, paths["bundle"])

    @classmethod
    def _argv(cls, draw, paths):
        def path(*keys):
            return st.sampled_from([str(paths[k]) for k in keys])

        small_int = st.one_of(st.integers(-2, 30).map(str), st.sampled_from(["", "x", "1.5"]))
        number = st.one_of(
            st.floats(-2, 2).map(repr),
            st.sampled_from(["0", "1e-300", "1e300", "nan", "inf", "-inf", "abc", ""]),
        )
        boolean = st.sampled_from(["true", "false", "yes", "0", "maybe", ""])
        sizes = st.sampled_from(["1,1", "1,2", "2,1", "0,1", "1", "1,2,3", "4,3", "-1", "a", ""])
        values = {
            "--data": path("csv", "garbage", "empty", "dir", "missing", "bundle", "latin1_csv",
                           "unclosed"),
            "--bundle": path("bundle", "garbage", "empty", "dir", "missing", "csv",
                             "latin1_bundle", "nested_bundle"),
            "--out-dir": path("out", "csv", "missing"),
            "--label-map": path("garbage", "empty", "dir", "missing", "latin1_pairs"),
            "--slang": path("garbage", "empty", "dir", "missing", "csv", "latin1_pairs"),
            "--leet": path("garbage", "empty", "dir", "missing", "csv", "latin1_pairs"),
            "--seed": small_int, "--random_state": small_int, "--max_features": small_int,
            "--min_df": small_int, "--max_iter": small_int, "--epochs": small_int,
            "--patience": small_int, "--batch_size": st.one_of(small_int, st.just("none")),
            "--retweets": st.one_of(small_int, st.just("9" * 400)),
            "--likes": small_int,
            "--test-fraction": number, "--max_df": number, "--C": number, "--tol": number,
            "--alpha": number, "--learning_rate_init": number, "--regularization": number,
            "--validation_fraction": number, "--improvement_tol": number,
            "--sublinear_tf": boolean, "--early_stopping": boolean,
            "--ngram_range": sizes, "--hidden_layer_sizes": sizes,
            "--class_weight": st.sampled_from(["balanced", "none", "bogus"]),
            "--model": st.sampled_from(["logreg", "mlp", "svm", "forest"]),
            "--activation": st.sampled_from(["relu", "tanh"]),
            "--solver": st.sampled_from(["lbfgs", "adam", "sgd"]),
            "--text": st.text(max_size=30),
            "--extra-row": st.sampled_from(
                ["RF,Classical,0.5,0.4,0.3", "bad", "a,b,x,1,1", "a,b,nan,1,1", ",,,,",
                 "a,b,inf,-3,7"]
            ),
            "--drop-unmapped": st.none(), "--lenient": st.none(),
            "--bogus": st.none(), "stray": st.none(), "--help": st.none(),
        }
        command = draw(st.sampled_from(sorted(cls.FLAGS)))
        # defaults first, so a drawn flag of the same name replaces them
        argv = {
            "preprocess": ["--data", str(paths["csv"]), "--out-dir", str(paths["out"])],
            "train": ["--data", str(paths["csv"]), "--bundle", str(paths["out"] / "t.bundle"),
                      "--min_df", "1"],
            "evaluate": ["--data", str(paths["csv"]), "--bundle", str(paths["bundle"])],
            "predict": ["--bundle", str(paths["bundle"]), "--text", "aku senang"],
            "benchmark": ["--data", str(paths["csv"]), "--out-dir", str(paths["out"]),
                          "--min_df", "1"],
            "export": ["--bundle", str(paths["bundle"]), "--out-dir", str(paths["out"])],
        }.get(command, [])
        flags = st.sampled_from(cls.FLAGS[command] or cls.JUNK)
        flags = st.one_of(flags, flags, flags, st.sampled_from(cls.JUNK))  # mostly its own
        for flag in draw(st.lists(flags, max_size=4)):
            value = draw(values[flag])
            argv += [flag] if value is None else [flag, value]
        return [command, *argv]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_failure_is_an_exit_code_without_traceback(self, paths, data):
        argv = self._argv(data.draw, paths)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3, 4, 5), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue(), argv
        # a hyperparameter that trains a model no bundle can hold is refused first
        assert "cannot serialize" not in err.getvalue(), argv
        if code:
            assert err.getvalue().strip(), argv
