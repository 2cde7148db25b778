"""Acceptance gate: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s`` to see the lines while green).

Criteria 1-8 are hard gates. Criterion 9 compares against an externally
supplied dataset and is informational only.
"""

import csv
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import whole_weight_grads
from sentiga import export as export_mod
from sentiga.bundle import load_bundle, predict
from sentiga.cli import main as cli_main
from sentiga.corpus import SentimentClass
from sentiga.evaluation import SplitConfig, report, stratified_split
from sentiga.features import TfidfConfig, fit_tfidf, transform_corpus
from sentiga.learners import (
    LogRegConfig,
    _logreg_value_grad,
    _mlp_value_grads,
    _one_hot,
    balanced_weights,
    predict_logreg,
    predict_svm,
    train_linear_svm,
    train_logreg,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def relative_error(analytic, numeric):
    return abs(analytic - numeric) / max(1e-8, abs(analytic), abs(numeric))


def test_criterion_01_metric_reconstruction():
    with criterion(1, "reference confusion matrix reproduces the frozen metrics"):
        rep = report(np.array([[26, 0, 12], [2, 7, 3], [7, 4, 81]]))
        assert rep.accuracy == pytest.approx(0.8028, abs=1e-4)
        assert rep.macro_f1 == pytest.approx(0.7276, abs=1e-4)
        assert rep.weighted_f1 == pytest.approx(0.8003, abs=1e-4)
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


def test_criterion_02_split_reproduction():
    with criterion(2, "stratified split yields test counts (92, 38, 12) and totals 565/142"):
        labels = np.repeat(
            [int(SentimentClass.POSITIVE), int(SentimentClass.NEGATIVE), int(SentimentClass.NEUTRAL)],
            [459, 188, 60],
        )
        split = stratified_split(labels, 0.2, seed=42)
        test_labels = labels[split.test_indices]
        assert np.sum(test_labels == int(SentimentClass.POSITIVE)) == 92
        assert np.sum(test_labels == int(SentimentClass.NEGATIVE)) == 38
        assert np.sum(test_labels == int(SentimentClass.NEUTRAL)) == 12
        assert len(split.train_indices) == 565
        assert len(split.test_indices) == 142


def test_criterion_03_balanced_weights():
    with criterion(3, "balanced weights match the n/(K*n_c) oracle within 1e-4"):
        counts = np.array([459, 188, 60])
        w = balanced_weights(counts)
        oracle = counts.sum() / (3 * counts)
        assert np.allclose(w, oracle, atol=1e-12)
        assert np.allclose(w, [0.51343, 1.25355, 3.92778], atol=1e-4)


def test_criterion_04_tfidf_oracle_and_norm_property():
    with criterion(4, "hand-computed TF-IDF fixture and unit-norm property hold"):
        cfg = TfidfConfig(min_df=1, max_df=1.0, ngram_range=(1, 1))
        model = fit_tfidf(["a b", "a c", "a b b"], cfg)
        idf = {term: model.idf[idx] for term, idx in model.vocabulary.items()}
        assert idf["a"] == pytest.approx(1.0, abs=1e-5)
        assert idf["b"] == pytest.approx(1.28768, abs=1e-5)
        assert idf["c"] == pytest.approx(1.69315, abs=1e-5)
        vec = transform_corpus(model, ["a b b"]).toarray()[0]
        assert vec[model.vocabulary["a"]] == pytest.approx(0.41694, abs=1e-4)
        assert vec[model.vocabulary["b"]] == pytest.approx(0.90893, abs=1e-4)

        rng = np.random.default_rng(4)
        alphabet = [f"w{chr(ord('a') + i)}" for i in range(20)] + ["oovx", "oovy"]
        train_docs = [
            " ".join(rng.choice(alphabet[:20], size=rng.integers(2, 9)))
            for _ in range(50)
        ]
        fitted = fit_tfidf(train_docs, TfidfConfig(min_df=1, max_df=1.0))
        random_docs = [
            " ".join(rng.choice(alphabet, size=rng.integers(0, 10)))
            for _ in range(1000)
        ]
        norms = sp.linalg.norm(transform_corpus(fitted, random_docs), axis=1)
        assert np.all((norms == 0) | (np.abs(norms - 1.0) <= 1e-9))


def test_criterion_05_gradient_fidelity():
    with criterion(5, "LR and MLP gradients match central differences (h=1e-5)"):
        rng = np.random.default_rng(55)
        h = 1e-5

        worst_lr = 0.0
        for _ in range(20):
            n, D = 5, 4
            X = rng.normal(size=(n, D))
            y = np.concatenate([[0, 1, 2], rng.integers(0, 3, size=n - 3)])
            Y = _one_hot(y)
            sample_w = rng.uniform(0.5, 2.0, size=n)
            theta = rng.normal(scale=0.5, size=3 * D + 3)
            _, grad = _logreg_value_grad(theta, X, Y, sample_w, 2.0)
            for i in range(len(theta)):
                plus, minus = theta.copy(), theta.copy()
                plus[i] += h
                minus[i] -= h
                numeric = (
                    _logreg_value_grad(plus, X, Y, sample_w, 2.0)[0]
                    - _logreg_value_grad(minus, X, Y, sample_w, 2.0)[0]
                ) / (2 * h)
                worst_lr = max(worst_lr, relative_error(grad[i], numeric))
        assert worst_lr < 1e-5

        worst_mlp = 0.0
        instances = 0
        while instances < 20:
            sizes = [5, 4, 3, 3]
            X = rng.normal(size=(3, 5))
            Y = _one_hot(np.array([0, 1, 2]))
            weights = [rng.normal(scale=0.7, size=(a, b)) for a, b in zip(sizes[:-1], sizes[1:])]
            biases = [rng.normal(scale=0.3, size=b) for b in sizes[1:]]
            activation, near_kink = X, False
            for i, (W, b) in enumerate(zip(weights, biases)):
                z = activation @ W + b
                if i < len(weights) - 1:
                    if np.abs(z).min() < 1e-3:
                        near_kink = True
                        break
                    activation = np.maximum(z, 0)
            if near_kink:
                continue
            instances += 1
            _, w_grads, b_grads = _mlp_value_grads(weights, biases, X, Y, 1e-4)
            w_grads = whole_weight_grads(w_grads, weights)  # before any weight is nudged
            for params, grads in ((weights, w_grads), (biases, b_grads)):
                for layer, grad in zip(params, grads):
                    it = np.nditer(layer, flags=["multi_index"])
                    for _ in it:
                        idx = it.multi_index
                        orig = layer[idx]
                        layer[idx] = orig + h
                        f_plus = _mlp_value_grads(weights, biases, X, Y, 1e-4)[0]
                        layer[idx] = orig - h
                        f_minus = _mlp_value_grads(weights, biases, X, Y, 1e-4)[0]
                        layer[idx] = orig
                        numeric = (f_plus - f_minus) / (2 * h)
                        worst_mlp = max(worst_mlp, relative_error(grad[idx], numeric))
        assert worst_mlp < 1e-4


def test_criterion_06_convex_training_sanity():
    with criterion(6, "LR objective is monotone and separable toys reach 100%"):
        rng = np.random.default_rng(66)
        for _ in range(10):
            n, D = int(rng.integers(9, 40)), int(rng.integers(2, 8))
            X = rng.normal(size=(n, D))
            y = np.concatenate([[0, 1, 2], rng.integers(0, 3, size=n - 3)])
            model = train_logreg(X, y, LogRegConfig(max_iter=80))
            path = model.objective_history_
            assert all(a >= b - 1e-12 for a, b in zip(path, path[1:]))

        X = np.vstack(
            [3.0 * np.eye(3)[c] + rng.normal(scale=0.1, size=(10, 3)) for c in range(3)]
        )
        y = np.repeat([0, 1, 2], 10)
        assert np.mean(predict_logreg(train_logreg(X, y), X) == y) == 1.0
        assert np.mean(predict_svm(train_linear_svm(X, y), X) == y) == 1.0


def test_criterion_07_determinism(tmp_path):
    with criterion(7, "seed-42 training is byte-identical and round trips bit-exactly"):
        first = tmp_path / "run1.bundle"
        second = tmp_path / "run2.bundle"
        for path in (first, second):
            code = cli_main(["train", "--bundle", str(path), "--seed", "42"])
            assert code == 0
        assert first.read_bytes() == second.read_bytes()

        bundle = load_bundle(first)
        probes = [
            ("Senang banget hari ini #liburan", 3, 10),
            ("macet parah bikin kesal", 0, 1),
            ("info jadwal kereta hari ini", 2, 2),
            ("", 0, 0),
        ]
        before = [predict(bundle, text, r, l) for text, r, l in probes]
        reloaded = load_bundle(first)
        after = [predict(reloaded, text, r, l) for text, r, l in probes]
        for a, b in zip(before, after):
            assert a.label is b.label
            assert np.array_equal(a.scores, b.scores)


def test_criterion_08_end_to_end_desk_scale(tmp_path):
    with criterion(8, "bundled-corpus pipeline finishes < 60 s, beats 0.649, exports parse"):
        out_dir = tmp_path / "tables"
        bundle_path = tmp_path / "model.bundle"
        started = time.monotonic()
        assert cli_main(["preprocess", "--out-dir", str(tmp_path)]) == 0
        assert cli_main(["train", "--bundle", str(bundle_path), "--seed", "42"]) == 0
        assert cli_main(["evaluate", "--bundle", str(bundle_path)]) == 0
        assert cli_main(["export", "--bundle", str(bundle_path), "--out-dir", str(out_dir)]) == 0
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s"

        accuracy = load_bundle(bundle_path).metrics_snapshot.accuracy
        assert accuracy > 0.649, f"LR accuracy {accuracy:.4f} not above majority baseline"

        expected_headers = {
            export_mod.BENCHMARK_FILE: list(export_mod.BENCHMARK_HEADER),
            export_mod.PER_CLASS_FILE: list(export_mod.PER_CLASS_HEADER),
            export_mod.HYPERPARAMETER_FILE: list(export_mod.HYPERPARAMETER_HEADER),
            export_mod.LABEL_MAPPING_FILE: list(export_mod.LABEL_MAPPING_HEADER),
        }
        for name, header in expected_headers.items():
            with open(out_dir / name, encoding="utf-8", newline="") as handle:
                rows = list(csv.reader(handle))
            assert rows[0] == header, f"{name} header mismatch"
            assert len(rows) > 1, f"{name} has no data rows"


def test_criterion_09_external_dataset_reference_point():
    """Informational only: run the pipeline on a user-supplied dataset.

    Point SENTIGA_EXTERNAL_CSV at a raw CSV with the standard columns to
    exercise it; accuracy in the neighbourhood of 0.80 is expected for
    comparable data but is not asserted.
    """
    path = os.environ.get("SENTIGA_EXTERNAL_CSV")
    if not path:
        print("[SKIP] criterion 9: no external dataset supplied (informational)")
        pytest.skip("SENTIGA_EXTERNAL_CSV not set; criterion 9 is informational")
    from sentiga.bundle import train_bundle
    from sentiga.corpus import default_label_map, load_raw, prepare_corpus

    records = prepare_corpus(load_raw(path, lenient=True), default_label_map("drop"))
    result = train_bundle(records, kind="logreg", split=SplitConfig(seed=42))
    print(
        f"[NOTE] criterion 9: external dataset accuracy "
        f"{result.holdout_report.accuracy:.4f} (reference point, not a gate)"
    )
