from dataclasses import replace

import numpy as np
import pytest

from conftest import edit_bundle_payload, make_clean_records
from sentiga.bundle import (
    FORMAT_VERSION,
    ModelBundle,
    load_bundle,
    predict,
    save_bundle,
    train_bundle,
)
from sentiga.corpus import (
    CleanRecord,
    SentimentClass,
    load_raw,
    metadata_counts,
    prepare_corpus,
)
from sentiga.datasets import reference_corpus_path
from sentiga.errors import (
    BundleError,
    BundleIntegrityError,
    DataError,
    NegativeCountError,
    NonFiniteFeatureError,
    ShapeMismatchError,
    UnsupportedVersionError,
)
from sentiga.evaluation import predict_model
from sentiga.features import Scaler, TfidfConfig
from sentiga.learners import (
    LogRegConfig,
    LogRegModel,
    decision_scores_svm,
    predict_proba_logreg,
    predict_proba_mlp,
)
from sentiga.textnorm import clean_text

SMALL_TFIDF = TfidfConfig(min_df=1, max_df=1.0)


@pytest.fixture(scope="module")
def trained():
    records = make_clean_records(n_per_class=(10, 10, 10), seed=2)
    return train_bundle(records, kind="logreg", tfidf_config=SMALL_TFIDF, seed=42), records


class TestPersistence:
    def test_save_load_save_is_byte_identical(self, trained, tmp_path):
        result, _ = trained
        first = tmp_path / "a.bundle"
        second = tmp_path / "b.bundle"
        save_bundle(result.bundle, first)
        save_bundle(load_bundle(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_round_trip_preserves_predictions_bit_exactly(self, trained, tmp_path):
        result, records = trained
        path = tmp_path / "m.bundle"
        save_bundle(result.bundle, path)
        loaded = load_bundle(path)
        texts = [(r.clean_text, 3, 4) for r in records[:10]]
        for text, retweets, likes in texts:
            before = predict(result.bundle, text, retweets, likes)
            after = predict(loaded, text, retweets, likes)
            assert before.label is after.label
            assert np.array_equal(before.scores, after.scores)

    def test_newer_version_is_rejected(self, trained, tmp_path):
        result, _ = trained
        path = tmp_path / "m.bundle"
        save_bundle(result.bundle, path)
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[0] = f"SENTIGA-BUNDLE v{FORMAT_VERSION + 1}"
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(UnsupportedVersionError):
            load_bundle(path)

    def test_payload_byte_flip_is_detected(self, trained, tmp_path):
        result, _ = trained
        path = tmp_path / "m.bundle"
        save_bundle(result.bundle, path)
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(BundleIntegrityError):
            load_bundle(path)

    def test_garbage_file_is_rejected(self, tmp_path):
        path = tmp_path / "junk.bundle"
        path.write_text("not a bundle at all\n", encoding="utf-8")
        with pytest.raises(BundleIntegrityError):
            load_bundle(path)

    def test_missing_file_is_an_error(self, tmp_path):
        with pytest.raises(BundleError):
            load_bundle(tmp_path / "absent.bundle")

    def test_metrics_snapshot_survives_round_trip(self, trained, tmp_path):
        result, _ = trained
        path = tmp_path / "m.bundle"
        save_bundle(result.bundle, path)
        loaded = load_bundle(path)
        assert loaded.metrics_snapshot.accuracy == result.holdout_report.accuracy
        assert np.array_equal(
            loaded.metrics_snapshot.confusion.counts,
            result.holdout_report.confusion.counts,
        )

    def test_svm_and_mlp_bundles_round_trip(self, tmp_path):
        records = make_clean_records(n_per_class=(8, 8, 8), seed=3)
        for kind in ("svm", "mlp"):
            result = train_bundle(records, kind=kind, tfidf_config=SMALL_TFIDF, seed=1)
            path = tmp_path / f"{kind}.bundle"
            save_bundle(result.bundle, path)
            loaded = load_bundle(path)
            probe = predict(loaded, records[0].clean_text, 1, 2)
            original = predict(result.bundle, records[0].clean_text, 1, 2)
            assert np.array_equal(probe.scores, original.scores)
            assert probe.probabilistic == (kind != "svm")


class TestPredict:
    def test_zero_weight_model_is_uniform_and_ties_to_negative(self, trained):
        result, _ = trained
        zero = ModelBundle(
            kind="logreg",
            seed=0,
            test_fraction=0.2,
            slang=result.bundle.slang,
            leet=result.bundle.leet,
            label_map_digest=result.bundle.label_map_digest,
            tfidf=result.bundle.tfidf,
            scaler=result.bundle.scaler,
            classifier=LogRegModel(
                W=np.zeros_like(result.bundle.classifier.W),
                b=np.zeros(3),
                config=LogRegConfig(),
            ),
        )
        outcome = predict(zero, "apa saja boleh", 0, 0)
        assert np.allclose(outcome.scores, 1 / 3)
        assert outcome.label is SentimentClass.NEGATIVE

    def test_training_sample_agrees_with_training_time_prediction(self, trained):
        result, records = trained
        train_records = [records[i] for i in result.train_indices]
        X_train = result.space.featurize(train_records).to_csr()
        train_time = predict_model("logreg", result.bundle.classifier, X_train)
        # hashtag counts are recomputed from the text at predict time, so
        # feed back rows whose metadata the cleaned text fully determines
        pairs = [(i, r) for i, r in enumerate(train_records) if r.hashtag_count == 0]
        assert pairs
        for row, record in pairs[:10]:
            served = predict(result.bundle, record.clean_text, 0, record.engagement)
            assert int(served.label) == int(train_time[row])

    def test_empty_cleaning_still_predicts(self, trained):
        result, _ = trained
        outcome = predict(result.bundle, "http://t.co/x @user 123", retweets=2, likes=5)
        assert outcome.scores.shape == (3,)
        assert np.isfinite(outcome.scores).all()

    def test_repeated_calls_agree_exactly(self, trained):
        result, _ = trained
        a = predict(result.bundle, "senang bagus keren", 1, 1)
        b = predict(result.bundle, "senang bagus keren", 1, 1)
        assert a.label is b.label
        assert np.array_equal(a.scores, b.scores)

    def test_class_correlated_token_drives_prediction(self):
        # "senang" appears only in positive documents, so its trained weight
        # must favour the positive class and dominate an unseen post.
        texts = {
            SentimentClass.POSITIVE: ["senang sekali rasanya", "senang dan puas", "senang terus"],
            SentimentClass.NEGATIVE: ["sedih sekali rasanya", "sedih dan kecewa", "sedih terus"],
            SentimentClass.NEUTRAL: ["jadwal biasa saja", "info biasa saja", "jadwal dan info"],
        }
        records = [
            CleanRecord(
                clean_text=text,
                label=cls,
                word_count=len(text.split()),
                engagement=0,
                hashtag_count=0,
            )
            for cls, docs in texts.items()
            for text in docs
        ]
        result = train_bundle(
            records, kind="logreg", tfidf_config=SMALL_TFIDF, seed=0, test_fraction=0.34
        )
        vocab = result.bundle.tfidf.vocabulary
        weights = result.bundle.classifier.W
        senang_col = vocab["senang"]
        assert weights[int(SentimentClass.POSITIVE), senang_col] > 0
        assert weights[int(SentimentClass.POSITIVE), senang_col] > weights[
            int(SentimentClass.NEGATIVE), senang_col
        ]
        outcome = predict(result.bundle, "Saya senang sekali!!!", 0, 0)
        assert outcome.label is SentimentClass.POSITIVE


    @pytest.mark.parametrize("retweets, likes", [(-5, 0), (0, -1), (-5, -100000)])
    def test_negative_counts_are_rejected(self, trained, retweets, likes):
        result, _ = trained
        with pytest.raises(NegativeCountError):
            predict(result.bundle, "aku senang", retweets, likes)
        assert issubclass(NegativeCountError, DataError)

    def test_non_finite_features_are_rejected(self, trained):
        result, _ = trained
        broken = replace(
            result.bundle,
            scaler=Scaler(means=np.zeros(3), stds=np.array([np.nan, 1.0, 1.0])),
        )
        with pytest.raises(NonFiniteFeatureError):
            predict(broken, "senang bagus", 1, 1)

    def test_classifier_width_mismatch_is_rejected(self, trained):
        result, _ = trained
        model = result.bundle.classifier
        narrow = LogRegModel(W=model.W[:, 1:], b=model.b, config=model.config)
        broken = replace(result.bundle, classifier=narrow)
        with pytest.raises(ShapeMismatchError):
            predict(broken, "senang bagus", 1, 1)


@pytest.fixture(scope="module")
def reference_raw():
    return load_raw(reference_corpus_path())


class TestMatrixPathParity:
    """Single-post predict scores gathered weight columns; batch scoring
    multiplies the featurized matrix. Both must agree on every row."""

    SCORERS = {
        "logreg": predict_proba_logreg,
        "mlp": predict_proba_mlp,
        "svm": decision_scores_svm,
    }

    @pytest.mark.parametrize("kind", ["logreg", "mlp", "svm"])
    def test_every_reference_row_matches_the_matrix_path(self, reference_raw, kind):
        result = train_bundle(prepare_corpus(reference_raw), kind=kind)
        bundle = result.bundle
        rows = []
        for raw in reference_raw:
            text = clean_text(raw.text, bundle.slang, bundle.leet)
            counts = metadata_counts(text, raw.text, raw.retweets, raw.likes)
            rows.append(CleanRecord(text, SentimentClass.NEUTRAL, *counts))
        X = result.space.featurize(rows).to_csr()
        expected = self.SCORERS[kind](bundle.classifier, X)
        served = np.array(
            [predict(bundle, r.text, r.retweets, r.likes).scores for r in reference_raw]
        )
        assert any(not r.clean_text for r in rows)  # empty texts are covered
        assert np.array_equal(served.argmax(axis=1), expected.argmax(axis=1))
        assert np.max(np.abs(served - expected)) <= 1e-12


class TestBundleStructure:
    """A bundle whose checksum is valid but whose structure is not that of
    a bundle fails with BundleIntegrityError, never a KeyError or an
    IndexError."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        records = make_clean_records(n_per_class=(8, 8, 8), seed=3)
        paths = {}
        for kind in ("logreg", "mlp"):
            result = train_bundle(records, kind=kind, tfidf_config=SMALL_TFIDF, seed=1)
            paths[kind] = tmp_path_factory.mktemp(kind) / "m.bundle"
            save_bundle(result.bundle, paths[kind])
        return paths

    def _edited(self, saved, kind, edit, tmp_path):
        path = tmp_path / "edited.bundle"
        path.write_bytes(saved[kind].read_bytes())
        return edit_bundle_payload(path, edit)

    def test_unedited_payload_still_loads(self, saved, tmp_path):
        for kind in saved:
            load_bundle(self._edited(saved, kind, lambda data: None, tmp_path))

    @pytest.mark.parametrize("key", ["scaler", "tfidf", "classifier", "kind"])
    def test_missing_key(self, saved, tmp_path, key):
        path = self._edited(saved, "logreg", lambda data: data.pop(key), tmp_path)
        with pytest.raises(BundleIntegrityError):
            load_bundle(path)

    @pytest.mark.parametrize(
        "kind, edit",
        [
            ("logreg", lambda data: data["tfidf"]["idf"].pop()),
            ("logreg", lambda data: data["scaler"]["means"].pop()),
            ("logreg", lambda data: data["scaler"].update(stds=[1.0, 1.0, 1.0, 1.0])),
            ("logreg", lambda data: [row.pop() for row in data["classifier"]["W"]]),
            ("logreg", lambda data: data["classifier"]["W"].pop()),
            ("logreg", lambda data: data["classifier"]["b"].pop()),
            ("logreg", lambda data: data["tfidf"]["vocabulary"].update(
                {next(iter(data["tfidf"]["vocabulary"])): 10**6})),
            ("mlp", lambda data: data["classifier"]["weights"][0].pop()),
            ("mlp", lambda data: data["classifier"]["biases"][1].pop()),
            ("mlp", lambda data: data["classifier"]["weights"].pop()),
        ],
        ids=[
            "idf-short", "scaler-short", "scaler-long", "W-narrow", "W-two-classes",
            "b-short", "vocab-index-out-of-range", "mlp-first-layer-short",
            "mlp-bias-short", "mlp-layer-missing",
        ],
    )
    def test_wrong_shape(self, saved, tmp_path, kind, edit):
        path = self._edited(saved, kind, edit, tmp_path)
        with pytest.raises(BundleIntegrityError):
            load_bundle(path)


class TestTrainBundle:
    def test_bundle_is_self_contained(self, trained):
        result, _ = trained
        bundle = result.bundle
        assert bundle.slang and bundle.leet
        assert bundle.tfidf.vocabulary and bundle.scaler.means.shape == (3,)
        assert len(bundle.label_map_digest) == 64
        assert len(bundle.slang_digest) == 64

    def test_unknown_kind_rejected(self):
        records = make_clean_records()
        with pytest.raises(Exception):
            train_bundle(records, kind="forest")


def test_misshapen_metrics_snapshot_is_integrity_error(tmp_path):
    records = make_clean_records(n_per_class=(8, 8, 8), seed=3)
    path = tmp_path / "m.bundle"
    save_bundle(train_bundle(records, tfidf_config=SMALL_TFIDF, seed=1).bundle, path)
    edit_bundle_payload(path, lambda data: data["metrics_snapshot"]["confusion"].pop())
    with pytest.raises(BundleIntegrityError):
        load_bundle(path)
