import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import SOCIAL_POSTS, edit_bundle_payload, make_clean_records, write_raw_csv
from sentiga import evaluation, learners, textnorm
from sentiga.bundle import (
    FORMAT_VERSION,
    ModelBundle,
    _encode,
    load_bundle,
    predict,
    save_bundle,
    train_bundle,
)
from sentiga.corpus import (
    CleanRecord,
    RawRecord,
    SentimentClass,
    clean_record,
    default_label_map,
    load_raw,
    pairs_digest,
    prepare_corpus,
)
from sentiga.cli import main
from sentiga.datasets import generate_reference_rows, reference_corpus_path
from sentiga.errors import BundleError, DataError, SentigaError, TrainingError
from sentiga.evaluation import SplitConfig, predict_model
from sentiga.features import Scaler, TfidfConfig
from sentiga.learners import (
    LinearSvmConfig,
    LogRegConfig,
    LogRegModel,
    MlpConfig,
    decision_scores_svm,
    predict_proba_logreg,
    predict_proba_mlp,
)
from sentiga.textnorm import clean_text, count_hashtags

SMALL_TFIDF = TfidfConfig(min_df=1, max_df=1.0)


@pytest.fixture(scope="module")
def trained():
    records = make_clean_records(n_per_class=(10, 10, 10), seed=2)
    split = SplitConfig(seed=42)
    return train_bundle(records, kind="logreg", tfidf_config=SMALL_TFIDF, split=split), records


def _encode_per_element(value):
    """The canonical encoding written out one element at a time, as the
    general path of `_encode` does for lists and dicts."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, list):
        return "[" + ",".join(_encode_per_element(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(
            f"{json.dumps(k)}:{_encode_per_element(v)}" for k, v in sorted(value.items())
        ) + "}"
    return _encode(value)


class TestCanonicalEncoding:
    """Float arrays, the vocabulary and the slang and leet tables are encoded
    in one pass each; the bytes must equal the per-element encoding."""

    @pytest.mark.parametrize(
        "array",
        [
            np.array([0.0, -0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, 0.1, 1 / 3]),
            np.array([[1.5, -0.0, 2.2250738585072014e-308], [1e-300, 3.0, -7.25]]),
            np.random.default_rng(0).standard_normal((40, 7))
            * 10.0 ** np.random.default_rng(1).integers(-300, 300, size=(40, 7)),
            np.zeros((0,)),
            np.zeros((2, 0)),
            np.arange(6.0).reshape(1, 2, 3),
        ],
        ids=["specials", "2d", "random-2d", "empty", "empty-rows", "3d"],
    )
    def test_float_array_fast_path_equals_per_element(self, array):
        assert _encode(array) == _encode_per_element(array)
        assert json.loads(_encode(array)) == array.tolist()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("shape", [(3,), (2, 3)])
    def test_non_finite_array_entry_is_refused(self, bad, shape):
        array = np.ones(shape)
        array.flat[-1] = bad
        with pytest.raises(BundleError, match="non-finite"):
            _encode(array)

    def test_int_and_str_valued_dicts_equal_per_element(self):
        vocabulary = {"b a": 2, "a": 0, "\u00e9t\u00e9": 1, 'q"uote': 3, "z\\": 10**20}
        table = {"gk": "tidak", "\u00e9": "e\u00e9", "1": "i"}
        for value in (vocabulary, table, {}):
            assert _encode(value) == _encode_per_element(value)
        assert _encode(vocabulary).isascii()

    def test_mixed_valued_dict_takes_the_general_path(self):
        value = {"a": True, "b": 1, "c": "x", "d": 1.5, "e": np.int64(4)}
        assert _encode(value) == '{"a":true,"b":1,"c":"x","d":1.5,"e":4}'


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

    def test_serving_leaves_the_payload_unchanged(self, trained, tmp_path):
        result, records = trained
        bundle = replace(result.bundle)  # an empty token memo
        before, after = tmp_path / "before.bundle", tmp_path / "after.bundle"
        save_bundle(bundle, before)
        for record in records:
            predict(bundle, f"{record.clean_text} #Served", 1, 2)
        assert "#Served" in bundle.clean_.__self__
        save_bundle(bundle, after)
        assert after.read_bytes() == before.read_bytes()
        save_bundle(load_bundle(after), after)
        assert after.read_bytes() == before.read_bytes()
        assert "clean_" not in repr(bundle) and "Served" not in repr(bundle)

    def test_loaded_copies_compare_by_identity_and_save_equal_bytes(self, trained, tmp_path):
        result, _ = trained
        path, first, second = (tmp_path / name for name in ("m", "first", "second"))
        save_bundle(result.bundle, path)
        copies = load_bundle(path), load_bundle(path)
        assert copies[0] == copies[0] and copies[0] != copies[1]
        save_bundle(copies[0], first)
        save_bundle(copies[1], second)
        assert first.read_bytes() == second.read_bytes() == path.read_bytes()

    def test_newer_version_is_rejected(self, trained, tmp_path):
        result, _ = trained
        path = tmp_path / "m.bundle"
        save_bundle(result.bundle, path)
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[0] = f"SENTIGA-BUNDLE v{FORMAT_VERSION + 1}"
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(BundleError, match="newer than supported"):
            load_bundle(path)

    def test_payload_byte_flip_is_detected(self, trained, tmp_path):
        result, _ = trained
        path = tmp_path / "m.bundle"
        save_bundle(result.bundle, path)
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(BundleError, match="checksum mismatch"):
            load_bundle(path)

    def test_garbage_file_is_rejected(self, tmp_path):
        path = tmp_path / "junk.bundle"
        path.write_text("not a bundle at all\n", encoding="utf-8")
        with pytest.raises(BundleError, match="not a recognizable bundle"):
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

    def test_bundle_without_snapshot_round_trips(self, trained, tmp_path):
        result, _ = trained
        first = tmp_path / "a.bundle"
        second = tmp_path / "b.bundle"
        save_bundle(_zero_weight_bundle(result.bundle), first)
        loaded = load_bundle(first)
        save_bundle(loaded, second)
        assert loaded.metrics_snapshot is None
        assert first.read_bytes() == second.read_bytes()

    def test_svm_and_mlp_bundles_round_trip(self, tmp_path):
        records = make_clean_records(n_per_class=(8, 8, 8), seed=3)
        for kind in ("svm", "mlp"):
            result = train_bundle(records, kind=kind, tfidf_config=SMALL_TFIDF,
                                  split=SplitConfig(seed=1))
            path = tmp_path / f"{kind}.bundle"
            save_bundle(result.bundle, path)
            loaded = load_bundle(path)
            probe = predict(loaded, records[0].clean_text, 1, 2)
            original = predict(result.bundle, records[0].clean_text, 1, 2)
            assert np.array_equal(probe.scores, original.scores)
            assert probe.probabilistic == (kind != "svm")


def _zero_weight_bundle(bundle):
    """A logreg bundle with the feature space of `bundle`, all-zero weights
    and no metrics snapshot."""
    return ModelBundle(
        kind="logreg",
        seed=0,
        test_fraction=0.2,
        slang=bundle.slang,
        leet=bundle.leet,
        label_map_digest=bundle.label_map_digest,
        tfidf=bundle.tfidf,
        scaler=bundle.scaler,
        classifier=LogRegModel(
            W=np.zeros_like(bundle.classifier.W), b=np.zeros(3), config=LogRegConfig()
        ),
    )


class TestPredict:
    def test_zero_weight_model_is_uniform_and_ties_to_negative(self, trained):
        result, _ = trained
        zero = _zero_weight_bundle(result.bundle)
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
            records, kind="logreg", tfidf_config=SMALL_TFIDF, split=SplitConfig(0, 0.34)
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
        with pytest.raises(DataError, match="must be non-negative"):
            predict(result.bundle, "aku senang", retweets, likes)

    def test_non_finite_features_are_rejected(self, trained):
        result, _ = trained
        broken = replace(
            result.bundle,
            scaler=Scaler(means=np.zeros(3), stds=np.array([np.nan, 1.0, 1.0])),
        )
        with pytest.raises(TrainingError, match="non-finite"):
            predict(broken, "senang bagus", 1, 1)

    def test_classifier_width_mismatch_is_rejected(self, trained):
        result, _ = trained
        model = result.bundle.classifier
        narrow = LogRegModel(W=model.W[:, 1:], b=model.b, config=model.config)
        broken = replace(result.bundle, classifier=narrow)
        with pytest.raises(DataError, match="model expects"):
            predict(broken, "senang bagus", 1, 1)


@pytest.fixture(scope="module")
def reference_raw():
    return load_raw(reference_corpus_path())


@pytest.fixture(scope="module")
def reference_results(reference_raw):
    records = prepare_corpus(reference_raw)
    return {kind: train_bundle(records, kind=kind) for kind in ("logreg", "mlp", "svm")}


def _layer_loop(layers, X):
    """Reference for `learners.forward`: x @ W + b per layer, ReLU after
    every layer but the last."""
    activation = X
    last = len(layers) - 1
    for i, (W, b) in enumerate(layers):
        activation = np.asarray(activation @ W) + b
        if i != last:
            np.maximum(activation, 0.0, out=activation)
    return activation


def _training_row(raw, bundle):
    """The row training builds for `raw` with the bundle's tables
    (`corpus.clean_record`). A post that cleans to nothing, which training
    drops, is served as no words."""
    record = clean_record(raw, default_label_map(), bundle.slang, bundle.leet)
    if record is None:
        engagement = raw.retweets + raw.likes
        return CleanRecord("", SentimentClass.NEUTRAL, 0, engagement, count_hashtags(raw.text))
    return record


class TestMatrixPathParity:
    """Single-post predict cleans through the bundle's token memo and scores
    gathered weight columns; batch scoring featurizes what training cleans
    and multiplies the matrix. Both must agree on every row."""

    SCORERS = {
        "logreg": predict_proba_logreg,
        "mlp": predict_proba_mlp,
        "svm": decision_scores_svm,
    }

    @pytest.mark.parametrize("kind", ["logreg", "mlp", "svm"])
    def test_every_reference_row_matches_the_matrix_path(self, reference_raw, kind):
        result = train_bundle(prepare_corpus(reference_raw), kind=kind)
        bundle = result.bundle
        rows = [_training_row(raw, bundle) for raw in reference_raw]
        X = result.space.featurize(rows).to_csr()
        expected = self.SCORERS[kind](bundle.classifier, X)
        served = np.array(
            [predict(bundle, r.text, r.retweets, r.likes).scores for r in reference_raw]
        )
        assert any(not r.clean_text for r in rows)  # empty texts are covered
        assert np.array_equal(served.argmax(axis=1), expected.argmax(axis=1))
        assert np.max(np.abs(served - expected)) <= 1e-12

    @pytest.fixture(scope="class")
    def stream(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("stream") / "stream.csv"
        return load_raw(write_raw_csv(path, generate_reference_rows(10000)))

    @pytest.mark.parametrize("kind", ["logreg", "mlp", "svm"])
    def test_stream_posts_match_the_matrix_path(self, reference_results, stream, kind):
        result = reference_results[kind]
        bundle = result.bundle
        rows = [_training_row(raw, bundle) for raw in stream]
        expected = self.SCORERS[kind](bundle.classifier, result.space.featurize(rows).to_csr())
        served = [predict(bundle, r.text, r.retweets, r.likes) for r in stream]
        assert [int(p.label) for p in served] == expected.argmax(axis=1).tolist()
        assert np.max(np.abs(np.array([p.scores for p in served]) - expected)) <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["logreg", "mlp", "svm"]),
        text=SOCIAL_POSTS,
        retweets=st.integers(0, 10**6),
        likes=st.integers(0, 10**6),
    )
    def test_social_media_posts_match_the_matrix_path(
        self, reference_results, kind, text, retweets, likes
    ):
        result = reference_results[kind]
        row = _training_row(RawRecord(text, "Joy", retweets, likes), result.bundle)
        expected = self.SCORERS[kind](
            result.bundle.classifier, result.space.featurize([row]).to_csr()
        )[0]
        served = predict(result.bundle, text, retweets, likes)
        assert int(served.label) == int(expected.argmax())
        assert np.max(np.abs(served.scores - expected)) <= 1e-12
        warm = predict(result.bundle, text, retweets, likes)  # every token memoized
        assert warm.label is served.label
        assert np.array_equal(warm.scores, served.scores)

    def test_each_distinct_raw_token_is_cleaned_once(self, reference_raw, reference_results,
                                                       monkeypatch):
        bundle = replace(reference_results["logreg"].bundle)  # an empty token memo
        posts = [raw.text for raw in reference_raw[:10]]
        calls = []
        clean_tokens = textnorm._clean_tokens

        def counted(tokens, slang, leet):
            calls.append(tokens)
            return clean_tokens(tokens, slang, leet)

        monkeypatch.setattr(textnorm, "_clean_tokens", counted)
        for _ in range(2):
            for post in posts:
                predict(bundle, post, 1, 2)
        assert len(calls) == len({token for post in posts for token in post.split()})

    @pytest.mark.parametrize("kind", ["logreg", "mlp", "svm"])
    def test_forward_is_the_batch_scorers_before_softmax(
        self, reference_raw, reference_results, kind
    ):
        result = reference_results[kind]
        model = result.bundle.classifier
        X = result.space.featurize(prepare_corpus(reference_raw)).to_csr()
        scores = learners.forward(model.layers, X)
        assert np.array_equal(scores, _layer_loop(model.layers, X))
        if learners.LEARNERS[kind].probabilistic:
            scores = learners.softmax(scores)
        assert np.array_equal(scores, self.SCORERS[kind](model, X))


_VALUES_BY_TYPE = {
    type(None): st.none(),
    bool: st.booleans(),
    int: st.integers(),
    float: st.floats(),
    str: st.text(max_size=3),
    list: st.just([]),
    dict: st.just({}),
}


def _mutate(payload, draw):
    """Somewhere in the payload tree, drop a key or item, give a value
    another JSON type, or shorten a list."""
    node = payload
    while True:
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if not (isinstance(child, (dict, list)) and child and draw(st.booleans())):
            break
        node = child
    action = draw(st.sampled_from(["drop", "retype", "shorten"]))
    if action == "drop":
        del node[key]
    elif action == "shorten" and isinstance(child, list) and child:
        node[key] = child[: draw(st.integers(0, len(child) - 1))]
    else:
        node[key] = draw(st.one_of(
            [values for kind, values in _VALUES_BY_TYPE.items() if kind is not type(child)]
        ))


class TestBundleStructure:
    """A bundle whose checksum is valid but whose structure is not that of
    a bundle fails with BundleError, never a KeyError or an
    IndexError."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        records = make_clean_records(n_per_class=(8, 8, 8), seed=3)
        paths = {}
        for kind in ("logreg", "mlp"):
            result = train_bundle(records, kind=kind, tfidf_config=SMALL_TFIDF,
                                  split=SplitConfig(seed=1))
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

    # every top-level key of a saved payload: the ModelBundle fields and the
    # two table digests
    PAYLOAD_KEYS = [
        "kind", "seed", "test_fraction", "slang", "leet", "label_map_digest",
        "tfidf", "scaler", "classifier", "metrics_snapshot", "slang_digest", "leet_digest",
    ]

    def test_payload_keys(self, saved):
        payload = json.loads(saved["logreg"].read_text(encoding="utf-8").split("\n")[2])
        assert sorted(payload) == sorted(self.PAYLOAD_KEYS)

    @pytest.mark.parametrize("key", PAYLOAD_KEYS)
    def test_missing_key(self, saved, tmp_path, key):
        path = self._edited(saved, "logreg", lambda data: data.pop(key), tmp_path)
        with pytest.raises(BundleError, match="malformed payload"):
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
        with pytest.raises(BundleError, match="malformed payload"):
            load_bundle(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda data: data.update(seed=float("inf")),
            lambda data: data["scaler"].update(means=[10**400, 0.0, 0.0]),
        ],
        ids=["seed-infinite", "mean-beyond-float"],
    )
    def test_value_beyond_its_type_is_integrity_error(self, saved, tmp_path, edit):
        with pytest.raises(BundleError, match="malformed payload"):
            load_bundle(self._edited(saved, "logreg", edit, tmp_path))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda data: data["metrics_snapshot"].update(accuracy=float("nan")),
            lambda data: data["metrics_snapshot"]["per_class"][0].update(support=2.5),
            lambda data: data["classifier"]["config"].update(max_iter=2.5),
            lambda data: data["tfidf"]["config"].update(sublinear_tf=0.5),
            lambda data: data.update(seed=2.5),
            lambda data: data["classifier"]["config"].update(max_iter=True),
            lambda data: data["metrics_snapshot"]["per_class"][1].update(name=1),
            lambda data: data.update(test_fraction="0.2"),
            lambda data: data["tfidf"]["idf"].__setitem__(0, "1.5"),
            lambda data: data["scaler"]["means"].__setitem__(0, True),
            lambda data: data.update(label_map_digest=5),
            lambda data: data["classifier"]["W"][1].__setitem__(2, False),
            lambda data: data["metrics_snapshot"]["confusion"][0].__setitem__(0, "3"),
            lambda data: data["tfidf"]["vocabulary"].update(
                {next(iter(data["tfidf"]["vocabulary"])): True}),
            lambda data: data["tfidf"]["config"].update(ngram_range=[1, "2"]),
        ],
        ids=[
            "accuracy-nan", "support-fractional", "max-iter-fractional",
            "sublinear-tf-number", "seed-fractional", "max-iter-boolean",
            "class-name-number", "test-fraction-string", "idf-string-entry",
            "mean-boolean-entry", "label-map-digest-number", "W-boolean-entry",
            "confusion-string-count", "vocabulary-boolean-column", "ngram-string-bound",
        ],
    )
    def test_value_of_the_wrong_json_type_is_integrity_error(self, saved, tmp_path, edit):
        with pytest.raises(BundleError, match="malformed payload"):
            load_bundle(self._edited(saved, "logreg", edit, tmp_path))

    @pytest.mark.parametrize(
        "kind, edit, message",
        [
            ("mlp", lambda data: data["classifier"]["config"].update(activation="tanh"),
             "unsupported activation"),
            ("logreg", lambda data: data["classifier"]["config"].update(solver="saga"),
             "unsupported solver"),
            ("logreg", lambda data: data["classifier"]["config"].update(class_weight="bogus"),
             "unsupported class_weight"),
            ("logreg", lambda data: data.update(seed=-1), "seed must be non-negative"),
            ("logreg", lambda data: data.update(test_fraction=5.0),
             r"test_fraction must be in \(0, 1\), got 5.0"),
            ("logreg", lambda data: data.update(test_fraction=0),
             r"test_fraction must be in \(0, 1\), got 0.0"),
            ("mlp", lambda data: data["classifier"]["config"].update(seed=-1),
             "seed must be non-negative"),
            ("logreg", lambda data: data["tfidf"]["config"].update(max_features=0),
             "max_features must be at least 1"),
            ("mlp", lambda data: data["classifier"]["config"].update(improvement_tol=-1),
             "improvement_tol must be non-negative"),
            ("logreg", lambda data: data["tfidf"]["config"].update(ngram_range=[1, 2, 3]),
             r"ngram_range must be a pair lo,hi with 1 <= lo <= hi, got \(1, 2, 3\)"),
            ("logreg", lambda data: data["tfidf"]["config"].update(min_df=0),
             "min_df must be a whole number at least 1, got 0"),
        ],
        ids=["mlp-activation", "logreg-solver", "logreg-class-weight", "split-seed",
             "split-test-fraction-5", "split-test-fraction-0", "mlp-seed", "max-features",
             "mlp-improvement-tol", "ngram-range-triple", "min-df-zero"],
    )
    def test_unsupported_option_is_integrity_error(self, saved, tmp_path, kind, edit, message):
        with pytest.raises(BundleError, match=f"malformed payload: ValueError.*{message}"):
            load_bundle(self._edited(saved, kind, edit, tmp_path))

    def test_a_huge_ngram_bound_loads_and_predicts_as_saved(self, saved, tmp_path):
        def edit(data):
            data["tfidf"]["config"]["ngram_range"] = [1, 100000]

        huge = load_bundle(self._edited(saved, "logreg", edit, tmp_path))
        bundle = load_bundle(saved["logreg"])
        for text in ("senang bagus keren sekali hari ini", "", "kecewa"):
            served, expected = predict(huge, text, 1, 2), predict(bundle, text, 1, 2)
            assert served.label is expected.label
            assert np.array_equal(served.scores, expected.scores)

    def test_whole_number_float_field_loads_as_float(self, saved, tmp_path):
        def edit(data):
            data["classifier"]["config"]["C"] = 2
            data["metrics_snapshot"]["accuracy"] = 1

        loaded = load_bundle(self._edited(saved, "logreg", edit, tmp_path))
        assert type(loaded.classifier.config.C) is float and loaded.classifier.config.C == 2.0
        assert type(loaded.metrics_snapshot.accuracy) is float

    @pytest.mark.parametrize(
        "kind, edit",
        [
            ("logreg", lambda data: data["tfidf"]["idf"].__setitem__(0, float("nan"))),
            ("logreg", lambda data: data["scaler"]["means"].__setitem__(1, float("inf"))),
            ("logreg", lambda data: data["scaler"]["stds"].__setitem__(2, float("nan"))),
            ("logreg", lambda data: data["classifier"]["W"][2].__setitem__(0, float("-inf"))),
            ("logreg", lambda data: data["classifier"]["b"].__setitem__(0, float("nan"))),
            ("mlp", lambda data: data["classifier"]["weights"][0][3].__setitem__(1, float("nan"))),
            ("mlp", lambda data: data["classifier"]["weights"][2][0].__setitem__(0, float("inf"))),
            ("mlp", lambda data: data["classifier"]["biases"][1].__setitem__(0, float("nan"))),
        ],
        ids=[
            "idf-nan", "mean-inf", "std-nan", "W-minus-inf", "b-nan",
            "mlp-first-layer-nan", "mlp-last-layer-inf", "mlp-bias-nan",
        ],
    )
    def test_non_finite_entry_is_integrity_error(self, saved, tmp_path, kind, edit):
        with pytest.raises(BundleError, match="NaN or infinite"):
            load_bundle(self._edited(saved, kind, edit, tmp_path))

    @pytest.mark.parametrize("count", [2.5, float("nan")], ids=str)
    def test_fractional_confusion_count_is_integrity_error(self, saved, tmp_path, count):
        def edit(data):
            data["metrics_snapshot"]["confusion"][0][0] = count

        with pytest.raises(BundleError, match="whole numbers"):
            load_bundle(self._edited(saved, "logreg", edit, tmp_path))

    def test_overflowing_scaled_metadata_is_rejected(self, saved, tmp_path):
        def tiny_stds(data):
            data["scaler"]["stds"] = [5e-324] * 3

        loaded = load_bundle(self._edited(saved, "logreg", tiny_stds, tmp_path))
        with pytest.raises(TrainingError, match="non-finite"):
            predict(loaded, "senang bagus", 1, 1)

    def test_safe_stds_are_derived_not_stored(self, saved):
        payload = json.loads(saved["logreg"].read_text(encoding="utf-8").split("\n", 2)[2])
        assert sorted(payload["scaler"]) == ["means", "stds"]
        assert sorted(payload["tfidf"]) == ["config", "idf", "vocabulary"]
        scaler = Scaler(means=np.zeros(3), stds=np.array([0.0, 2.0, 3.0]))
        assert scaler.safe_stds_.tolist() == [1.0, 2.0, 3.0]
        other = Scaler(means=scaler.means, stds=scaler.stds)
        other.safe_stds_ = np.ones(3)
        assert scaler == other
        assert "safe_stds_" not in repr(scaler)

    @pytest.fixture(scope="class")
    def small(self, tmp_path_factory):
        """A bundle of each kind, the MLP's hidden layers narrow so that one
        payload rewrite takes milliseconds."""
        records = make_clean_records(n_per_class=(8, 8, 8), seed=3)
        configs = {"logreg": None, "mlp": MlpConfig(hidden_layer_sizes=(4, 3)), "svm": None}
        paths = {}
        for kind, config in configs.items():
            result = train_bundle(records, kind, config, SMALL_TFIDF, split=SplitConfig(seed=1))
            paths[kind] = tmp_path_factory.mktemp(kind) / "m.bundle"
            save_bundle(result.bundle, paths[kind])
        return paths

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(["logreg", "mlp", "svm"]), data=st.data())
    def test_mutated_payload_never_escapes_predict(self, small, kind, data):
        """Drop, retype or shorten one node of the payload: `sentiga
        predict` answers or exits with a documented code, never a traceback."""
        path = small[kind].with_name("mutated.bundle")
        path.write_bytes(small[kind].read_bytes())
        edit_bundle_payload(path, lambda payload: _mutate(payload, data.draw))
        code = main([
            "predict", "--bundle", str(path), "--text", "aku senang #bagus",
            "--retweets", "3", "--likes", "4",
        ])
        assert code in (0, 2, 3, 4, 5)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda data: data["leet"].update({"10": "i"}),
            lambda data: data["leet"].update({"a": "e"}),
            lambda data: data["leet"].update({"4": "ab"}),
            lambda data: data["slang"].update({"gk": 5}),
            lambda data: data["slang"].update({"gak banget": "tidak"}),
            lambda data: data["slang"].update({"gk": ""}),
        ],
        ids=[
            "leet-two-digit-key", "leet-letter-key", "leet-two-letter-value",
            "slang-number-value", "slang-two-word-key", "slang-empty-value",
        ],
    )
    def test_bad_slang_or_leet_table(self, saved, tmp_path, edit):
        path = self._edited(saved, "logreg", edit, tmp_path)
        with pytest.raises(BundleError, match=r"malformed payload: DataError\("):
            load_bundle(path)


    def test_edited_table_with_its_digest_loads(self, saved, tmp_path):
        def edit(data):
            data["slang"]["gk"] = "bukan"
            data["slang_digest"] = pairs_digest(data["slang"])

        loaded = load_bundle(self._edited(saved, "logreg", edit, tmp_path))
        assert loaded.slang["gk"] == "bukan"
        assert clean_text("gk senang", loaded.slang, loaded.leet) == "bukan senang"


class TestTrainBundle:
    def test_bundle_is_self_contained(self, trained):
        result, _ = trained
        bundle = result.bundle
        assert bundle.slang and bundle.leet
        assert bundle.tfidf.vocabulary and bundle.scaler.means.shape == (3,)
        assert len(bundle.label_map_digest) == 64
        assert len(bundle.slang_digest) == 64

    @pytest.mark.parametrize(
        "tables", [{"leet": {"10": "i"}}, {"leet": {"a": "e"}}, {"slang": {"gk": 5}}], ids=str
    )
    def test_table_a_bundle_could_not_load_is_rejected(self, tables):
        with pytest.raises(DataError):
            train_bundle(make_clean_records(), tfidf_config=SMALL_TFIDF, **tables)

    def test_unknown_kind_rejected(self):
        records = make_clean_records()
        with pytest.raises(SentigaError, match="unknown model kind: 'forest'"):
            train_bundle(records, kind="forest")

    @pytest.mark.parametrize(
        "kind, config, message",
        [
            ("forest", None, "unknown model kind: 'forest'"),
            ("svm", LogRegConfig(), "model kind 'svm' takes a LinearSvmConfig, got a LogRegConfig"),
            ("logreg", LinearSvmConfig(), "'logreg' takes a LogRegConfig, got a LinearSvmConfig"),
            ("mlp", LogRegConfig(), "'mlp' takes a MlpConfig, got a LogRegConfig"),
        ],
    )
    def test_bad_kind_or_config_is_refused_before_the_split(
        self, monkeypatch, kind, config, message
    ):
        def no_split(*args, **kwargs):
            raise AssertionError("featurized_split ran for a model that cannot be trained")

        monkeypatch.setattr(evaluation, "featurized_split", no_split)
        with pytest.raises(SentigaError, match=message):
            train_bundle(make_clean_records(), kind=kind, model_config=config)

    @pytest.mark.parametrize("kind", ["logreg", "mlp", "svm"])
    def test_model_without_a_config_takes_the_split_seed(self, kind):
        records = make_clean_records(n_per_class=(8, 8, 8), seed=3)
        result = train_bundle(records, kind=kind, tfidf_config=SMALL_TFIDF,
                              split=SplitConfig(seed=7))
        assert (result.bundle.seed, result.bundle.classifier.config.seed) == (7, 7)


def test_misshapen_metrics_snapshot_is_integrity_error(tmp_path):
    records = make_clean_records(n_per_class=(8, 8, 8), seed=3)
    path = tmp_path / "m.bundle"
    result = train_bundle(records, tfidf_config=SMALL_TFIDF, split=SplitConfig(seed=1))
    save_bundle(result.bundle, path)
    edit_bundle_payload(path, lambda data: data["metrics_snapshot"]["confusion"].pop())
    with pytest.raises(BundleError, match="expected a 3x3 matrix"):
        load_bundle(path)
