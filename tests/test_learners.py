import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_separable_xy, whole_weight_grads
from sentiga import learners
from sentiga.corpus import load_raw, prepare_corpus
from sentiga.datasets import reference_corpus_path
from sentiga.errors import DataError, TrainingError
from sentiga.evaluation import SplitConfig, featurized_split
from sentiga.learners import (
    N_CLASSES,
    LinearSvmConfig,
    LogRegConfig,
    LogRegModel,
    MlpConfig,
    MlpModel,
    _Adam,
    _left_sum,
    _logreg_value_grad,
    _mlp_value_grads,
    _one_hot,
    _row_max,
    _svm_value_grads,
    balanced_weights,
    decision_scores_svm,
    predict_logreg,
    predict_proba_logreg,
    predict_proba_mlp,
    predict_svm,
    softmax,
    train_linear_svm,
    train_logreg,
    train_mlp,
)


def relative_error(analytic, numeric):
    return abs(analytic - numeric) / max(1e-8, abs(analytic), abs(numeric))


class TestBalancedWeights:
    def test_reference_counts(self):
        w = balanced_weights([188, 60, 459])
        assert w[0] == pytest.approx(1.25355, abs=1e-4)
        assert w[1] == pytest.approx(3.92778, abs=1e-4)
        assert w[2] == pytest.approx(0.51343, abs=1e-4)

    def test_uniform_counts(self):
        assert np.allclose(balanced_weights([10, 10, 10]), 1.0)

    def test_small_ratio(self):
        w = balanced_weights([2, 1, 1])
        assert np.allclose(w, [0.6667, 1.3333, 1.3333], atol=1e-4)

    def test_weighted_counts_sum_to_n(self):
        counts = np.array([7, 13, 29])
        w = balanced_weights(counts)
        assert np.isclose((w * counts).sum(), counts.sum())

    def test_zero_count_raises(self):
        with pytest.raises(TrainingError, match="every class needs samples"):
            balanced_weights([5, 0, 3])


class TestLogRegGradients:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(11)
        h = 1e-5
        worst = 0.0
        for _ in range(25):
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
                worst = max(worst, relative_error(grad[i], numeric))
        assert worst < 1e-5


class TestTrainLogReg:
    def test_zero_model_is_uniform(self):
        model = LogRegModel(W=np.zeros((3, 4)), b=np.zeros(3), config=LogRegConfig())
        proba = predict_proba_logreg(model, np.random.default_rng(0).normal(size=(5, 4)))
        assert np.allclose(proba, 1 / 3)

    def test_separable_toy_reaches_full_accuracy(self):
        X, y = make_separable_xy(seed=2)
        model = train_logreg(X, y)
        assert np.mean(predict_logreg(model, X) == y) == 1.0

    @pytest.mark.parametrize("train", [train_logreg, train_mlp, train_linear_svm],
                             ids=lambda f: f.__name__)
    def test_label_that_is_not_a_whole_number_raises(self, train):
        X, y = make_separable_xy(seed=2)
        y = y.astype(float)
        y[0] += 0.5
        with pytest.raises(DataError, match="class labels must be whole numbers"):
            train(X, y)

    def test_ragged_labels_raise(self):
        X, _ = make_separable_xy(seed=2)
        with pytest.raises(DataError, match="class labels must be 1-d, got rows of unequal"):
            train_logreg(X[:2], [[0], [1, 2]])

    def test_objective_monotone_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n, D = int(rng.integers(9, 30)), int(rng.integers(2, 6))
            X = rng.normal(size=(n, D))
            y = np.concatenate([[0, 1, 2], rng.integers(0, 3, size=n - 3)])
            model = train_logreg(X, y, LogRegConfig(max_iter=60))
            path = model.objective_history_
            assert all(a >= b - 1e-12 for a, b in zip(path, path[1:]))

    def test_probabilities_sum_to_one(self):
        X, y = make_separable_xy(seed=4)
        model = train_logreg(X, y)
        proba = predict_proba_logreg(model, X)
        assert np.all(proba >= 0) and np.all(proba <= 1)
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_softmax_shift_invariance(self):
        scores = np.array([[0.3, -1.2, 2.0]])
        assert np.allclose(softmax(scores), softmax(scores + 7.5))

    def test_weight_scaling_sharpens_probabilities(self):
        X, y = make_separable_xy(seed=5)
        model = train_logreg(X, y)
        proba1 = predict_proba_logreg(model, X[:1])[0]
        scaled = LogRegModel(W=10 * model.W, b=10 * model.b, config=model.config)
        proba10 = predict_proba_logreg(scaled, X[:1])[0]
        assert proba10.max() > proba1.max()

    def test_balanced_weighting_equals_integer_oversampling(self):
        # counts (6, 3, 3): balanced weights are proportional to (1, 2, 2),
        # so duplicating the two minority classes with C scaled by 2/3
        # produces the identical objective, hence the same minimizer.
        rng = np.random.default_rng(5)
        X = rng.normal(size=(12, 4))
        y = np.array([0] * 6 + [1] * 3 + [2] * 3)
        balanced = train_logreg(X, y, LogRegConfig(C=2.0, class_weight="balanced"))
        X_dup = np.vstack(
            [X[y == 0], np.repeat(X[y == 1], 2, axis=0), np.repeat(X[y == 2], 2, axis=0)]
        )
        y_dup = np.array([0] * 6 + [1] * 6 + [2] * 6)
        oversampled = train_logreg(X_dup, y_dup, LogRegConfig(C=2.0 * 2 / 3, class_weight=None))
        assert np.allclose(balanced.W, oversampled.W, atol=1e-4)
        assert np.allclose(balanced.b, oversampled.b, atol=1e-4)

    def test_single_class_input_raises(self):
        X = np.random.default_rng(0).normal(size=(6, 3))
        with pytest.raises(TrainingError, match="must contain all 3 classes"):
            train_logreg(X, np.zeros(6, dtype=int))

    def test_non_finite_features_raise(self):
        X, y = make_separable_xy(seed=6)
        X[0, 0] = np.nan
        with pytest.raises(TrainingError, match="non-finite"):
            train_logreg(X, y)

    def test_deterministic_bit_identical(self):
        X, y = make_separable_xy(seed=7)
        a = train_logreg(X, y)
        b = train_logreg(X, y)
        assert np.array_equal(a.W, b.W) and np.array_equal(a.b, b.b)


class TestMlpGradients:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(21)
        h = 1e-5
        worst = 0.0
        trials = 0
        while trials < 20:
            n, D = 3, 5
            sizes = [D, 4, 3, 3]
            X = rng.normal(size=(n, D))
            Y = _one_hot(np.array([0, 1, 2]))
            weights = [rng.normal(scale=0.7, size=(a, b)) for a, b in zip(sizes[:-1], sizes[1:])]
            biases = [rng.normal(scale=0.3, size=b) for b in sizes[1:]]
            # keep hidden pre-activations away from the ReLU kink
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
            trials += 1
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
                        worst = max(worst, relative_error(grad[idx], numeric))
        assert worst < 1e-4


class TestMlpInPlaceStep:
    """The training step works one row block at a time; its results must be
    those of the plain whole-array expressions it replaces, bit for bit."""

    # (rows, columns): inside one block; 16,384 // 40 = 409 rows a block, so
    # 1,000 rows end in a short block; one 20,000-wide row is a block alone
    ADAM_SHAPES = [(40, 25), (1000, 40), (3, 20000)]

    @pytest.mark.parametrize("shape", ADAM_SHAPES)
    def test_adam_update_matches_the_allocating_expressions(self, shape):
        rng = np.random.default_rng(5)
        params = [rng.normal(size=shape), rng.normal(size=shape[1])]
        expected = [p.copy() for p in params]
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        optimizer = _Adam(params, 1e-3)
        for t in range(1, 21):
            grads = [rng.normal(size=p.shape) for p in params]
            rate = 1e-3 * np.sqrt(1 - 0.999**t) / (1 - 0.9**t)
            for p, g, m_, v_ in zip(expected, grads, m, v):
                m_ *= 0.9
                m_ += (1 - 0.9) * g
                v_ *= 0.999
                v_ += (1 - 0.999) * g * g
                p -= rate * m_ / (np.sqrt(v_) + 1e-8)
            optimizer.update(params, [g.copy() for g in grads])
            for got, want in zip(params, expected):
                assert np.array_equal(got, want)

    def test_value_grads_match_the_allocating_expressions(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(5, 6))
        Y = _one_hot(np.array([0, 1, 2, 1, 0]))
        W0, W1 = rng.normal(size=(6, 4)), rng.normal(size=(4, 3))
        b0, b1 = rng.normal(size=4), rng.normal(size=3)
        alpha, n = 0.01, X.shape[0]
        hidden = np.maximum(X @ W0 + b0, 0.0)
        scores = hidden @ W1 + b1
        shifted = scores - scores.max(axis=1, keepdims=True)
        log_proba = shifted - np.log(np.exp(shifted).sum(axis=1))[:, None]
        delta = np.exp(log_proba) - Y
        hidden_delta = delta @ W1.T
        hidden_delta[hidden <= 0] = 0.0
        expected_loss = -float((Y * log_proba).sum()) / n
        expected_loss += (0.5 * alpha / n) * (float(np.sum(W0 * W0)) + float(np.sum(W1 * W1)))
        expected_grads = [
            (X.T @ hidden_delta + alpha * W0) / n,
            (hidden.T @ delta + alpha * W1) / n,
        ]

        loss, w_grads, _ = _mlp_value_grads([W0, W1], [b0, b1], X, Y, alpha)
        assert loss == expected_loss
        for got, want in zip(whole_weight_grads(w_grads, [W0, W1]), expected_grads):
            assert np.array_equal(got, want)

    # (features, first hidden width, sparse input, row blocks): 1,130 rows of
    # 256 are 17 blocks of 64 and one of 42; 3,003 rows of 100 are 18 of 163
    # and one of 69; 6 x 4 is inside one block; a dense input takes BLAS
    # products, which blocking must not round differently
    FIRST_LAYERS = [(1130, 256, True, 18), (1130, 256, False, 18), (3003, 100, True, 19),
                    (6, 4, True, 1), (6, 4, False, 1)]

    @pytest.mark.parametrize("D, H, sparse, n_blocks", FIRST_LAYERS)
    def test_first_layer_gradient_blocks_match_the_whole_array_product(self, D, H, sparse,
                                                                       n_blocks):
        import scipy.sparse as sp

        rng = np.random.default_rng(D + H)
        n = 37
        X = sp.random(n, D, density=0.05, format="csr", random_state=rng)
        X.data = rng.normal(size=X.nnz) * 10.0 ** rng.integers(-6, 6, size=X.nnz)
        if not sparse:
            X = X.toarray() + rng.normal(size=(n, D))
        Y = _one_hot(rng.integers(0, 3, size=n))
        weights = [rng.normal(size=(D, H)), rng.normal(size=(H, 3))]
        biases = [rng.normal(size=H), rng.normal(size=3)]
        alpha = 0.01
        hidden = np.maximum(np.asarray(X @ weights[0]) + biases[0], 0.0)
        log_proba = learners._log_softmax(hidden @ weights[1] + biases[1])
        hidden_delta = (np.exp(log_proba) - Y) @ weights[1].T
        hidden_delta[hidden <= 0] = 0.0
        # the whole-array sequence: one product over all rows, then in place
        expected = np.asarray(X.T @ hidden_delta)
        expected += alpha * weights[0]
        expected /= n

        _, w_grads, _ = _mlp_value_grads(weights, biases, X, Y, alpha)
        assert len(learners._row_blocks(weights[0])) == n_blocks
        assert np.array_equal(whole_weight_grads(w_grads, weights)[0], expected)


class TestBlockedPenalty:
    """The loss penalty sums W * W one piece at a time along numpy's own
    pairwise split; it must give `np.sum`'s bits."""

    LENGTHS = st.one_of(
        st.integers(1, 7),                      # below numpy's unrolled sum
        st.integers(8, learners._BLOCK),        # within one block
        st.integers(learners._BLOCK + 1, 5 * learners._BLOCK),
        st.integers(2990, 3010).map(lambda rows: rows * 256),  # around the x4 first layer
    )

    @settings(max_examples=80, deadline=None)
    @given(length=LENGTHS, seed=st.integers(0, 2**32 - 1), decades=st.integers(0, 90))
    def test_equals_numpys_sum_bit_for_bit(self, length, seed, decades):
        rng = np.random.default_rng(seed)
        W = rng.normal(size=length) * 10.0 ** rng.integers(-decades, decades + 1, size=length)
        W = W.reshape(-1, 256) if length % 256 == 0 else W
        got = learners._sum_of_squares(W)
        want = float(np.sum(W * W))
        assert got == want, (
            f"blocked {got!r} != np.sum {want!r} for {W.shape}: numpy {np.__version__} "
            "no longer sums a contiguous array along the split _sum_of_squares follows"
        )


MLP_REFERENCE_CONFIGS = {
    "default": MlpConfig(),
    "no-early-stopping": MlpConfig(early_stopping=False),
    "one-layer-batch-64": MlpConfig(hidden_layer_sizes=(32,), batch_size=64, alpha=0.01),
}

# (_mlp_digest, n_epochs_, best_epoch_), recorded with the training that
# allocated every temporary per step
MLP_REFERENCE_DIGESTS = {
    "default": ("95e0c356a1ba65ed3631febdf2af121e67477116343a9ac533d8342c44e855cc", 32, 21),
    "no-early-stopping": (
        "6c3cbfb762f65f1b0c5495b474e9828187e1052a10d34f44b2d79b609839f1d6", 57, 57
    ),
    "one-layer-batch-64": (
        "ca490f1d9f509c9421164f1b2ddb0d86ba32bc83220cc8592cfe0c3980bf7dbd", 29, 18
    ),
}


def _mlp_digest(model):
    """SHA-256 over the float64 bytes of the weights, the biases, the loss
    curve and the validation scores, in that order."""
    digest = hashlib.sha256()
    for array in (*model.weights, *model.biases, model.loss_curve_, model.validation_scores_):
        digest.update(np.asarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def reference_train_split():
    records = prepare_corpus(load_raw(reference_corpus_path()))
    _, _, X_train, y_train, _, _ = featurized_split(records, SplitConfig(42, 0.2))
    return X_train, y_train


@pytest.fixture(scope="module")
def traced_default_mlp(reference_train_split):
    """The default MLP on the reference training split (565 x 1,130), with
    the peak memory traced while it trains."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        model = train_mlp(*reference_train_split)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return model, peak


class TestMlpReferenceTraining:
    """Pins of the MLP trained on the reference corpus. The digests hold on
    CPython 3.11, numpy 2.4.6 and scipy 1.17.1 with scipy-openblas
    0.3.31 on x86-64; another BLAS may round the matrix products
    differently."""

    @pytest.mark.parametrize("name", sorted(MLP_REFERENCE_CONFIGS))
    def test_weights_and_curves_are_pinned(self, reference_train_split, traced_default_mlp,
                                           name):
        if name == "default":
            model = traced_default_mlp[0]
        else:
            model = train_mlp(*reference_train_split, MLP_REFERENCE_CONFIGS[name])
        assert (_mlp_digest(model), model.n_epochs_, model.best_epoch_) == (
            MLP_REFERENCE_DIGESTS[name]
        )

    def test_training_peak_memory(self, traced_default_mlp):
        # four arrays of the first layer's size (2.2 MiB each) are alive at
        # the peak: weights, Adam's m and v and the best-epoch copy. The
        # gradient and Adam's working space are row blocks; a whole gradient
        # and scratch array made six (15.25 MiB), allocating per step eight
        _, peak = traced_default_mlp
        assert peak <= 12 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_wide_first_layer_peak_is_four_layer_arrays(self):
        # 3,003 features, as at x4: a first-layer array is 5.9 MiB, so the
        # bound holds four of them and less than a fifth beside the rest
        import scipy.sparse as sp

        rng = np.random.default_rng(24)
        X = sp.random(600, 3003, density=0.005, format="csr", random_state=rng)
        y = np.arange(600) % 3
        layer = 3003 * 256 * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            train_mlp(X, y, MlpConfig(max_iter=2))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 4 * layer + 4 * 2**20, f"peak {peak / layer:.2f} first-layer arrays"


class TestTrainMlp:
    def test_zero_weights_forward_is_uniform(self):
        model = MlpModel(
            weights=[np.zeros((5, 4)), np.zeros((4, 3)), np.zeros((3, 3))],
            biases=[np.zeros(4), np.zeros(3), np.zeros(3)],
            config=MlpConfig(hidden_layer_sizes=(4, 3)),
        )
        proba = predict_proba_mlp(model, np.random.default_rng(0).normal(size=(6, 5)))
        assert np.allclose(proba, 1 / 3)

    def test_plateau_stops_patience_plus_one_past_best(self):
        # lr=0 freezes the weights, so the validation score never improves
        X, y = make_separable_xy(seed=8)
        cfg = MlpConfig(
            hidden_layer_sizes=(4, 3), learning_rate_init=0.0, max_iter=50, patience=3, seed=0
        )
        model = train_mlp(X, y, cfg)
        assert model.best_epoch_ == 1
        assert model.n_epochs_ - model.best_epoch_ == cfg.patience + 1

    def test_learns_separable_toy(self):
        X, y = make_separable_xy(seed=9, per_class=20)
        model = train_mlp(X, y, MlpConfig(hidden_layer_sizes=(8, 4), max_iter=200, seed=1))
        proba = predict_proba_mlp(model, X)
        assert np.mean(np.argmax(proba, axis=1) == y) > 0.9
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_needs_ten_samples_for_early_stopping(self):
        X, y = make_separable_xy(seed=10, per_class=2)
        with pytest.raises(TrainingError):
            train_mlp(X, y, MlpConfig(hidden_layer_sizes=(4,)))

    def test_deterministic_bit_identical(self):
        X, y = make_separable_xy(seed=11)
        cfg = MlpConfig(hidden_layer_sizes=(4, 3), max_iter=10, seed=42)
        a = train_mlp(X, y, cfg)
        b = train_mlp(X, y, cfg)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            assert np.array_equal(ba, bb)


class TestSvm:
    def test_subgradient_matches_central_differences_off_kink(self):
        rng = np.random.default_rng(31)
        h = 1e-5
        worst = 0.0
        trials = 0
        while trials < 20:
            n, D = 6, 4
            y = np.array([0, 1, 2, 0, 1, 2])
            sample_w = balanced_weights(np.bincount(y, minlength=3))[y]
            signs = np.full((n, 3), -1.0)
            signs[np.arange(n), y] = 1.0
            X = rng.normal(size=(n, D))
            W = rng.normal(scale=0.5, size=(3, D))
            b = rng.normal(scale=0.3, size=3)
            margins = 1 - signs * (X @ W.T + b)
            _, grad_W, grad_b = _svm_value_grads(W, b, X, signs, sample_w, 1.0)
            # stay away from hinge kinks and from exactly-zero gradients
            if (
                np.abs(margins).min() < 0.05
                or np.abs(grad_W).min() < 1e-3
                or np.abs(grad_b).min() < 1e-3
            ):
                continue
            trials += 1
            for arr, grad in ((W, grad_W), (b, grad_b)):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + h
                    f_plus = _svm_value_grads(W, b, X, signs, sample_w, 1.0)[0]
                    arr[idx] = orig - h
                    f_minus = _svm_value_grads(W, b, X, signs, sample_w, 1.0)[0]
                    arr[idx] = orig
                    numeric = (f_plus - f_minus) / (2 * h)
                    worst = max(worst, relative_error(grad[idx], numeric))
        assert worst < 1e-5

    def test_separable_toy_reaches_full_accuracy(self):
        X, y = make_separable_xy(seed=12)
        model = train_linear_svm(X, y)
        assert np.mean(predict_svm(model, X) == y) == 1.0

    def test_zero_model_ties_resolve_to_class_zero(self):
        from sentiga.learners import LinearSvmModel

        model = LinearSvmModel(W=np.zeros((3, 4)), b=np.zeros(3), config=LinearSvmConfig())
        X = np.random.default_rng(0).normal(size=(4, 4))
        scores = decision_scores_svm(model, X)
        assert np.all(scores == 0)
        assert np.all(predict_svm(model, X) == 0)

    def test_deterministic_bit_identical(self):
        X, y = make_separable_xy(seed=13)
        a = train_linear_svm(X, y)
        b = train_linear_svm(X, y)
        assert np.array_equal(a.W, b.W) and np.array_equal(a.b, b.b)


class TestClassAxisReductions:
    """`_row_max` and `_left_sum(scores.T)` fold the class columns with one
    ufunc call per column; their bits must equal numpy's row reductions."""

    def test_equal_axis_one_reductions_bit_for_bit(self):
        rng = np.random.default_rng(0)
        specials = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e300, 1e300, 1.0])
        for trial in range(300):
            n = int(rng.integers(1, 2264))
            scores = rng.standard_normal((n, N_CLASSES)) * 10.0 ** rng.integers(-300, 300)
            ties = rng.random((n, N_CLASSES)) < 0.2
            scores[ties] = rng.choice(specials, size=int(ties.sum()))
            scores[rng.random(n) < 0.1] = rng.choice(specials)  # whole rows of one value
            scores[0] = -0.0
            assert _row_max(scores).tobytes() == scores.max(axis=1).tobytes(), trial
            assert _left_sum(scores.T).tobytes() == scores.sum(axis=1).tobytes(), trial

    def test_softmax_and_objective_use_it_with_unchanged_bits(self):
        X, y = make_separable_xy(seed=4, per_class=7)
        scores = np.random.default_rng(5).standard_normal((21, N_CLASSES)) * 30
        shifted = scores - scores.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        assert softmax(scores).tobytes() == (exp / exp.sum(axis=1, keepdims=True)).tobytes()

        theta = np.random.default_rng(6).standard_normal(N_CLASSES * 3 + N_CLASSES)
        Y, sample_w = _one_hot(y), np.linspace(0.5, 2.0, len(y))
        value, grad = _logreg_value_grad(theta, X, Y, sample_w, 2.0)
        W, b = theta[:9].reshape(3, 3), theta[9:]
        s = X @ W.T + b
        s = s - s.max(axis=1, keepdims=True)
        log_proba = s - np.log(np.exp(s).sum(axis=1))[:, None]
        ce = -(Y * log_proba).sum(axis=1)
        assert value == 2.0 * float(sample_w @ ce) + 0.5 * float(np.sum(W * W))
        grad_scores = 2.0 * sample_w[:, None] * (np.exp(log_proba) - Y)
        expected = np.concatenate([((X.T @ grad_scores).T + W).ravel(), grad_scores.sum(axis=0)])
        assert grad.tobytes() == expected.tobytes()
        assert _logreg_value_grad(theta, X, Y, sample_w, 2.0, X.T)[1].tobytes() == grad.tobytes()


class TestLogRegEvaluationCount:
    def test_reference_training_calls_the_module_objective_112_times(
        self, reference_train_split, monkeypatch
    ):
        """perfbench counts `learners.logreg.evals` by wrapping this module
        attribute; a refactor that bound the objective elsewhere would make
        that counter read 0."""
        calls = []
        original = learners._logreg_value_grad

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(learners, "_logreg_value_grad", counting)
        model = train_logreg(*reference_train_split)
        assert (len(calls), model.n_iter_) == (112, 103)
        assert len(model.objective_history_) == 104


class TestLogRegReferencePath:
    def test_objective_history_is_pinned(self, reference_train_split):
        """Bundles leave the solver's path out, so this pin is what notices an
        L-BFGS step that changed. SHA-256 over the float64 bytes of
        `objective_history_`, on the platform of the MLP pins."""
        model = train_logreg(*reference_train_split)
        path = np.asarray(model.objective_history_, dtype=np.float64)
        assert hashlib.sha256(path.tobytes()).hexdigest() == (
            "155df1c6f91b9099eadea779750347af259774a891034729dfcc8fac3d699291"
        )
        assert model.n_iter_ == len(model.objective_history_) - 1 == 103


class TestMlpValidationSplit:
    def test_a_class_too_small_for_a_validation_share_still_validates(self):
        # 4 per class: a stratified 10 % share rounds to no validation rows
        X, y = make_separable_xy(seed=7, per_class=4)
        model = train_mlp(X, y, MlpConfig(hidden_layer_sizes=(4,), max_iter=5))
        assert model.validation_scores_ and np.all(np.isfinite(model.validation_scores_))
        assert model.best_epoch_ >= 1
        assert all(np.all(np.isfinite(W)) for W in model.weights)

    def test_a_share_that_takes_every_row_still_leaves_a_training_row(self):
        # 4 per class: a stratified 99.9 % share rounds to every row
        X, y = make_separable_xy(seed=7, per_class=4)
        config = MlpConfig(hidden_layer_sizes=(4,), max_iter=5, validation_fraction=0.999)
        model = train_mlp(X, y, config)
        assert model.loss_curve_ and np.all(np.isfinite(model.loss_curve_))
        assert model.validation_scores_ and np.all(np.isfinite(model.validation_scores_))

    @pytest.mark.parametrize("counts, train, val, next_draw", [
        # a class of one member: no stratified split, a plain shuffle
        ((8, 1, 1), [0, 1, 2, 3, 4, 5, 6, 7, 9], [8], 873),
        # stratified at 10 %, the validation part rounds to empty: a plain shuffle after it
        ((4, 3, 3), [0, 1, 2, 4, 5, 6, 7, 8, 9], [3], 341),
    ])
    def test_fallback_split_indices_and_generator_draws(self, counts, train, val, next_draw):
        y = np.repeat(np.arange(N_CLASSES), counts)
        rng = np.random.default_rng(7)
        train_indices, val_indices = learners._validation_split(y, 0.1, rng)
        assert train_indices.tolist() == train
        assert val_indices.tolist() == val
        assert rng.integers(1000) == next_draw  # the split drew as many numbers as before


def _csr_bytes(X):
    return [getattr(X, part).tobytes() for part in ("data", "indices", "indptr")]


class TestSparseInput:
    """`_as_matrix` uses a float64 CSR matrix as it is, so no learner may
    write into the caller's matrix."""

    @pytest.mark.parametrize("train, predict, config", [
        (train_logreg, predict_logreg, LogRegConfig(max_iter=20)),
        (train_mlp, learners.predict_mlp, MlpConfig(hidden_layer_sizes=(16,), max_iter=3)),
        (train_linear_svm, predict_svm, LinearSvmConfig(epochs=20)),
    ], ids=["logreg", "mlp", "svm"])
    @pytest.mark.parametrize("sorted_indices", [True, False], ids=["sorted", "unsorted"])
    def test_training_and_predicting_leave_the_callers_matrix_unchanged(
        self, reference_train_split, train, predict, config, sorted_indices
    ):
        X, y = reference_train_split
        X = X.copy()
        if not sorted_indices:   # each row's entries in descending column order
            for i in range(X.shape[0]):
                row = slice(X.indptr[i], X.indptr[i + 1])
                X.indices[row], X.data[row] = X.indices[row][::-1], X.data[row][::-1]
            X.has_sorted_indices = False
        before = _csr_bytes(X)
        predict(train(X, y, config), X)
        assert _csr_bytes(X) == before

    def test_a_float64_csr_matrix_is_used_as_it_is(self, reference_train_split):
        X, _ = reference_train_split
        used = learners._as_matrix(X)
        assert used.dtype == np.float64
        for part in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(used, part), getattr(X, part)), part

    def test_an_integer_csr_matrix_is_converted(self):
        import scipy.sparse as sp

        X = sp.csr_matrix(np.array([[0, 2, 0], [3, 0, 4]], dtype=np.int64))
        used = learners._as_matrix(X)
        assert used.dtype == np.float64
        assert not np.shares_memory(used.data, X.data)
        assert X.data.dtype == np.int64
        assert np.array_equal(used.toarray(), [[0.0, 2.0, 0.0], [3.0, 0.0, 4.0]])
