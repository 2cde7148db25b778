"""The three classifiers over the hybrid feature space.

* Multinomial logistic regression with balanced class weights, trained
  full-batch by two-loop L-BFGS (history 10) with Armijo backtracking, so
  the objective is non-increasing across iterations.
* A feed-forward MLP (two hidden layers) trained with minibatch Adam and
  accuracy-based early stopping on a held-out validation split.
* A one-vs-rest linear SVM with plain hinge loss, trained by deterministic
  full-batch subgradient descent with a 1/(reg * t) step schedule.

All training runs in float64 and is bit-deterministic for a fixed seed.
Class ordinals follow SentimentClass (negative=0, neutral=1, positive=2).
Their configs, fitted models and `LEARNERS`, the one table the rest of the
package reads for what differs between the three, live in `model`.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import DataError, TrainingError
from .model import (N_CLASSES, LinearSvmConfig, LinearSvmModel, LogRegConfig, LogRegModel,
                    MlpConfig, MlpModel, _check_features, _left_sum, _row_max, forward, softmax)

if TYPE_CHECKING:
    import scipy.sparse as sp


def balanced_weights(class_counts: Sequence[int] | np.ndarray) -> np.ndarray:
    """The per-class loss multipliers w_c = n / (K * n_c), which equalize the
    aggregate influence of each class: sum(w_c * n_c) = n."""
    counts = np.asarray(class_counts, dtype=float)
    if np.any(counts <= 0):
        raise TrainingError(f"every class needs samples, got counts {counts}")
    n = counts.sum()
    return n / (len(counts) * counts)


def _as_matrix(X) -> sp.csr_matrix | np.ndarray:
    import scipy.sparse as sp

    if sp.issparse(X):
        # a float64 CSR input is used as it is: no learner writes into X
        X = X.tocsr().astype(np.float64, copy=False)
        if not np.all(np.isfinite(X.data)):
            raise TrainingError("feature matrix contains non-finite values")
        return X
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DataError(f"expected a 2-d feature matrix, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise TrainingError("feature matrix contains non-finite values")
    return X


def _check_labels(X, y) -> np.ndarray:
    y = np.asarray([int(v) for v in y])
    n = X.shape[0]
    if y.shape[0] != n:
        raise DataError(f"{n} rows but {y.shape[0]} labels")
    if n < N_CLASSES:
        raise TrainingError(f"need at least {N_CLASSES} samples, got {n}")
    present = set(np.unique(y))
    if present != set(range(N_CLASSES)):
        raise TrainingError(
            f"training data must contain all {N_CLASSES} classes, found {sorted(present)}"
        )
    return y


def _sample_weights(y: np.ndarray, class_weight: str | None) -> np.ndarray:
    if class_weight is None:
        return np.ones(len(y))
    counts = np.bincount(y, minlength=N_CLASSES)
    return balanced_weights(counts)[y]


def _log_softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - _row_max(scores)[:, None]
    log_norm = np.log(_left_sum(np.exp(shifted).T))
    return shifted - log_norm[:, None]


def _scores(model, X) -> np.ndarray:
    X = _as_matrix(X)
    layers = model.layers
    _check_features(layers[0][0].shape[0], X.shape[1])
    return forward(layers, X)


def _one_hot(y: np.ndarray) -> np.ndarray:
    out = np.zeros((len(y), N_CLASSES))
    out[np.arange(len(y)), y] = 1.0
    return out


# --------------------------------------------------------------------------
# logistic regression
# --------------------------------------------------------------------------

def _logreg_value_grad(
    theta: np.ndarray,
    X,
    Y: np.ndarray,
    sample_w: np.ndarray,
    C: float,
    XT=None,
) -> tuple[float, np.ndarray]:
    """Objective C * sum_i w_i * CE_i + 0.5 * ||W||_F^2 (bias unpenalized)
    and its gradient, both over the flattened (W, b) vector. `XT` is `X.T`,
    which a caller evaluating many times builds once."""
    D = X.shape[1]
    W = theta[: N_CLASSES * D].reshape(N_CLASSES, D)
    b = theta[N_CLASSES * D :]

    log_proba = _log_softmax(X @ W.T + b)
    ce = -_left_sum((Y * log_proba).T)
    value = C * float(sample_w @ ce) + 0.5 * float(np.sum(W * W))

    grad_scores = C * sample_w[:, None] * (np.exp(log_proba) - Y)
    grad_W = ((X.T if XT is None else XT) @ grad_scores).T + W
    grad_b = grad_scores.sum(axis=0)
    return value, np.concatenate([np.asarray(grad_W).ravel(), grad_b])


def _lbfgs_minimize(value_grad, theta0, max_iter, tol):
    """Two-loop L-BFGS with Armijo backtracking.

    Stops when the gradient sup-norm drops below tol, the iteration budget
    runs out, or no step achieves sufficient decrease. Every accepted step
    decreases the objective, so the recorded path is non-increasing.
    Returns (theta, path, iterations), one iteration per step after the
    starting value.
    """
    theta = np.array(theta0, dtype=float)
    value, grad = value_grad(theta)
    path = [value]
    memory = deque(maxlen=10)  # (s, y, 1 / (s @ y)) of the latest steps

    for _ in range(max_iter):
        if np.max(np.abs(grad)) < tol:
            break

        # two-loop recursion for the quasi-Newton direction
        q = grad.copy()
        alphas = []
        for s, y, rho in reversed(memory):
            a = rho * (s @ q)
            alphas.append(a)
            q -= a * y
        if memory:
            s, y, _ = memory[-1]
            q *= (s @ y) / (y @ y)
        for (s, y, rho), a in zip(memory, reversed(alphas)):
            q += (a - rho * (y @ q)) * s
        direction = -q

        slope = grad @ direction
        if slope >= 0:  # numerical safeguard: fall back to steepest descent
            direction = -grad
            slope = -(grad @ grad)

        step = 1.0 if memory else min(1.0, 1.0 / max(1.0, np.abs(grad).sum()))
        for _backtrack in range(60):
            candidate = theta + step * direction
            cand_value, cand_grad = value_grad(candidate)
            if cand_value <= value + 1e-4 * step * slope:
                break
            step *= 0.5
        else:  # no step decreased the objective enough
            break

        s = candidate - theta
        y = cand_grad - grad
        sy = s @ y
        if sy > 1e-12:
            memory.append((s, y, 1.0 / sy))

        theta, value, grad = candidate, cand_value, cand_grad
        path.append(value)

    return theta, path, len(path) - 1


def train_logreg(X, y, config: LogRegConfig = LogRegConfig()) -> LogRegModel:
    """Fit balanced multinomial logistic regression from the zero model."""
    X = _as_matrix(X)
    y = _check_labels(X, y)
    sample_w = _sample_weights(y, config.class_weight)
    Y = _one_hot(y)
    D = X.shape[1]

    XT = X.T
    theta0 = np.zeros(N_CLASSES * D + N_CLASSES)
    theta, path, n_iter = _lbfgs_minimize(
        # looked up on the module at each call, so a wrapper installed on
        # `learners._logreg_value_grad` sees every evaluation
        lambda t: _logreg_value_grad(t, X, Y, sample_w, config.C, XT),
        theta0,
        max_iter=config.max_iter,
        tol=config.tol,
    )
    return LogRegModel(
        W=theta[: N_CLASSES * D].reshape(N_CLASSES, D),
        b=theta[N_CLASSES * D :],
        config=config,
        n_iter_=n_iter,
        objective_history_=path,
    )


def predict_proba_logreg(model: LogRegModel, X) -> np.ndarray:
    return softmax(_scores(model, X))


def predict_logreg(model: LogRegModel, X) -> np.ndarray:
    # np.argmax resolves ties toward the lowest class ordinal
    return np.argmax(predict_proba_logreg(model, X), axis=1)


# --------------------------------------------------------------------------
# multilayer perceptron
# --------------------------------------------------------------------------

# About how many entries of a parameter one step of training handles at a time
# (64 rows of a 256-wide layer), so that a block and its temporaries stay in cache
_BLOCK = 2**14


def _row_blocks(param) -> list[slice]:
    """Slices of `param`'s rows, each about `_BLOCK` entries and at least one row."""
    step = max(1, _BLOCK // math.prod(param.shape[1:]))
    return [slice(start, start + step) for start in range(0, len(param), step)]


def _sum_of_squares(W) -> float:
    """`float(np.sum(W * W))` bit for bit, with `W * W` made one piece of at
    most `_BLOCK` entries at a time. numpy sums a contiguous run of n > 128
    values as the sum of its two halves, split at n // 2 rounded down to a
    multiple of 8; this halves the same way until a piece fits in a block, so
    it adds the same values in the same order."""
    flat = W.reshape(-1)

    def total(start, stop):
        if stop - start <= _BLOCK:
            piece = flat[start:stop]
            return float(np.sum(piece * piece))
        half = (stop - start) // 2
        half -= half % 8
        return total(start, start + half) + total(start + half, stop)

    return total(0, flat.size)


class _WeightGrad:
    """The gradient (A.T @ delta + alpha * W) / n of one weight, made one row
    block at a time: `grad[rows]` is a new array holding those rows, from the
    same operations in the same order as the whole-array expression. A block
    reads the weight's rows when it is made, so the optimizer takes each block
    before it changes those rows."""

    def __init__(self, A, delta, W, alpha, n):
        # a sparse A.T as CSR, so that a row block is a slice; CSR row i adds
        # its samples in ascending order, as the CSC product A.T @ delta does
        AT = A.T
        self.AT = AT if isinstance(AT, np.ndarray) else AT.tocsr()
        self.delta, self.W, self.alpha, self.n = delta, W, alpha, n

    def __getitem__(self, rows: slice) -> np.ndarray:
        grad = self.AT[rows] @ self.delta
        grad += self.alpha * self.W[rows]
        grad /= self.n
        return grad


def _mlp_value_grads(weights, biases, X, Y, alpha):
    """Mean cross-entropy + (alpha / 2n) * sum ||W_l||^2, with gradients.

    Hidden activations are ReLU, the output is softmax; the penalty covers
    weights only, not biases. The first layer's gradient is a `_WeightGrad`,
    read one row block at a time, and the penalty's `W * W` is made one block
    at a time, so no array the size of the first layer is made here.
    """
    n = X.shape[0]
    last = len(weights) - 1

    activations = [X]
    for i, (W, b) in enumerate(zip(weights, biases)):
        z = np.asarray(activations[-1] @ W) + b
        if i != last:
            np.maximum(z, 0.0, out=z)
        activations.append(z)
    log_proba = _log_softmax(activations[-1])
    proba = np.exp(log_proba)

    loss = -float((Y * log_proba).sum()) / n
    loss += (0.5 * alpha / n) * sum(_sum_of_squares(W) for W in weights)

    w_grads = [None] * len(weights)
    b_grads = [None] * len(weights)
    delta = proba - Y
    for i in range(last, -1, -1):
        grad = _WeightGrad(activations[i], delta, weights[i], alpha, n)
        # a hidden layer's gradient is smaller than the activations it reads,
        # so it is made whole here and they are let go
        w_grads[i] = grad if i == 0 else grad[:]
        b_grads[i] = delta.mean(axis=0)
        if i > 0:
            delta = delta @ weights[i].T
            delta[activations[i] <= 0] = 0.0
    return loss, w_grads, b_grads


_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


class _Adam:
    """Adam that updates its parameters in place, one row block
    (`_row_blocks`) at a time: `update` reads each gradient a block at a
    time, `grad[rows]`, so no temporary is larger than a block."""

    def __init__(self, params, lr):
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def update(self, params, grads):
        self.t += 1
        rate = (
            self.lr
            * np.sqrt(1 - _ADAM_BETA2**self.t)
            / (1 - _ADAM_BETA1**self.t)
        )
        for p_all, g_all, m_all, v_all in zip(params, grads, self.m, self.v):
            for rows in _row_blocks(p_all):
                g = g_all[rows]  # made before the rows of p_all change
                m, v = m_all[rows], v_all[rows]
                m *= _ADAM_BETA1
                m += g * (1 - _ADAM_BETA1)
                v *= _ADAM_BETA2
                v += g * (1 - _ADAM_BETA2) * g
                p_all[rows] -= m * rate / (np.sqrt(v) + _ADAM_EPS)


def _validation_split(y, fraction, rng):
    """Stratified where possible, plain seeded shuffle otherwise. Neither part
    is ever empty: without validation rows no epoch would count as best and
    the model would keep no trained parameters; without training rows, no batch."""
    from .evaluation import stratified_split

    if np.bincount(y).min() >= 2:  # every class can give a member to each part
        split = stratified_split(y, fraction, rng)
        if len(split.test_indices) and len(split.train_indices):
            return split.train_indices, split.test_indices
    order = rng.permutation(len(y))
    n_val = min(len(y) - 1, max(1, int(np.floor(len(y) * fraction + 0.5))))
    return np.sort(order[n_val:]), np.sort(order[:n_val])


def train_mlp(X, y, config: MlpConfig = MlpConfig()) -> MlpModel:
    """Train the feed-forward baseline with minibatch Adam.

    With early stopping on, a validation fraction is held out and training
    stops once the validation accuracy has failed to improve by more than
    improvement_tol for patience + 1 consecutive epochs; the best epoch's
    parameters are restored.
    """
    X = _as_matrix(X)
    y = _check_labels(X, y)
    if config.early_stopping and X.shape[0] < 10:
        raise TrainingError("early stopping needs at least 10 samples")

    rng = np.random.default_rng(config.seed)
    layer_units = [X.shape[1], *config.hidden_layer_sizes, N_CLASSES]
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_units[:-1], layer_units[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))

    if config.early_stopping:
        train_idx, val_idx = _validation_split(y, config.validation_fraction, rng)
        X_train, y_train = X[train_idx], y[train_idx]
        X_val, y_val = X[val_idx], y[val_idx]
    else:
        X_train, y_train = X, y
        X_val = y_val = None

    Y_train = _one_hot(y_train)
    n = X_train.shape[0]
    batch_size = config.batch_size if config.batch_size else min(200, n)
    batch_size = int(np.clip(batch_size, 1, n))

    params = [*weights, *biases]
    optimizer = _Adam(params, config.learning_rate_init)
    # the best epoch's parameters, copied into the same arrays each time
    best_params = [np.empty_like(p) for p in params] if config.early_stopping else None
    best_value = -np.inf
    best_epoch = 0
    no_improvement = 0
    model = MlpModel(weights=weights, biases=biases, config=config)

    for epoch in range(1, config.max_iter + 1):
        # one permuted copy per epoch, so each minibatch is a contiguous slice
        order = rng.permutation(n)
        X_epoch, Y_epoch = X_train[order], Y_train[order]
        epoch_loss = 0.0
        for start in range(0, n, batch_size):
            Y_batch = Y_epoch[start : start + batch_size]
            loss, w_grads, b_grads = _mlp_value_grads(
                weights, biases, X_epoch[start : start + batch_size], Y_batch, config.alpha
            )
            optimizer.update(params, [*w_grads, *b_grads])
            del w_grads, b_grads  # spent; free them before the next step's
            epoch_loss += loss * len(Y_batch)
        model.loss_curve_.append(epoch_loss / n)
        model.n_epochs_ = epoch

        if config.early_stopping:
            proba = softmax(forward(model.layers, X_val))
            score = float(np.mean(np.argmax(proba, axis=1) == y_val))
            model.validation_scores_.append(score)
        else:
            # loss-based stop: the score is -loss so the same improvement
            # comparison applies
            score = -model.loss_curve_[-1]
        if score < best_value + config.improvement_tol:
            no_improvement += 1
        else:
            no_improvement = 0
        if score > best_value:
            best_value = score
            best_epoch = epoch
            if config.early_stopping:
                for best, p in zip(best_params, params):
                    np.copyto(best, p)
        if no_improvement > config.patience:
            break

    if config.early_stopping:  # the first epoch always improves on -inf
        model.weights = best_params[: len(weights)]
        model.biases = best_params[len(weights) :]
    model.best_epoch_ = best_epoch
    return model


def predict_proba_mlp(model: MlpModel, X) -> np.ndarray:
    return softmax(_scores(model, X))


def predict_mlp(model: MlpModel, X) -> np.ndarray:
    return np.argmax(predict_proba_mlp(model, X), axis=1)


# --------------------------------------------------------------------------
# linear SVM (one-vs-rest hinge)
# --------------------------------------------------------------------------

def _svm_value_grads(W, b, X, signs, sample_w, reg):
    """0.5 * reg * ||W||_F^2 + (1/n) sum_ic w_i * max(0, 1 - s_ic f_ic)
    and its (sub)gradient; f = X W^T + b."""
    n = X.shape[0]
    scores = np.asarray(X @ W.T) + b
    margins = 1.0 - signs * scores
    violating = margins > 0
    value = 0.5 * reg * float(np.sum(W * W))
    value += float((sample_w[:, None] * np.where(violating, margins, 0.0)).sum()) / n

    grad_scores = -(sample_w[:, None] * signs * violating) / n
    grad_W = reg * W + (X.T @ grad_scores).T
    grad_b = grad_scores.sum(axis=0)
    return value, np.asarray(grad_W), grad_b


def train_linear_svm(X, y, config: LinearSvmConfig = LinearSvmConfig()) -> LinearSvmModel:
    """Deterministic full-batch subgradient descent with step 1/(reg * t),
    sharing the balanced class weights with the other learners."""
    X = _as_matrix(X)
    y = _check_labels(X, y)
    sample_w = _sample_weights(y, "balanced")
    signs = np.full((len(y), N_CLASSES), -1.0)
    signs[np.arange(len(y)), y] = 1.0

    W = np.zeros((N_CLASSES, X.shape[1]))
    b = np.zeros(N_CLASSES)
    for t in range(1, config.epochs + 1):
        _, grad_W, grad_b = _svm_value_grads(W, b, X, signs, sample_w, config.regularization)
        step = 1.0 / (config.regularization * t)
        W -= step * grad_W
        b -= step * grad_b
    return LinearSvmModel(W=W, b=b, config=config)


def decision_scores_svm(model: LinearSvmModel, X) -> np.ndarray:
    return _scores(model, X)


def predict_svm(model: LinearSvmModel, X) -> np.ndarray:
    return np.argmax(decision_scores_svm(model, X), axis=1)
