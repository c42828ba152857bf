"""Classical baselines over bag-of-token-count features.

All three baselines share one featurization: raw token counts over the real
vocabulary (padding and unknown indices are excluded), kept as a CSR sparse
matrix. Naive Bayes consumes the raw counts; logistic regression consumes
TF-IDF-weighted, L2-normalized rows. Everything here is deterministic: no
RNG is involved anywhere (zero-initialized weights, full-batch descent).
"""

import dataclasses
import functools
import logging
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import binio
from .corpus import CLASS_INDEX_LIST, FIRST_TOKEN_INDEX, N_CLASSES
from .errors import FormatError, TrainingError, check_options, option

log = logging.getLogger(__name__)

NB_ALPHA = 1.0


def count_features(sequences, n_tokens: int) -> sparse.csr_matrix:
    """Token-count matrix, one row per sequence, one column per vocabulary
    token (column j holds the count of vocabulary index FIRST_TOKEN_INDEX + j)."""
    # the empty tail row gives concatenate an array when there are no sequences
    parts = [*sequences, np.empty(0, dtype=np.int64)]
    n_rows = len(parts) - 1
    flat = np.concatenate(parts)
    if flat.dtype.kind != "i":  # e.g. float64 when an empty Python list is among them
        flat, given = flat.astype(np.int64), flat
        if np.any(flat != given):
            raise TrainingError("token indices must be integers")
    lengths = np.fromiter(map(len, parts), dtype=np.int64, count=len(parts))
    keep = flat >= FIRST_TOKEN_INDEX
    rows = np.repeat(np.arange(n_rows + 1), lengths)[keep]
    cols = flat[keep] - FIRST_TOKEN_INDEX
    over = cols >= n_tokens
    if over.any():
        # the message names the largest index of the first offending sequence
        row = rows[over.argmax()]
        raise TrainingError(f"token index {int(cols[rows == row].max()) + FIRST_TOKEN_INDEX} "
                            f"out of range for vocabulary of {n_tokens}")
    # one sorted key per (row, column) cell: CSR order, duplicates counted
    keys, counts = np.unique(rows * n_tokens + cols, return_counts=True)
    return sparse.csr_matrix(
        (counts.astype(np.float64),
         keys % n_tokens,
         np.searchsorted(keys, np.arange(n_rows + 1) * n_tokens)),
        shape=(n_rows, n_tokens),
    )


def tfidf_fit(counts: sparse.csr_matrix) -> np.ndarray:
    """The idf vector: idf_t = ln((1 + N) / (1 + df_t)) + 1, df counted on nonzero cells."""
    n_docs = counts.shape[0]
    if n_docs == 0:
        raise TrainingError("cannot fit tf-idf on an empty matrix")
    df = np.asarray((counts > 0).sum(axis=0)).ravel().astype(np.float64)
    return np.log((1.0 + n_docs) / (1.0 + df)) + 1.0


def tfidf_transform(idf: np.ndarray, counts: sparse.csr_matrix) -> sparse.csr_matrix:
    """Scale raw counts by idf and L2-normalize rows (all-zero rows stay zero)."""
    if counts.shape[1] != idf.shape[0]:
        raise TrainingError(
            f"feature width {counts.shape[1]} does not match fitted idf ({idf.shape[0]})"
        )
    weighted = counts.astype(np.float64).multiply(idf[np.newaxis, :]).tocsr()
    norms = np.sqrt(np.asarray(weighted.multiply(weighted).sum(axis=1)).ravel())
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    return sparse.diags(scale).dot(weighted).tocsr()


def _check_shapes(model, shapes: dict):
    """Make each named field of `model` a float64 array; ValueError unless
    it has the shape given."""
    for name, expected in shapes.items():
        tensor = np.asarray(getattr(model, name), dtype=np.float64)
        if tensor.shape != expected:
            raise ValueError(f"{model.KIND} {name} shape {tensor.shape} != {expected}")
        setattr(model, name, tensor)


@dataclass
class NaiveBayesModel:
    KIND = "naive-bayes"

    log_prior: np.ndarray       # (N_CLASSES,)
    log_likelihood: np.ndarray  # (N_CLASSES, n_tokens)

    def __post_init__(self):
        n_tokens = np.shape(self.log_likelihood)[-1:]
        _check_shapes(self, {"log_prior": (N_CLASSES,), "log_likelihood": (N_CLASSES, *n_tokens)})


def _class_labels(counts, labels) -> np.ndarray:
    """`labels` as int64 class indices, one per row of `counts`; a value
    that is not a class index is refused."""
    given = np.asarray(labels)
    if given.shape != counts.shape[:1]:
        raise TrainingError("feature matrix and labels disagree on the number of rows")
    valid = (given[:, None] == np.arange(N_CLASSES)).any(axis=1)
    if not valid.all():
        row = int(np.argmin(valid))
        raise TrainingError(
            f"label {given[row].item()!r} in row {row} is not a class ({CLASS_INDEX_LIST})")
    return given.astype(np.int64)


def naive_bayes_fit(counts: sparse.csr_matrix, labels, alpha: float = NB_ALPHA) -> NaiveBayesModel:
    """Multinomial Naive Bayes with Laplace smoothing on raw counts."""
    labels = _class_labels(counts, labels)
    n_docs, n_tokens = counts.shape
    per_class = np.bincount(labels, minlength=N_CLASSES)
    if not per_class.all():
        missing = np.flatnonzero(per_class == 0).tolist()
        raise TrainingError(f"no training examples for class(es) {missing}")
    # the (N_CLASSES, n_docs) one-hot label matrix times the counts: exact, as the
    # counts are integers
    one_hot = sparse.csr_matrix(
        (np.ones(n_docs), np.argsort(labels, kind="stable"), np.r_[0, np.cumsum(per_class)]),
        shape=(N_CLASSES, n_docs))
    token_counts = (one_hot @ counts).toarray()
    log_prior = np.log(per_class / n_docs)
    totals = token_counts.sum(axis=1, keepdims=True)
    log_likelihood = np.log((token_counts + alpha) / (totals + alpha * n_tokens))
    return NaiveBayesModel(log_prior=log_prior, log_likelihood=log_likelihood)


def naive_bayes_predict(model: NaiveBayesModel, counts: sparse.csr_matrix) -> np.ndarray:
    scores = counts.dot(model.log_likelihood.T) + model.log_prior
    return np.argmax(np.asarray(scores), axis=1).astype(np.int64)


@dataclass
class LogRegConfig:
    iterations: int = option(300, "full-batch gradient-descent steps", at_least=1)
    learning_rate: float = option(0.5, "gradient-descent step size", above=0.0)
    l2: float = option(1e-4, "L2 penalty on W (not b)", at_least=0.0)

    def __post_init__(self):
        check_options(self)


@dataclass
class LogRegModel:
    KIND = "logreg"

    W: np.ndarray  # (N_CLASSES, n_tokens)
    b: np.ndarray  # (N_CLASSES,)
    idf: np.ndarray  # (n_tokens,) so raw counts can be transformed at predict time

    def __post_init__(self):
        n_tokens = np.shape(self.W)[-1:]
        _check_shapes(self, {"W": (N_CLASSES, *n_tokens), "b": (N_CLASSES,), "idf": n_tokens})


def _loss_and_grad(Wt, b, X, XT, one_hot, l2):
    """Mean softmax cross-entropy with an L2 penalty on W (not b), and its
    gradient, for the weights kept as `Wt` = W.T of shape (n_tokens, K).
    `XT` is `X.T` as CSR and `one_hot` the (n, K) label indicator. The row
    max and row sum over the K classes go column by column, left to right.
    Returns (loss, grad of Wt, grad of b)."""
    n = X.shape[0]
    scores = X @ Wt + b
    scores -= functools.reduce(np.maximum, scores.T)[:, None]
    scores -= np.log(functools.reduce(np.add, np.exp(scores).T))[:, None]  # log-probabilities
    loss = -np.vdot(scores, one_hot) / n + 0.5 * l2 * np.vdot(Wt, Wt)
    delta = np.exp(scores)
    delta -= one_hot
    delta /= n
    grad_Wt = XT @ delta
    grad_Wt += l2 * Wt
    return loss, grad_Wt, delta.sum(axis=0)


def logreg_fit(counts: sparse.csr_matrix, labels,
               config: LogRegConfig = None) -> LogRegModel:
    """Softmax regression on TF-IDF features by full-batch gradient descent
    from zero weights."""
    config = config or LogRegConfig()
    labels = _class_labels(counts, labels)
    idf = tfidf_fit(counts)
    X = tfidf_transform(idf, counts)
    XT = X.T.tocsr()  # each token's gradient sums its documents in ascending order
    one_hot = np.eye(N_CLASSES)[labels]
    Wt = np.zeros((counts.shape[1], N_CLASSES))
    b = np.zeros(N_CLASSES)
    for it in range(config.iterations):
        loss, grad_Wt, grad_b = _loss_and_grad(Wt, b, X, XT, one_hot, config.l2)
        if not np.isfinite(loss):
            raise TrainingError(f"non-finite loss at logistic regression iteration {it}")
        grad_Wt *= config.learning_rate
        grad_b *= config.learning_rate
        Wt -= grad_Wt
        b -= grad_b
    log.info("logistic regression: final loss %.4f after %d iterations", loss, config.iterations)
    return LogRegModel(W=Wt.T, b=b, idf=idf)


def logreg_predict(model: LogRegModel, counts: sparse.csr_matrix) -> np.ndarray:
    X = tfidf_transform(model.idf, counts)
    scores = np.asarray(X.dot(model.W.T)) + model.b
    return np.argmax(scores, axis=1).astype(np.int64)


_KINDS = {cls.KIND: cls for cls in (NaiveBayesModel, LogRegModel)}


def save_baseline(model, path, vocab_fingerprint: bytes):
    """A container of the model's kind bound to the vocabulary checksum,
    holding each field as an f64 tensor. Returns the file's SHA-256 hex."""
    if type(model) not in _KINDS.values():
        raise TypeError(f"unsupported baseline model {type(model).__name__}")
    return binio.save(path, model.KIND, vocab_fingerprint, vars(model), "f64")


def load_baseline(path, vocab=None):
    """Returns the reconstructed model; validates the container, the tensor
    shapes and (when a vocabulary is supplied) the recorded vocabulary
    checksum."""
    artifact = binio.load(path, _KINDS)
    if vocab is not None and vocab.fingerprint() != artifact.binding:
        raise FormatError(f"{path}: baseline was built for a different vocabulary")
    cls = _KINDS[artifact.kind]
    names = sorted(f.name for f in dataclasses.fields(cls))
    if sorted(artifact.tensors) != names:
        raise FormatError(
            f"{path}: baseline tensors {sorted(artifact.tensors)} do not match kind {artifact.kind!r}"
        )
    try:
        return cls(**artifact.tensors)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
