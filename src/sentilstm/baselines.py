"""Classical baselines over bag-of-token-count features.

All three baselines share one featurization: raw token counts over the real
vocabulary (padding and unknown indices are excluded), kept as a CSR sparse
matrix. Naive Bayes consumes the raw counts; logistic regression consumes
TF-IDF-weighted, L2-normalized rows. Everything here is deterministic: no
RNG is involved anywhere (zero-initialized weights, full-batch descent).
"""

import dataclasses
import logging
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import binio
from .errors import FormatError, TrainingError
from .metrics import N_CLASSES

log = logging.getLogger(__name__)

NB_ALPHA = 1.0


def count_features(sequences, n_tokens: int) -> sparse.csr_matrix:
    """Token-count matrix, one row per sequence, one column per vocabulary
    token (column j holds the count of vocabulary index j+2)."""
    indptr = [0]
    col_indices = []
    data = []
    for seq in sequences:
        arr = np.asarray(seq).ravel()
        arr = arr[arr >= 2] - 2
        if arr.size and arr.max() >= n_tokens:
            raise TrainingError(
                f"token index {int(arr.max()) + 2} out of range for vocabulary of {n_tokens}"
            )
        if arr.size:
            counts = np.bincount(arr)
            nz = np.flatnonzero(counts)
            col_indices.extend(nz.tolist())
            data.extend(counts[nz].tolist())
        indptr.append(len(col_indices))
    return sparse.csr_matrix(
        (np.array(data, dtype=np.float64),
         np.array(col_indices, dtype=np.int64),
         np.array(indptr, dtype=np.int64)),
        shape=(len(indptr) - 1, n_tokens),
    )


@dataclass
class TfidfModel:
    idf: np.ndarray  # (n_tokens,)

    def __post_init__(self):
        self.idf = np.asarray(self.idf, dtype=np.float64).ravel()


def tfidf_fit(counts: sparse.csr_matrix) -> TfidfModel:
    """idf_t = ln((1 + N) / (1 + df_t)) + 1 with df counted on nonzero cells."""
    n_docs = counts.shape[0]
    if n_docs == 0:
        raise TrainingError("cannot fit tf-idf on an empty matrix")
    df = np.asarray((counts > 0).sum(axis=0)).ravel().astype(np.float64)
    idf = np.log((1.0 + n_docs) / (1.0 + df)) + 1.0
    return TfidfModel(idf=idf)


def tfidf_transform(model: TfidfModel, counts: sparse.csr_matrix) -> sparse.csr_matrix:
    """Scale raw counts by idf and L2-normalize rows (all-zero rows stay zero)."""
    if counts.shape[1] != model.idf.shape[0]:
        raise TrainingError(
            f"feature width {counts.shape[1]} does not match fitted idf ({model.idf.shape[0]})"
        )
    weighted = counts.astype(np.float64).multiply(model.idf[np.newaxis, :]).tocsr()
    norms = np.sqrt(np.asarray(weighted.multiply(weighted).sum(axis=1)).ravel())
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    return sparse.diags(scale).dot(weighted).tocsr()


@dataclass
class NaiveBayesModel:
    KIND = "naive-bayes"

    log_prior: np.ndarray       # (3,)
    log_likelihood: np.ndarray  # (3, n_tokens)

    def __post_init__(self):
        self.log_prior = np.asarray(self.log_prior, dtype=np.float64).ravel()
        self.log_likelihood = np.asarray(self.log_likelihood, dtype=np.float64)


def naive_bayes_fit(counts: sparse.csr_matrix, labels, alpha: float = NB_ALPHA) -> NaiveBayesModel:
    """Multinomial Naive Bayes with Laplace smoothing on raw counts."""
    labels = np.asarray(labels, dtype=np.int64)
    if counts.shape[0] != labels.shape[0]:
        raise TrainingError("feature matrix and labels disagree on the number of rows")
    n_docs, n_tokens = counts.shape
    class_counts = np.zeros(N_CLASSES, dtype=np.float64)
    token_counts = np.zeros((N_CLASSES, n_tokens), dtype=np.float64)
    for c in range(N_CLASSES):
        mask = labels == c
        class_counts[c] = mask.sum()
        if class_counts[c]:
            token_counts[c] = np.asarray(counts[mask].sum(axis=0)).ravel()
    if np.any(class_counts == 0):
        missing = [c for c in range(N_CLASSES) if class_counts[c] == 0]
        raise TrainingError(f"no training examples for class(es) {missing}")
    log_prior = np.log(class_counts / n_docs)
    totals = token_counts.sum(axis=1, keepdims=True)
    log_likelihood = np.log((token_counts + alpha) / (totals + alpha * n_tokens))
    return NaiveBayesModel(log_prior=log_prior, log_likelihood=log_likelihood)


def naive_bayes_predict(model: NaiveBayesModel, counts: sparse.csr_matrix) -> np.ndarray:
    scores = counts.dot(model.log_likelihood.T) + model.log_prior
    return np.argmax(np.asarray(scores), axis=1).astype(np.int64)


@dataclass
class LogRegConfig:
    iterations: int = 300
    learning_rate: float = 0.5
    l2: float = 1e-4

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.l2 < 0:
            raise ValueError("l2 must be >= 0")


@dataclass
class LogRegModel:
    KIND = "logreg"

    W: np.ndarray  # (3, n_tokens)
    b: np.ndarray  # (3,)
    idf: np.ndarray  # (n_tokens,) so raw counts can be transformed at predict time

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64).ravel()
        self.idf = np.asarray(self.idf, dtype=np.float64).ravel()


def _loss_and_grad(W, b, X, labels, l2):
    """Mean softmax cross-entropy with an L2 penalty on W (not b)."""
    n = X.shape[0]
    scores = np.asarray(X.dot(W.T)) + b
    shift = scores - scores.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shift).sum(axis=1, keepdims=True))
    log_probs = shift - log_z
    loss = -log_probs[np.arange(n), labels].mean() + 0.5 * l2 * float(np.sum(W * W))
    delta = np.exp(log_probs)
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    grad_W = np.asarray(X.T.dot(delta)).T + l2 * W
    grad_b = delta.sum(axis=0)
    return loss, grad_W, grad_b


def logreg_fit(counts: sparse.csr_matrix, labels,
               config: LogRegConfig = None) -> LogRegModel:
    """Softmax regression on TF-IDF features by full-batch gradient descent
    from zero weights."""
    config = config or LogRegConfig()
    labels = np.asarray(labels, dtype=np.int64)
    if counts.shape[0] != labels.shape[0]:
        raise TrainingError("feature matrix and labels disagree on the number of rows")
    tfidf = tfidf_fit(counts)
    X = tfidf_transform(tfidf, counts)
    W = np.zeros((N_CLASSES, counts.shape[1]), dtype=np.float64)
    b = np.zeros(N_CLASSES, dtype=np.float64)
    for it in range(config.iterations):
        loss, grad_W, grad_b = _loss_and_grad(W, b, X, labels, config.l2)
        if not np.isfinite(loss):
            raise TrainingError(f"non-finite loss at logistic regression iteration {it}")
        W -= config.learning_rate * grad_W
        b -= config.learning_rate * grad_b
    log.info("logistic regression: final loss %.4f after %d iterations", loss, config.iterations)
    return LogRegModel(W=W, b=b, idf=tfidf.idf)


def logreg_predict(model: LogRegModel, counts: sparse.csr_matrix) -> np.ndarray:
    X = tfidf_transform(TfidfModel(idf=model.idf), counts)
    scores = np.asarray(X.dot(model.W.T)) + model.b
    return np.argmax(scores, axis=1).astype(np.int64)


_KINDS = {cls.KIND: cls for cls in (NaiveBayesModel, LogRegModel)}


def save_baseline(model, path, vocab_fingerprint: bytes):
    """A container of the model's kind bound to the vocabulary checksum,
    holding each field as an f64 tensor."""
    if type(model) not in _KINDS.values():
        raise TypeError(f"unsupported baseline model {type(model).__name__}")
    binio.save(path, model.KIND, vocab_fingerprint, vars(model), "f64")


def load_baseline(path, vocab=None):
    """Returns the reconstructed model; validates the container and (when a
    vocabulary is supplied) the recorded vocabulary checksum."""
    artifact = binio.load(path, _KINDS)
    if vocab is not None and vocab.fingerprint() != artifact.binding:
        raise FormatError(f"{path}: baseline was built for a different vocabulary")
    cls = _KINDS[artifact.kind]
    names = sorted(f.name for f in dataclasses.fields(cls))
    if sorted(artifact.tensors) != names:
        raise FormatError(
            f"{path}: baseline tensors {sorted(artifact.tensors)} do not match kind {artifact.kind!r}"
        )
    return cls(**artifact.tensors)
