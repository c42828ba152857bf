"""Skip-gram word embeddings with negative sampling, trained from scratch.

For a (center, context) pair with center vector v, context vector u, and
sampled noise vectors u_n, the per-pair loss is

    L = -log sigma(u . v) - sum_n log sigma(-u_n . v)

minimized by plain SGD with a learning rate that decays linearly to 10% of
its initial value over the whole run. Context windows are dynamic: each
center draws an effective width uniformly from [1, window], as the usual
implementations of this objective do. Negatives are drawn from the unigram
distribution raised to the 0.75 power.

The random streams are drawn as numpy arrays: an iteration's pairs as one
(n, 2) array, and each chunk's negatives and learning rates at once. These
are the same streams that one scalar draw per center and k draws per pair
would give. The updates stay sequential, one pair at a time in stream order,
each one gather of the pair's distinct rows, three small products and a
scatter back."""

import logging
from dataclasses import dataclass

import numpy as np

from . import binio
from .corpus import FIRST_TOKEN_INDEX, PAD_INDEX, UNK_INDEX, Vocabulary
from .errors import FormatError, TrainingError, check_allocatable, check_options, option

log = logging.getLogger(__name__)

NEGATIVE_POWER = 0.75
FINAL_LR_FRACTION = 0.1
# pairs whose negatives and learning rates are drawn at once; bounds the
# chunk's arrays, not the update order
CHUNK_PAIRS = 4096


@dataclass
class EmbeddingConfig:
    dim: int = option(100, "embedding dimension for skip-gram or --random-init", at_least=1)
    window: int = option(7, "skip-gram context window", at_least=1, below=2 ** 63)  # int64 draws
    min_count: int = option(10, "train-split frequency a token needs to enter the vocabulary",
                            at_least=1)
    iterations: int = option(10, "skip-gram passes over the train split", at_least=1)
    negatives: int = option(5, "negative samples per skip-gram pair", at_least=0)
    learning_rate: float = option(0.025, "initial skip-gram learning rate", above=0.0)
    seed: int = option(1, "skip-gram random seed", at_least=0)

    def __post_init__(self):
        check_options(self)


@dataclass
class EmbeddingMatrix:
    """len(vocab) x dim dense matrix; row 0 is the all-zero padding vector."""

    rows: np.ndarray
    vocab_fingerprint: bytes = b"\x00" * 32

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float64)
        if self.rows.ndim != 2:
            raise ValueError("embedding matrix must be 2-D")

    @property
    def dim(self):
        return self.rows.shape[1]

    @property
    def n_rows(self):
        return self.rows.shape[0]

    def copy(self):
        return EmbeddingMatrix(rows=self.rows.copy(), vocab_fingerprint=self.vocab_fingerprint)

    def fingerprint(self) -> bytes:
        """Checksum over shape, vocab binding, and float32 payload. Computed
        from the rows on every call, as training changes them in place; the
        float32 copy is hashed as it is, with no bytes object made of it."""
        return binio.sha256(
            binio.pack_u32(self.n_rows),
            binio.pack_u32(self.dim),
            self.vocab_fingerprint,
            np.ascontiguousarray(self.rows, dtype="<f4"),
        )


def random_embedding(vocab: Vocabulary, dim: int, seed: int) -> EmbeddingMatrix:
    """Randomly initialized embeddings (pad row zero), for training without
    skip-gram pretraining."""
    check_allocatable((len(vocab), dim))
    rng = np.random.default_rng(seed)
    rows = rng.uniform(-0.5 / dim, 0.5 / dim, size=(len(vocab), dim))
    rows[PAD_INDEX] = 0.0
    return EmbeddingMatrix(rows=rows, vocab_fingerprint=vocab.fingerprint())


def generate_pairs(sequences, window: int, seed) -> np.ndarray:
    """(n, 2) array of (center, context) index pairs, excluding pad/unk everywhere.

    Pad and unk positions are dropped before windowing (the remaining tokens
    close ranks, as in standard implementations of this objective). Each
    center position draws its effective window width uniformly from
    [1, window] in a fixed order, so a given seed replays the identical
    stream. Pairs come center by center, each center's contexts left to
    right.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    rng = np.random.default_rng(seed)
    blocks = []
    for seq in sequences:
        seq = np.asarray(seq).ravel()
        tokens = seq[(seq != PAD_INDEX) & (seq != UNK_INDEX)].astype(np.intp)
        n = len(tokens)
        if n == 0:
            continue
        # one width per position, drawn even where no pair results (n = 1)
        widths = rng.integers(1, window + 1, size=n)
        span = min(window, n - 1)  # no wider than the sequence, whatever the window
        offsets = np.arange(-span, span + 1)
        positions = np.arange(n)[:, None] + offsets
        inside = ((offsets != 0) & (np.abs(offsets) <= widths[:, None])
                  & (positions >= 0) & (positions < n))
        centers, _ = np.nonzero(inside)  # row-major: center by center, offsets ascending
        blocks.append(np.stack([tokens[centers], tokens[positions[inside]]], axis=1))
    if not blocks:
        return np.empty((0, 2), dtype=np.intp)
    return np.concatenate(blocks)


class NegativeSampler:
    """Draws token indices from the unigram^0.75 distribution."""

    def __init__(self, vocab: Vocabulary):
        tokens = vocab.index_to_token[FIRST_TOKEN_INDEX:]
        counts = np.array([vocab.frequencies[t] for t in tokens], dtype=np.float64)
        if len(counts) == 0:
            raise TrainingError("cannot build a negative sampler from an empty vocabulary")
        weights = counts ** NEGATIVE_POWER
        self.probabilities = weights / weights.sum()
        self._cumulative = np.cumsum(self.probabilities)
        self._cumulative[-1] = 1.0

    def sample(self, rng, k: int) -> np.ndarray:
        """k token indices, never pad or unk."""
        u = rng.random(k)
        return FIRST_TOKEN_INDEX + np.searchsorted(self._cumulative, u, side="right")


def sgns_gradient(center, context, negatives):
    """Loss and analytic gradients for one (center, context, negatives) sample.

    Returns (loss, g_center, g_context, g_negatives) where g_negatives has one
    row per negative vector. With U the rows [context; negatives] and v the
    center, each row's coefficient on its dot product is sigma(U v), less 1
    for the context; g_center is coef @ U and each row's gradient coef * v.
    """
    v = np.asarray(center, dtype=np.float64)
    U = np.vstack([np.asarray(context, dtype=np.float64),
                   np.asarray(negatives, dtype=np.float64).reshape(-1, v.shape[0])])
    dots = U @ v
    coef = 0.5 * np.tanh(0.5 * dots) + 0.5
    coef[0] -= 1.0
    # -log sigma(u . v) for the context, -log sigma(-u_n . v) for each negative
    dots[0] *= -1.0
    g_rows = coef[:, None] * v
    return float(np.logaddexp(0.0, dots).sum()), coef @ U, g_rows[0], g_rows[1:]


def _sgd_pairs(W, C, pairs, negatives, lrs) -> np.ndarray:
    """One SGD step per (center, context) row of `pairs`, in order, each
    against the context and that pair's row of `negatives` (a negative equal
    to the context is dropped); returns each pair's loss. `C` holds the
    context vectors negated, to spare a negation per step, and a last,
    all-zero scratch row that dropped negatives and unused slots read.

    Every pair takes one path. Its rows are the context, then its sorted
    distinct negatives, each with its count and `lr` folded into a scale. A
    step gathers U = C[rows], takes the dots U @ v with the center row v and
    coef = sigma(-dots) * scale, less `lr` for the context, then sets
    C[rows] = U + outer(coef, v) and adds coef @ U to v: `sgns_gradient`
    summed over repeats, each gradient taken at the rows before the step.
    """
    scratch = len(C) - 1
    context = pairs[:, 1]
    drawn = np.where(negatives == context[:, None], scratch, negatives)
    drawn.sort(axis=1)
    # a run of equal draws keeps its first; repeats become the scratch row, which sorts last
    distinct = np.where(np.diff(drawn, axis=1, prepend=-1) != 0, drawn, scratch)
    distinct.sort(axis=1)
    distinct = distinct[:, :(distinct != scratch).sum(axis=1).max(initial=0)]
    counts = (drawn[:, None, :] == distinct[:, :, None]).sum(axis=2) * (distinct != scratch)
    rows = np.concatenate([context[:, None], distinct], axis=1)
    weights = np.concatenate([np.ones((len(rows), 1)), counts], axis=1)
    scales = weights * lrs[:, None]
    dots = np.empty(rows.shape)
    # exp(-u . v) overflows to inf for a very negative u . v, and sigma is then 0;
    # a diverging run shows as a non-finite loss, which the caller reports
    with np.errstate(over="ignore", invalid="ignore"):
        for d, r, center, scale, lr in zip(dots, rows, pairs[:, 0].tolist(), scales,
                                          lrs.tolist()):
            v = W[center]
            U = C.take(r, axis=0)
            np.dot(U, v, out=d)
            coef = np.exp(d)
            coef += 1.0
            np.divide(scale, coef, out=coef)
            coef[0] -= lr
            C[r] = U + coef[:, None].dot(v[None, :])
            v += coef.dot(U)
        # -log sigma(u . v) for the context, -log sigma(-u . v) for each negative
        dots[:, 1:] *= -1.0
        return (np.logaddexp(0.0, dots) * weights).sum(axis=1)


def train_skipgram(sequences, config: EmbeddingConfig, vocab: Vocabulary) -> EmbeddingMatrix:
    """Train the embedding matrix on encoded token sequences.

    Center vectors start as `random_embedding`'s rows, context vectors at
    zero. The pad row is never touched; the unk row (excluded from pairs)
    starts at zero and is set to the mean of all trained token rows at the
    end. Deterministic for a fixed seed.
    """
    if vocab.n_tokens < 2:
        raise TrainingError(f"vocabulary too small to train embeddings ({vocab.n_tokens} tokens)")
    W = random_embedding(vocab, config.dim, seed=(config.seed, 0)).rows
    W[UNK_INDEX] = 0.0
    C = np.zeros((len(vocab) + 1, config.dim))  # negated context vectors and a scratch row

    sampler = NegativeSampler(vocab)
    rng_neg = np.random.default_rng((config.seed, 1))
    lr0 = config.learning_rate
    total_epochs = config.iterations

    for epoch in range(total_epochs):
        # the module attribute, so that a wrapper (or a plain list of rows) is honoured
        pairs = np.asarray(generate_pairs(sequences, config.window,
                                          seed=(config.seed, 2, epoch)),
                           dtype=np.intp).reshape(-1, 2)
        n_pairs = len(pairs)
        if not n_pairs:
            log.warning("epoch %d: no training pairs produced", epoch)
            continue
        loss_sum = 0.0
        for start in range(0, n_pairs, CHUNK_PAIRS):
            chunk = pairs[start:start + CHUNK_PAIRS]
            progress = (epoch + np.arange(start, start + len(chunk)) / n_pairs) / total_epochs
            lrs = lr0 * (1.0 - (1.0 - FINAL_LR_FRACTION) * progress)
            check_allocatable((len(chunk), config.negatives))
            negatives = sampler.sample(rng_neg, config.negatives * len(chunk))
            losses = _sgd_pairs(W, C, chunk, negatives.reshape(len(chunk), config.negatives), lrs)
            bad = np.flatnonzero(~np.isfinite(losses))
            if bad.size:
                raise TrainingError(f"non-finite loss at iteration {epoch}, pair {start + bad[0]}")
            loss_sum += losses.sum()
        log.info("embedding iteration %d/%d: mean loss %.4f over %d pairs",
                 epoch + 1, total_epochs, loss_sum / n_pairs, n_pairs)

    W[UNK_INDEX] = W[FIRST_TOKEN_INDEX:].mean(axis=0)
    return EmbeddingMatrix(rows=W, vocab_fingerprint=vocab.fingerprint())


def save_embeddings(matrix: EmbeddingMatrix, path) -> str:
    """An "embedding" container bound to the vocabulary checksum, holding
    one f32 tensor "rows". Returns the file's SHA-256 hex digest."""
    return binio.save(path, "embedding", matrix.vocab_fingerprint, {"rows": matrix.rows}, "f32")


def load_embeddings(path, vocab: Vocabulary = None, data: bytes = None) -> EmbeddingMatrix:
    """Load and validate; if `vocab` is given, its fingerprint and size must match."""
    artifact = binio.load(path, ("embedding",), data)
    rows = artifact.tensors.get("rows")
    if list(artifact.tensors) != ["rows"] or rows.ndim != 2:
        raise FormatError(f"{path}: expected one 2-D tensor 'rows', got {sorted(artifact.tensors)}")
    if vocab is not None and vocab.fingerprint() != artifact.binding:
        raise FormatError(f"{path}: embeddings were built for a different vocabulary")
    if vocab is not None and len(rows) != len(vocab):
        raise FormatError(f"{path}: {len(rows)} rows for a vocabulary of {len(vocab)}")
    return EmbeddingMatrix(rows=rows, vocab_fingerprint=artifact.binding)
