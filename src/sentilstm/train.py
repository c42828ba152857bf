"""Classifier training loop: minibatch gradient descent with Adam or plain
SGD, global-norm gradient clipping, and deterministic checkpointing.

All shuffling and initialization route through seeded generators, so a fixed
config reproduces byte-identical artifacts. Checkpoints chain integrity
hashes: the model file records the embedding checksum, the embedding file
records the vocabulary checksum, and the manifest records per-file digests.
"""

import logging
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import binio
from .corpus import (PAD_INDEX, TOKENIZER_MODES, Vocabulary, load_vocabulary,
                     save_vocabulary, stack)
from .embedding import EmbeddingMatrix, load_embeddings, save_embeddings
from .errors import FormatError, TrainingError, check_options, option
from .metrics import MetricsReport, confusion, metrics
from .nnet import (Grads, LstmParams, RnnParams, backward, cross_entropy,
                   forward)

log = logging.getLogger(__name__)

OPTIMIZERS = ("adam", "sgd")
DEFAULT_LR = {"adam": 0.001, "sgd": 0.1}

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

MANIFEST_NAME = "manifest.json"
MODEL_FILE = "model.bin"
EMBEDDINGS_FILE = "embeddings.bin"
VOCAB_FILE = "vocab.tsv"

INFERENCE_CHUNK = 32  # examples per engine call in batched inference


@dataclass
class TrainConfig:
    """The training stage's options; a clip_norm of 0 disables clipping."""

    epochs: int = option(4, "classifier training epochs", at_least=1)
    batch_size: int = option(32, "examples per gradient step", at_least=1)
    optimizer: str = option("adam", "classifier optimizer", choices=OPTIMIZERS)
    learning_rate: float = option(None, "classifier learning rate (default " + ", ".join(
        f"{lr} for {name}" for name, lr in DEFAULT_LR.items()) + ")", above=0.0)
    clip_norm: float = option(5.0, "global gradient-norm clip; 0 disables clipping", at_least=0.0)
    seed: int = option(1, "master random seed", at_least=0)

    def __post_init__(self):
        check_options(self)

    @property
    def resolved_learning_rate(self) -> float:
        if self.learning_rate is not None:
            return self.learning_rate
        return DEFAULT_LR[self.optimizer]


@dataclass
class TrainReport:
    epoch_losses: list = field(default_factory=list)
    epoch_accuracies: list = field(default_factory=list)
    epoch_seconds: list = field(default_factory=list)
    total_steps: int = 0
    # per epoch: the median and max of the steps' pre-clip gradient norms and
    # the fraction of steps clipped; logged, written to no artifact
    epoch_grad_norms: list = field(default_factory=list)

    @property
    def final_loss(self):
        return self.epoch_losses[-1] if self.epoch_losses else None

    @property
    def final_accuracy(self):
        return self.epoch_accuracies[-1] if self.epoch_accuracies else None


def adam_update(param, grad, m, v, t, lr):
    """One bias-corrected Adam step, in place on param/m/v. t counts from 1."""
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grad * grad
    m_hat = m / (1.0 - ADAM_BETA1 ** t)
    v_hat = v / (1.0 - ADAM_BETA2 ** t)
    param -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


class _Optimizer:
    """Owns the moment buffers for the named tensors and the embedding rows."""

    def __init__(self, params, embedding, config: TrainConfig):
        self.config = config
        self.lr = config.resolved_learning_rate
        self.t = 0
        if config.optimizer == "adam":
            self.m = {name: np.zeros_like(tensor) for name, tensor in params.tensors().items()}
            self.v = {name: np.zeros_like(tensor) for name, tensor in params.tensors().items()}
            self.m_emb = np.zeros_like(embedding.rows)
            self.v_emb = np.zeros_like(embedding.rows)

    def step(self, params, embedding, grads: Grads):
        self.t += 1
        sgd = self.config.optimizer == "sgd"
        tensors = params.tensors()
        for name in sorted(grads.tensors):
            if sgd:
                tensors[name] -= self.lr * grads.tensors[name]
            else:
                adam_update(tensors[name], grads.tensors[name],
                            self.m[name], self.v[name], self.t, self.lr)
        # the touched rows as one (k, D) block: every update is elementwise,
        # so this equals a row-by-row update bit for bit
        index, block = grads.embedding_index, grads.embedding_grad
        if sgd:
            embedding.rows[index] -= self.lr * block
            return
        # lazy moments: untouched rows keep their state and get no update
        param, m, v = embedding.rows[index], self.m_emb[index], self.v_emb[index]
        adam_update(param, block, m, v, self.t, self.lr)
        embedding.rows[index], self.m_emb[index], self.v_emb[index] = param, m, v


def clip_grads(grads: Grads, clip_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most clip_norm; a
    clip_norm of 0 leaves them as they are. Returns the pre-clip norm."""
    norm = grads.global_norm()
    if 0.0 < clip_norm < norm:
        grads.scale_(clip_norm / norm)
    return norm


def _batch_grads(params, embedding, indices, labels):
    """Mean loss, mean grads and correct-prediction count of one batch, in one engine pass."""
    trace = forward(params, embedding, indices, dtype=params.TRAIN_DTYPE)
    loss = float(np.sum(cross_entropy(trace.logits, labels))) / len(labels)
    n_correct = int(np.count_nonzero(trace.predicted == labels))
    return loss, backward(trace, params, labels), n_correct


def train(examples, params, embedding: EmbeddingMatrix, config: TrainConfig):
    """Train the classifier and fine-tune the embedding rows in place;
    returns (params, report)."""
    block, labels = stack(examples)
    n = len(labels)
    if not n:
        raise TrainingError("no training examples")
    empty = ~(block != PAD_INDEX).any(axis=1)
    if empty.any():
        raise TrainingError(f"training example {int(np.argmax(empty))} is empty after masking")

    optimizer = _Optimizer(params, embedding, config)
    shuffle_rng = np.random.default_rng((config.seed, 17))
    report = TrainReport()

    for epoch in range(config.epochs):
        started = time.perf_counter()
        order = shuffle_rng.permutation(n)
        loss_weighted = 0.0
        n_correct = 0
        norms = []
        for start in range(0, n, config.batch_size):
            rows = order[start:start + config.batch_size]
            batch_loss, grads, correct = _batch_grads(params, embedding, block[rows], labels[rows])
            if not np.isfinite(batch_loss):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, step {report.total_steps}"
                )
            norms.append(clip_grads(grads, config.clip_norm))
            optimizer.step(params, embedding, grads)
            loss_weighted += batch_loss * len(rows)
            n_correct += correct
            report.total_steps += 1
        report.epoch_losses.append(loss_weighted / n)
        report.epoch_accuracies.append(n_correct / n)
        report.epoch_seconds.append(time.perf_counter() - started)
        clipped = np.mean(np.array(norms) > config.clip_norm) if config.clip_norm else 0.0
        report.epoch_grad_norms.append((float(np.median(norms)), max(norms), float(clipped)))
        log.info("epoch %d/%d: loss %.4f, accuracy %.4f, gradient norm median %.4g max %.4g, "
                 "%.0f%% of steps clipped (%.1fs)", epoch + 1, config.epochs,
                 report.epoch_losses[-1], report.epoch_accuracies[-1],
                 *report.epoch_grad_norms[-1][:2], 100 * clipped, report.epoch_seconds[-1])
    return params, report


def _predict(params, embedding, indices) -> np.ndarray:
    """Predicted labels for the rows of an (N, T) block, run without BPTT caches
    in chunks of at most INFERENCE_CHUNK rows of similar non-pad length."""
    predicted = np.zeros(len(indices), dtype=np.int64)
    order = np.argsort(np.count_nonzero(indices != PAD_INDEX, axis=1), kind="stable")
    for start in range(0, len(order), INFERENCE_CHUNK):
        rows = order[start:start + INFERENCE_CHUNK]
        predicted[rows] = forward(params, embedding, indices[rows], cache=False).predicted
    return predicted


def predict_dataset(params, embedding, examples) -> np.ndarray:
    """Predicted labels for a list of encoded examples."""
    return _predict(params, embedding, stack(examples)[0])


def evaluate_model(params, embedding, examples, averaging="macro") -> MetricsReport:
    indices, actual = stack(examples)
    return metrics(confusion(actual, _predict(params, embedding, indices)), averaging=averaging)


_KINDS = {cls.KIND: cls for cls in (LstmParams, RnnParams)}


def save_model(params, path, embedding_fingerprint: bytes, maxlen: int) -> str:
    """An "lstm" or "rnn" container bound to the embedding checksum, with maxlen
    as its one header field and f32 tensors; returns the file's SHA-256 hex."""
    return binio.save(path, params.KIND, embedding_fingerprint, params.tensors(), "f32",
                      {"maxlen": maxlen})


def load_model(path, data: bytes = None):
    """Returns (params, maxlen, embedding_fingerprint). A corrupt file or an
    inconsistent tensor set raises FormatError."""
    artifact = binio.load(path, _KINDS, data)
    if set(artifact.fields) != {"maxlen"}:
        raise FormatError(f"{path}: model header fields {sorted(artifact.fields)} != ['maxlen']")
    try:
        params = _KINDS[artifact.kind].from_tensors(artifact.tensors)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
    return params, artifact.fields["maxlen"], artifact.binding


def save_checkpoint(directory, params, embedding: EmbeddingMatrix,
                    vocab: Vocabulary, maxlen: int, tokenizer_mode: str,
                    extra: dict = None):
    """Write model.bin / embeddings.bin / vocab.tsv / manifest.json into
    `directory`. Deterministic: no timestamps, sorted manifest keys."""
    if tokenizer_mode not in TOKENIZER_MODES:  # load_checkpoint would refuse the manifest
        raise ValueError(f"tokenizer mode {tokenizer_mode!r} is not one of {TOKENIZER_MODES}")
    os.makedirs(directory, exist_ok=True)
    vocab_path = os.path.join(directory, VOCAB_FILE)
    emb_path = os.path.join(directory, EMBEDDINGS_FILE)
    model_path = os.path.join(directory, MODEL_FILE)

    if embedding.vocab_fingerprint != vocab.fingerprint():
        raise FormatError("embedding matrix does not match the vocabulary being saved")
    checksums = {
        VOCAB_FILE: save_vocabulary(vocab, vocab_path),
        EMBEDDINGS_FILE: save_embeddings(embedding, emb_path),
        MODEL_FILE: save_model(params, model_path, embedding.fingerprint(), maxlen),
    }

    manifest = {
        "format": "senti-checkpoint",
        "version": 1,
        "kind": params.KIND,
        "hidden": params.hidden,
        "input_dim": params.input_dim,
        "classes": params.classes,
        "maxlen": maxlen,
        "tokenizer": tokenizer_mode,
        "checksums": checksums,
    }
    if extra:
        manifest["extra"] = extra
    # last, and whole: until it lands, the files disagree with the old manifest
    binio.write_json(os.path.join(directory, MANIFEST_NAME), manifest)


# The parse of the last checkpoint this process loaded, keyed by the SHA-256
# digests of its model, embedding and vocabulary files. One entry; a parse
# that raised is not kept.
_parsed = {}


def _parse_checkpoint(directory, paths, blobs):
    """Parse the verified bytes of a checkpoint's three files and check the
    model's embedding binding. Returns (params, maxlen, embedding, vocab)."""
    vocab = load_vocabulary(paths[VOCAB_FILE], blobs[VOCAB_FILE])
    embedding = load_embeddings(paths[EMBEDDINGS_FILE], vocab, blobs[EMBEDDINGS_FILE])
    params, maxlen, emb_fp = load_model(paths[MODEL_FILE], blobs[MODEL_FILE])
    if emb_fp != embedding.fingerprint():
        raise FormatError(f"{directory}: model was trained against a different embedding matrix")
    return params, maxlen, embedding, vocab


def load_checkpoint(directory):
    """Load and cross-validate a checkpoint directory.

    Returns (params, embedding, vocab, manifest). Any broken link in the
    integrity chain (manifest digests, embedding->vocab binding, the model's
    recorded embedding checksum, or a manifest model field that disagrees
    with the model file) raises FormatError.

    Every call reads the manifest and each file once and checks each file's
    SHA-256 against the manifest. The parse of those bytes is reused when the
    three digests equal those of the last checkpoint parsed in this process;
    params and embedding rows are returned as copies of it.
    """
    try:
        manifest = binio.read_json(os.path.join(directory, MANIFEST_NAME), "senti-checkpoint", 1,
                                   {"tokenizer": TOKENIZER_MODES})
    except FileNotFoundError:
        raise FormatError(f"{directory}: missing {MANIFEST_NAME}") from None

    checksums = manifest.get("checksums", {})
    if not isinstance(checksums, dict):
        raise FormatError(f"{directory}: manifest checksums must be a JSON object")
    paths, blobs = {}, {}  # each file is read once: the checked bytes are the parsed bytes
    for name in (MODEL_FILE, EMBEDDINGS_FILE, VOCAB_FILE):
        paths[name] = os.path.join(directory, name)
        try:
            blobs[name] = binio.read_bytes(paths[name])
        except FileNotFoundError:
            raise FormatError(f"{directory}: checkpoint is missing {name}") from None
        if checksums.get(name) != binio.sha256(blobs[name]).hex():
            raise FormatError(f"{directory}: {name} does not match its manifest checksum")

    digests = tuple(checksums[name] for name in (MODEL_FILE, EMBEDDINGS_FILE, VOCAB_FILE))
    parsed = _parsed.get(digests)
    if parsed is None:
        parsed = _parse_checkpoint(directory, paths, blobs)
        _parsed.clear()
        _parsed[digests] = parsed
    params, maxlen, embedding, vocab = parsed

    # on every call, hit or miss; 8.0 or true for an int is refused too
    for key, value in (("kind", params.KIND), ("hidden", params.hidden),
                       ("input_dim", params.input_dim), ("classes", params.classes),
                       ("maxlen", maxlen)):
        if manifest.get(key) != value or type(manifest[key]) is not type(value):
            raise FormatError(f"{directory}: manifest {key} disagrees with model file")
    return params.copy(), embedding.copy(), vocab, manifest
