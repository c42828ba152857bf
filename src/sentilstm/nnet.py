"""Batched, packed LSTM and vanilla-RNN recurrences with hand-derived
backpropagation through time.

One step of the LSTM cell, with [h, x] the concatenation of the previous
hidden state and the current input, sigma the logistic function, and * the
elementwise product:

    f = sigma(W_f [h, x] + b_f)         forget gate
    i = sigma(W_i [h, x] + b_i)         input gate
    cbar = tanh(W_c [h, x] + b_c)       candidate cell
    c' = f * c + i * cbar               cell update
    o = sigma(W_o [h, x] + b_o)         output gate
    h' = o * tanh(c')                   hidden output

The RNN step is h' = tanh(W [h, x] + b). Classification reads the hidden
state after the last non-pad token through a dense head and a softmax.

`forward` takes one (T,) example or a (B, T) batch of token indices. Each
row's non-pad tokens move to the row's front in their order (left-
compaction), and the rows are packed: stably sorted longest first, so the
rows with a token at step t are a prefix of n_t rows, and the N real tokens
gathered time-major. The recurrence runs feature-major, h and c as
(H, n_t). The gates are one fused (G*H, H+D) matrix (LSTM: G = 4, in f, i,
o, c order) with the sigmoid rows halved, exactly, so that one tanh covers
every gate: sigma(v) = 0.5 * tanh(v / 2) + 0.5. Its input half maps the N
tokens in one product, laid out as one contiguous (G*H, n_t) block per
step; step t adds W_h @ h to its block and runs the cell on it in place, so
gate g is the contiguous rows gH:(g+1)H and no pad is ever a cell column.
Where n_t drops (a finish step) the rows that ran out keep their final h.
With cache, each run of equal-width steps keeps h, c and tanh(c) (the RNN:
h) in one block. `backward` turns a run's blocks in place into the gate-
gradient factors that do not depend on dh or dc, so that a step only scales
them by dh and dc. It walks the runs in reverse, a row joining at its last
step with dh from the head and dc = 0, forms dW, db and dx with one product
each, and returns the gradient of the batch's mean loss, one summed entry
per embedding row read. Both return results in input row order.

Padding invariance is exact: an example with pads appended compacts to the
same (1, L) array as without them, so both pack the same way and run the
same floating-point operations in the same order. Inside a larger batch a
row agrees with its lone run to rounding only.

The recurrence runs in `forward`'s dtype, float64 by default; the head, the
probabilities and every gradient are float64. `train` runs the LSTM at
float32 against float64 master weights, embedding rows and Adam moments
(Micikevicius et al., "Mixed Precision Training", 2018); the RNN, `evaluate`
and `predict` run at float64.
"""

from dataclasses import dataclass

import numpy as np

from .corpus import N_CLASSES, PAD_INDEX
from .errors import TrainingError, check_allocatable


def softmax(logits):
    """Stable softmax over the last axis: shift by the max logit first."""
    logits = np.asarray(logits, dtype=np.float64)
    ex = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return ex / ex.sum(axis=-1, keepdims=True)


def cross_entropy(logits, label):
    """-log softmax(logits)[label] via log-sum-exp, never through raw
    probabilities. One (K,) row and an int label give a float; (B, K) rows
    and (B,) labels give one loss per row."""
    logits = np.asarray(logits, dtype=np.float64)
    m = logits.max(axis=-1, keepdims=True)
    loss = (m + np.log(np.exp(logits - m).sum(axis=-1, keepdims=True))
            - np.take_along_axis(logits, np.asarray(label)[..., None], axis=-1))[..., 0]
    return float(loss) if loss.ndim == 0 else loss


class _CellParams:
    """What the LSTM and RNN parameter sets share. Each subclass declares
    its shape table SHAPES, one entry per tensor in file order, over the
    dimensions H (hidden), C (hidden + input) and K (classes, always
    N_CLASSES); TENSOR_NAMES follows from it. The first entry is a recurrent
    weight of shape (H, C). GATES lists the gate tensors W<g>, b<g> in
    fused-matrix order, and TRAIN_DTYPE the dtype `train` runs the engine in."""

    def __post_init__(self):
        W = getattr(self, self.TENSOR_NAMES[0])
        if W.ndim != 2 or W.shape[1] <= W.shape[0]:
            raise ValueError(f"{self.TENSOR_NAMES[0]} shape {W.shape} is not (hidden, hidden+input)")
        for name, expected in self.shapes(*W.shape).items():
            if getattr(self, name).shape != expected:
                raise ValueError(f"{name} shape {getattr(self, name).shape} != {expected}")

    @classmethod
    def shapes(cls, hidden, width):
        """Each tensor's shape at hidden size H = hidden and C = width."""
        dims = {"H": hidden, "C": width, "K": N_CLASSES}
        return {name: tuple(dims[s] for s in symbols) for name, symbols in cls.SHAPES.items()}

    @classmethod
    def init(cls, hidden: int, input_dim: int, seed=0):
        """Every (H, C) weight uniform in +-1/sqrt(C), drawn in field order
        from one stream; the forget bias b_f 1.0, so early training does not
        forget everything before the gates have learned anything; every other
        bias and the head zero."""
        check_allocatable((hidden, hidden + input_dim))  # the largest tensor
        rng, bound = np.random.default_rng(seed), 1.0 / np.sqrt(hidden + input_dim)
        return cls(**{name: (rng.uniform(-bound, bound, size=shape) if cls.SHAPES[name] == "HC"
                             else np.full(shape, 1.0 if name == "b_f" else 0.0))
                      for name, shape in cls.shapes(hidden, hidden + input_dim).items()})

    @classmethod
    def from_tensors(cls, tensors: dict):
        """Build from a name -> array mapping; a missing or extra name, or a
        shape that disagrees with the table, raises ValueError."""
        if set(tensors) != set(cls.TENSOR_NAMES):
            raise ValueError(f"{cls.KIND} tensors {sorted(tensors)} != {sorted(cls.TENSOR_NAMES)}")
        return cls(**tensors)

    @property
    def hidden(self):
        return self.head_W.shape[1]

    @property
    def input_dim(self):
        return getattr(self, self.TENSOR_NAMES[0]).shape[1] - self.hidden

    @property
    def classes(self):
        return self.head_W.shape[0]

    def tensors(self):
        return {name: getattr(self, name) for name in self.TENSOR_NAMES}

    def copy(self):
        return type(self)(**{name: t.copy() for name, t in self.tensors().items()})

    def gate_weights(self, dtype=np.float64):
        """The gates as one (G*H, H+D) matrix and one (G*H,) bias in dtype,
        the sigmoid gates' rows halved (see the module docstring)."""
        W = np.concatenate([getattr(self, "W" + g) for g in self.GATES], dtype=dtype)
        b = np.concatenate([getattr(self, "b" + g) for g in self.GATES], dtype=dtype)
        W[:self.sigmoid_rows] *= 0.5
        b[:self.sigmoid_rows] *= 0.5
        return W, b

    @property
    def sigmoid_rows(self):  # every gate but the last is a sigmoid gate
        return (len(self.GATES) - 1) * self.hidden


@dataclass
class LstmParams(_CellParams):
    """Gate weights of shape (hidden, hidden+input), biases of shape (hidden,),
    plus the dense classification head (classes, hidden)."""

    W_f: np.ndarray
    b_f: np.ndarray
    W_i: np.ndarray
    b_i: np.ndarray
    W_c: np.ndarray
    b_c: np.ndarray
    W_o: np.ndarray
    b_o: np.ndarray
    head_W: np.ndarray
    head_b: np.ndarray

    KIND = "lstm"
    TRAIN_DTYPE = np.float32  # the engine's dtype in training; the master weights stay float64
    SHAPES = {"W_f": "HC", "b_f": "H", "W_i": "HC", "b_i": "H", "W_c": "HC", "b_c": "H",
              "W_o": "HC", "b_o": "H", "head_W": "KH", "head_b": "K"}
    TENSOR_NAMES = tuple(SHAPES)
    GATES = ("_f", "_i", "_o", "_c")  # the three sigmoid gates first


@dataclass
class RnnParams(_CellParams):
    """Vanilla tanh recurrence h' = tanh(W [h, x] + b) with the same dense head."""

    W: np.ndarray
    b: np.ndarray
    head_W: np.ndarray
    head_b: np.ndarray

    KIND = "rnn"
    TRAIN_DTYPE = np.float64  # at float32, BPTT through saturated steps hits slow subnormals
    SHAPES = {"W": "HC", "b": "H", "head_W": "KH", "head_b": "K"}
    TENSOR_NAMES = tuple(SHAPES)
    GATES = ("",)


init_lstm_params = LstmParams.init
init_rnn_params = RnnParams.init


def _lstm_cell(a, c_prev, out=(None, None, None)):
    """The LSTM cell after its affine map, feature-major: a holds the fused
    pre-activations (4H, ...) in f, i, o, c order with the sigmoid rows
    halved, and is overwritten by the activations. Returns (h, c, s, cbar,
    tanh_c), s being the sigmoid gates f, i, o stacked; h, c, tanh_c go to out."""
    H = c_prev.shape[0]
    np.tanh(a, out=a)
    s, cbar = a[:3 * H], a[3 * H:]
    s *= 0.5
    s += 0.5
    c = np.multiply(s[:H], c_prev, out=out[1])
    c += s[H:2 * H] * cbar
    tanh_c = np.tanh(c, out=out[2])
    return np.multiply(s[2 * H:], tanh_c, out=out[0]), c, s, cbar, tanh_c


def _runs(lengths):
    """The packed steps as runs of equal width, given each row's length:
    (first token, past-last token, width n) of each run, widest first."""
    runs, s, done = [], 0, 0
    for i, length in enumerate(sorted(lengths.tolist())):
        if length > done:  # steps done..length-1 run the rows that are this long or longer
            n = len(lengths) - i
            runs.append((s, s + n * (length - done), n))
            s, done = runs[-1][1], length
    return runs


@dataclass
class ForwardTrace:
    """logits and probs are (K,) for one example, (B, K) for a batch; cache
    holds what `backward` needs (None after forward(..., cache=False))."""

    indices: np.ndarray   # (B, T) left-compacted tokens, cut to the longest row
    logits: np.ndarray
    probs: np.ndarray
    cache: dict = None

    @property
    def predicted(self):
        labels = np.argmax(self.probs, axis=-1)
        return int(labels) if labels.ndim == 0 else labels


def _compact(indices):
    """Each row's non-pad tokens moved to its front in order, cut to the
    longest row; returns those (B, T) tokens as intp and each row's length."""
    idx = np.atleast_2d(np.asarray(indices))
    real = idx != PAD_INDEX
    lengths = real.sum(axis=1)
    if not lengths.all():
        raise TrainingError("empty sequence after masking")
    # a stable sort on "is pad" keeps the real tokens' order
    order = np.argsort(~real, axis=1, kind="stable")[:, :lengths.max()]
    return np.take_along_axis(idx, order, axis=1).astype(np.intp, casting="safe", copy=False), lengths


def forward(params, embedding, indices, cache: bool = True, dtype=np.float64) -> ForwardTrace:
    """Embed, run the recurrence in dtype over each row's non-pad tokens, apply
    head + softmax. With cache=False (inference) nothing is kept for `backward`."""
    if not isinstance(params, (LstmParams, RnnParams)):
        raise TypeError(f"unsupported parameter type {type(params).__name__}")
    if embedding.dim != params.input_dim:
        raise TrainingError(
            f"embedding dim {embedding.dim} does not match model input dim {params.input_dim}")
    lstm = isinstance(params, LstmParams)
    tokens, lengths = _compact(indices)
    order = np.argsort(-lengths, kind="stable")            # longest row first
    real = (tokens[order] != PAD_INDEX).T                   # (T, B), each row a prefix
    packed = tokens[order].T[real]                          # (N,) real tokens, time-major
    H, runs = params.hidden, _runs(lengths)
    W, b = params.gate_weights(dtype)
    x = embedding.rows[packed].astype(dtype, copy=False)    # (N, D)
    N, G, C = len(packed), len(W), 3 if lstm else 1
    # one allocation for the gate blocks, the input half's product (N, G*H), whose space the
    # run blocks reuse, and backward's per-token arrays (apart, each call page-faulted anew)
    tail = N * G + max(N * G, cache * C * H * (N + sum(n for _, _, n in runs)))
    buf = np.empty(tail + cache * N * (G + W.shape[1]), dtype=dtype)
    xw = np.matmul(x, W[:, H:].T, out=buf[N * G:2 * N * G].reshape(N, G))
    xw += b
    # per run, its steps' gate blocks (steps, G*H, n): pre-activations, then activations
    acts = [buf[G * s:G * e].reshape(-1, G, n) for s, e, n in runs]
    for (s, e, n), A in zip(runs, acts):
        A[...] = xw[s:e].reshape(-1, n, G).transpose(0, 2, 1)
    # with cache, per run: h, c and tanh(c) (RNN: h), slot j+1 after step j, 0 before it
    blocks, at = [], N * G
    for s, e, n in runs if cache else ():
        blocks.append(buf[at:at + C * H * (e - s + n)].reshape(C, -1, H, n))
        at += blocks[-1].size
    w_h = W[:, :H]
    h = c = np.zeros((H, len(order)), dtype=dtype)
    last = np.empty((len(order), H), dtype=dtype)  # each row's final hidden state, in input order
    for A, blk in zip(acts, blocks or acts):  # without cache, blk is not read
        n = A.shape[2]
        if n < h.shape[1]:  # rows n.. had their last token at the step before
            last[order[n:h.shape[1]]] = h[:, n:].T
            h, c = h[:, :n], c[:, :n]
        if cache:
            blk[:2, 0] = (h, c)[:C]
        for j, a in enumerate(A):
            a += w_h @ h
            out = blk[:, j + 1] if cache else (None, None, None)
            if lstm:
                h, c, *_ = _lstm_cell(a, c, out)
            else:
                h = np.tanh(a, out=out[0] if cache else a)
    last[order[:h.shape[1]]] = h.T
    logits = last @ params.head_W.T + params.head_b
    if not np.isfinite(logits).all():
        raise TrainingError("non-finite logits (a non-finite parameter or embedding row)")
    probs = softmax(logits)
    if np.ndim(indices) == 1:
        logits, probs = logits[0], probs[0]
    return ForwardTrace(indices=tokens, logits=logits, probs=probs,
                        cache={"W": W, "x": x, "h": last, "order": order, "packed": packed,
                               "runs": runs, "acts": acts, "blocks": blocks, "work": buf[tail:]}
                        if cache else None)


@dataclass
class Grads:
    """Gradient tensors keyed like the parameter fields, plus the embedding
    rows the batch read: their indices as a sorted (k,) array and their
    gradients as one (k, D) block."""

    tensors: dict
    embedding_index: np.ndarray
    embedding_grad: np.ndarray

    def scale_(self, s: float):
        for arr in self.tensors.values():
            arr *= s
        self.embedding_grad *= s
        return self

    def global_norm(self) -> float:
        total = sum(float(np.vdot(arr, arr)) for arr in self.tensors.values())
        total += float(np.vdot(self.embedding_grad, self.embedding_grad))
        return float(np.sqrt(total))


def backward(trace: ForwardTrace, params, label) -> Grads:
    """Exact gradient of the mean cross-entropy over the traced batch; label
    is an int for a single example, a (B,) array for a batch. The trace's
    cache is used up: its blocks become the gate gradients in place."""
    saved, trace.cache = trace.cache, None
    if saved is None:
        raise ValueError("backward needs a trace from forward(..., cache=True), used once")
    dlogits = np.atleast_2d(trace.probs).copy()
    B, H = dlogits.shape[0], params.hidden
    dlogits[np.arange(B), label] -= 1.0
    dlogits /= B
    lstm = isinstance(params, LstmParams)
    W = saved["W"].copy()
    W[:params.sigmoid_rows] *= 2.0  # undo gate_weights' exact halving
    tensors = {"head_W": dlogits.T @ saved["h"], "head_b": dlogits.sum(axis=0)}

    # BPTT in W's dtype, last step first; a row joins at its last step with dh from the head, dc 0
    dh_head = (dlogits @ params.head_W)[saved["order"]].T.astype(W.dtype, copy=False)
    dh = dc = np.zeros((H, 0), W.dtype)
    w_h = W[:, :H].T
    N, G = len(saved["packed"]), len(W)  # per token, in packed order: gate gradients, [h read, x]
    dpre, hx = saved["work"][:N * G].reshape(N, G), saved["work"][N * G:].reshape(N, -1)
    hx[:, H:] = saved["x"]
    for (s, e, n), A, blk in reversed(list(zip(saved["runs"], saved["acts"], saved["blocks"]))):
        if n > dh.shape[1]:
            dh = np.concatenate([dh, dh_head[:, dh.shape[1]:n]], axis=1)
            dc = np.concatenate([dc, np.zeros((H, n - dc.shape[1]), W.dtype)], axis=1)
        # once per run, in place, the factors that do not depend on dh or dc; f moves to F
        h, K, F = blk[0, 1:], blk[-1, 1:], A  # the RNN reads neither K nor F
        if lstm:
            f, i, o, cbar = (A[:, g * H:(g + 1) * H] for g in range(4))
            np.subtract(o, np.multiply(h, K, out=K), out=K)        # o (1 - tanh(c)^2)
            np.subtract(h, np.multiply(o, h, out=o), out=o)        # sigma'(o) tanh(c)
            F = i * cbar
            np.subtract(i, np.multiply(F, cbar, out=cbar), out=cbar)  # i (1 - cbar^2)
            np.subtract(F, np.multiply(i, F, out=i), out=i)        # sigma'(i) cbar
            fc = np.multiply(f, blk[1, :-1], out=blk[1, :-1])
            F[...] = f
            np.subtract(fc, np.multiply(f, fc, out=f), out=f)      # sigma'(f) c_prev
        else:
            np.subtract(1.0, np.multiply(h, h, out=A), out=A)      # RNN: 1 - h^2
        for d, g, k, f in zip(A[::-1], A.reshape(len(A), -1, H, n)[::-1], K[::-1], F[::-1]):
            if lstm:
                dc_t = dh * k
                dc_t += dc
                g[:2] *= dc_t
                g[2] *= dh
                g[3] *= dc_t
                dc = np.multiply(dc_t, f, out=dc_t)
            else:
                d *= dh
            dh = w_h @ d
        dpre[s:e].reshape(-1, n, G)[...] = A.transpose(0, 2, 1)
        hx[s:e, :H].reshape(-1, n, H)[...] = blk[0, :-1].transpose(0, 2, 1)

    dW, db = (dpre.T @ hx).astype(np.float64, copy=False), dpre.sum(axis=0, dtype=np.float64)
    for k, g in enumerate(params.GATES):  # per-gate views of the fused gradient
        tensors["W" + g], tensors["b" + g] = dW[k * H:(k + 1) * H], db[k * H:(k + 1) * H]
    # one input gradient per real token, summed into one row per distinct token
    dx = dpre @ W[:, H:]
    rows, where = np.unique(saved["packed"], return_inverse=True)
    D = dx.shape[1]  # one bincount: the sums of np.add.at, in its order
    block = np.bincount((where[:, None] * D + np.arange(D)).ravel(), dx.ravel(), rows.size * D)
    return Grads(tensors={name: tensors[name] for name in params.TENSOR_NAMES},
                 embedding_index=rows, embedding_grad=block.reshape(-1, D))
