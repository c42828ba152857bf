"""LSTM and vanilla-RNN cells with hand-derived backpropagation through time.

One step of the LSTM cell, with [h, x] the concatenation of the previous
hidden state and the current input, sigma the logistic function, and * the
elementwise product:

    f = sigma(W_f [h, x] + b_f)         forget gate
    i = sigma(W_i [h, x] + b_i)         input gate
    cbar = tanh(W_c [h, x] + b_c)       candidate cell
    c' = f * c + i * cbar               cell update
    o = sigma(W_o [h, x] + b_o)         output gate
    h' = o * tanh(c')                   hidden output

Classification reads the hidden state after the last non-pad timestep
through a dense head and a softmax over the three sentiment classes.
Padded positions are masked: they do not advance the state, so appending
pad tokens never changes outputs or gradients.
"""

from dataclasses import dataclass, field

import numpy as np

from .corpus import PAD_INDEX
from .errors import TrainingError

N_CLASSES = 3


def sigmoid(x):
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax(logits):
    """Stable softmax: shift by the max logit before exponentiating."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max()
    ex = np.exp(shifted)
    return ex / ex.sum()


def cross_entropy(logits, label: int) -> float:
    """-log softmax(logits)[label] via log-sum-exp, never through raw probabilities."""
    logits = np.asarray(logits, dtype=np.float64)
    m = logits.max()
    return float(m + np.log(np.exp(logits - m).sum()) - logits[label])


class _CellParams:
    """What the LSTM and RNN parameter sets share. Each subclass declares
    its shape table SHAPES, one entry per tensor in file order, over the
    dimensions H (hidden), C (hidden + input) and K (classes); TENSOR_NAMES
    follows from it. The first entry is a recurrent weight of shape (H, C)."""

    def __post_init__(self):
        W = getattr(self, self.TENSOR_NAMES[0])
        if W.ndim != 2 or W.shape[1] <= W.shape[0]:
            raise ValueError(f"{self.TENSOR_NAMES[0]} shape {W.shape} is not (hidden, hidden+input)")
        dims = {"H": W.shape[0], "C": W.shape[1],
                "K": self.head_W.shape[0] if self.head_W.ndim == 2 else -1}
        for name, symbols in self.SHAPES.items():
            expected = tuple(dims[s] for s in symbols)
            if getattr(self, name).shape != expected:
                raise ValueError(f"{name} shape {getattr(self, name).shape} != {expected}")

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
    SHAPES = {"W_f": "HC", "b_f": "H", "W_i": "HC", "b_i": "H", "W_c": "HC", "b_c": "H",
              "W_o": "HC", "b_o": "H", "head_W": "KH", "head_b": "K"}
    TENSOR_NAMES = tuple(SHAPES)


@dataclass
class RnnParams(_CellParams):
    """Vanilla tanh recurrence h' = tanh(W [h, x] + b) with the same dense head."""

    W: np.ndarray
    b: np.ndarray
    head_W: np.ndarray
    head_b: np.ndarray

    KIND = "rnn"
    SHAPES = {"W": "HC", "b": "H", "head_W": "KH", "head_b": "K"}
    TENSOR_NAMES = tuple(SHAPES)


def init_lstm_params(hidden: int, input_dim: int, classes: int = N_CLASSES, seed: int = 0) -> LstmParams:
    """Uniform +-1/sqrt(hidden+input) gate weights, forget bias 1.0, zero head.

    The forget-gate bias starts at 1 so early training does not forget
    everything before the gates have learned anything.
    """
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(hidden + input_dim)
    def w():
        return rng.uniform(-bound, bound, size=(hidden, hidden + input_dim))
    return LstmParams(
        W_f=w(), b_f=np.ones(hidden),
        W_i=w(), b_i=np.zeros(hidden),
        W_c=w(), b_c=np.zeros(hidden),
        W_o=w(), b_o=np.zeros(hidden),
        head_W=np.zeros((classes, hidden)),
        head_b=np.zeros(classes),
    )


def init_rnn_params(hidden: int, input_dim: int, classes: int = N_CLASSES, seed: int = 0) -> RnnParams:
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(hidden + input_dim)
    return RnnParams(
        W=rng.uniform(-bound, bound, size=(hidden, hidden + input_dim)),
        b=np.zeros(hidden),
        head_W=np.zeros((classes, hidden)),
        head_b=np.zeros(classes),
    )


@dataclass
class LstmState:
    h: np.ndarray
    c: np.ndarray

    @classmethod
    def zeros(cls, hidden: int):
        return cls(h=np.zeros(hidden), c=np.zeros(hidden))


@dataclass
class LstmStepCache:
    """Everything the backward pass needs from one timestep."""

    z: np.ndarray        # [h_prev, x], length hidden+input
    pre_f: np.ndarray
    pre_i: np.ndarray
    pre_c: np.ndarray
    pre_o: np.ndarray
    f: np.ndarray
    i: np.ndarray
    cbar: np.ndarray
    o: np.ndarray
    c_prev: np.ndarray
    c: np.ndarray
    tanh_c: np.ndarray
    token: int = -1


@dataclass
class RnnStepCache:
    z: np.ndarray
    pre: np.ndarray
    h: np.ndarray
    token: int = -1


def _check_finite(name, *arrays):
    for arr in arrays:
        if not np.all(np.isfinite(arr)):
            raise TrainingError(f"non-finite values in {name}")


def lstm_step(params: LstmParams, state: LstmState, x):
    """One LSTM cell step. Returns (new state, step cache)."""
    x = np.asarray(x, dtype=np.float64)
    _check_finite("lstm_step input", x)
    _check_finite("lstm_step state", state.h, state.c)
    z = np.concatenate([state.h, x])
    pre_f = params.W_f @ z + params.b_f
    pre_i = params.W_i @ z + params.b_i
    pre_c = params.W_c @ z + params.b_c
    pre_o = params.W_o @ z + params.b_o
    f = sigmoid(pre_f)
    i = sigmoid(pre_i)
    cbar = np.tanh(pre_c)
    c = f * state.c + i * cbar
    o = sigmoid(pre_o)
    tanh_c = np.tanh(c)
    h = o * tanh_c
    cache = LstmStepCache(z=z, pre_f=pre_f, pre_i=pre_i, pre_c=pre_c, pre_o=pre_o,
                          f=f, i=i, cbar=cbar, o=o, c_prev=state.c, c=c, tanh_c=tanh_c)
    return LstmState(h=h, c=c), cache


def rnn_step(params: RnnParams, h, x):
    """One vanilla RNN step. Returns (new hidden state, step cache)."""
    x = np.asarray(x, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    _check_finite("rnn_step input", x)
    _check_finite("rnn_step state", h)
    z = np.concatenate([h, x])
    pre = params.W @ z + params.b
    h_new = np.tanh(pre)
    return h_new, RnnStepCache(z=z, pre=pre, h=h_new)


@dataclass
class ForwardTrace:
    """Cached activations for every non-pad timestep plus the head outputs."""

    steps: list
    h_last: np.ndarray
    logits: np.ndarray
    probs: np.ndarray
    tokens: list

    @property
    def predicted(self) -> int:
        return int(np.argmax(self.probs))


def forward(params, embedding, indices) -> ForwardTrace:
    """Embed, run the recurrence over non-pad positions, apply head + softmax.

    Pad positions are skipped entirely (the state carries through), so the
    trace holds exactly one step per non-pad token.
    """
    tokens = [int(t) for t in np.asarray(indices).ravel() if int(t) != PAD_INDEX]
    if not tokens:
        raise TrainingError("empty sequence after masking")
    rows = embedding.rows
    steps = []
    if isinstance(params, LstmParams):
        state = LstmState.zeros(params.hidden)
        for tok in tokens:
            state, cache = lstm_step(params, state, rows[tok])
            cache.token = tok
            steps.append(cache)
        h_last = state.h
    elif isinstance(params, RnnParams):
        h = np.zeros(params.hidden)
        for tok in tokens:
            h, cache = rnn_step(params, h, rows[tok])
            cache.token = tok
            steps.append(cache)
        h_last = h
    else:
        raise TypeError(f"unsupported parameter type {type(params).__name__}")
    logits = params.head_W @ h_last + params.head_b
    return ForwardTrace(steps=steps, h_last=h_last, logits=logits,
                        probs=softmax(logits), tokens=tokens)


@dataclass
class Grads:
    """Gradient tensors keyed like the parameter fields, plus touched embedding rows."""

    tensors: dict
    embedding_rows: dict = field(default_factory=dict)

    @classmethod
    def zeros_like(cls, params):
        return cls(tensors={name: np.zeros_like(arr) for name, arr in params.tensors().items()})

    def add_(self, other):
        for name, arr in other.tensors.items():
            self.tensors[name] += arr
        for idx, row in other.embedding_rows.items():
            if idx in self.embedding_rows:
                self.embedding_rows[idx] = self.embedding_rows[idx] + row
            else:
                self.embedding_rows[idx] = row.copy()
        return self

    def scale_(self, s: float):
        for arr in self.tensors.values():
            arr *= s
        for idx in self.embedding_rows:
            self.embedding_rows[idx] *= s
        return self

    def global_norm(self) -> float:
        total = 0.0
        for arr in self.tensors.values():
            total += float(np.sum(arr * arr))
        for row in self.embedding_rows.values():
            total += float(np.sum(row * row))
        return float(np.sqrt(total))


def backward(trace: ForwardTrace, params, label: int) -> Grads:
    """Exact gradient of the cross-entropy loss for one traced example."""
    if isinstance(params, LstmParams):
        return _lstm_backward(trace, params, label)
    if isinstance(params, RnnParams):
        return _rnn_backward(trace, params, label)
    raise TypeError(f"unsupported parameter type {type(params).__name__}")


def _head_backward(trace, params, label):
    dlogits = trace.probs.copy()
    dlogits[label] -= 1.0
    g = Grads.zeros_like(params)
    g.tensors["head_W"] += np.outer(dlogits, trace.h_last)
    g.tensors["head_b"] += dlogits
    dh = params.head_W.T @ dlogits
    return g, dh


def _accumulate_row(rows: dict, idx: int, dx):
    if idx in rows:
        rows[idx] += dx
    else:
        rows[idx] = dx.copy()


def _lstm_backward(trace, params, label):
    g, dh = _head_backward(trace, params, label)
    hidden = params.hidden
    dc = np.zeros(hidden)
    for cache in reversed(trace.steps):
        do = dh * cache.tanh_c
        dc = dc + dh * cache.o * (1.0 - cache.tanh_c ** 2)
        df = dc * cache.c_prev
        di = dc * cache.cbar
        dcbar = dc * cache.i
        dpre_f = df * cache.f * (1.0 - cache.f)
        dpre_i = di * cache.i * (1.0 - cache.i)
        dpre_c = dcbar * (1.0 - cache.cbar ** 2)
        dpre_o = do * cache.o * (1.0 - cache.o)
        g.tensors["W_f"] += np.outer(dpre_f, cache.z)
        g.tensors["W_i"] += np.outer(dpre_i, cache.z)
        g.tensors["W_c"] += np.outer(dpre_c, cache.z)
        g.tensors["W_o"] += np.outer(dpre_o, cache.z)
        g.tensors["b_f"] += dpre_f
        g.tensors["b_i"] += dpre_i
        g.tensors["b_c"] += dpre_c
        g.tensors["b_o"] += dpre_o
        dz = (params.W_f.T @ dpre_f + params.W_i.T @ dpre_i
              + params.W_c.T @ dpre_c + params.W_o.T @ dpre_o)
        dh = dz[:hidden]
        _accumulate_row(g.embedding_rows, cache.token, dz[hidden:])
        dc = dc * cache.f
    return g


def _rnn_backward(trace, params, label):
    g, dh = _head_backward(trace, params, label)
    hidden = params.hidden
    for cache in reversed(trace.steps):
        dpre = dh * (1.0 - cache.h ** 2)
        g.tensors["W"] += np.outer(dpre, cache.z)
        g.tensors["b"] += dpre
        dz = params.W.T @ dpre
        dh = dz[:hidden]
        _accumulate_row(g.embedding_rows, cache.token, dz[hidden:])
    return g


def predict_proba(params, embedding, indices):
    return forward(params, embedding, indices).probs


def predict_label(params, embedding, indices) -> int:
    return forward(params, embedding, indices).predicted
