"""Independent reference implementations used as test oracles.

Everything here is deliberately written in the most naive style available
(scalar loops, math.* calls, char-by-char scanners) so that agreement with
the package's vectorized code is meaningful. Nothing in this module imports
from sentilstm.
"""

import math
import string
import struct
import unicodedata
import zlib

import numpy as np


def sigmoid_ref(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def lstm_step_ref(weights: dict, h, c, x):
    """Scalar-loop LSTM cell: gates from sigma(W [h,x] + b), candidate from
    tanh, elementwise cell update, h = o * tanh(c). Returns (h_new, c_new,
    gates) with gates = dict of f/i/cbar/o lists."""
    h = list(map(float, h))
    c = list(map(float, c))
    x = list(map(float, x))
    z = h + x
    hidden = len(h)

    def affine(W, b, row):
        total = float(b[row])
        for col in range(len(z)):
            total += float(W[row][col]) * z[col]
        return total

    f = [sigmoid_ref(affine(weights["W_f"], weights["b_f"], r)) for r in range(hidden)]
    i = [sigmoid_ref(affine(weights["W_i"], weights["b_i"], r)) for r in range(hidden)]
    cbar = [math.tanh(affine(weights["W_c"], weights["b_c"], r)) for r in range(hidden)]
    o = [sigmoid_ref(affine(weights["W_o"], weights["b_o"], r)) for r in range(hidden)]
    c_new = [f[r] * c[r] + i[r] * cbar[r] for r in range(hidden)]
    h_new = [o[r] * math.tanh(c_new[r]) for r in range(hidden)]
    return h_new, c_new, {"f": f, "i": i, "cbar": cbar, "o": o}


def rnn_step_ref(weights: dict, h, x):
    h = list(map(float, h))
    x = list(map(float, x))
    z = h + x
    hidden = len(h)
    out = []
    for row in range(hidden):
        total = float(weights["b"][row])
        for col in range(len(z)):
            total += float(weights["W"][row][col]) * z[col]
        out.append(math.tanh(total))
    return out


def softmax_ref(logits):
    exps = [math.exp(float(v)) for v in logits]
    total = sum(exps)
    return [e / total for e in exps]


def cross_entropy_ref(logits, label: int) -> float:
    return -math.log(softmax_ref(logits)[label])


def lstm_forward_ref(weights: dict, emb_rows, indices, pad_index=0):
    """Full scalar forward pass: embed, skip pad positions, run the cell,
    apply the head to the final h, softmax. Returns (logits, probs)."""
    hidden = len(weights["b_f"])
    h = [0.0] * hidden
    c = [0.0] * hidden
    for idx in indices:
        idx = int(idx)
        if idx == pad_index:
            continue
        x = [float(v) for v in emb_rows[idx]]
        h, c, _ = lstm_step_ref(weights, h, c, x)
    logits = []
    for row in range(len(weights["head_b"])):
        total = float(weights["head_b"][row])
        for col in range(hidden):
            total += float(weights["head_W"][row][col]) * h[col]
        logits.append(total)
    return logits, softmax_ref(logits)


def _sigmoid_masked(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def example_grads_ref(weights: dict, emb_rows, indices, label: int, pad_index=0):
    """One example at a time, one cell step per non-pad token with a GEMV
    per gate, then BPTT step by step with one outer product per gate.
    `weights` holds the LSTM (W_f, b_f, ..., W_o, b_o) or RNN (W, b)
    tensors plus head_W and head_b. Returns (loss, probs, {name: gradient},
    {embedding row: gradient})."""
    lstm = "W_f" in weights
    gates = ("f", "i", "c", "o") if lstm else ("",)
    hidden = weights["head_W"].shape[1]
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    steps = []
    for tok in (int(t) for t in np.asarray(indices).ravel()):
        if tok == pad_index:
            continue
        z = np.concatenate([h, emb_rows[tok]])
        pre = {g: weights["W" + ("_" + g if g else "")] @ z + weights["b" + ("_" + g if g else "")]
               for g in gates}
        if lstm:
            f, i, o = _sigmoid_masked(pre["f"]), _sigmoid_masked(pre["i"]), _sigmoid_masked(pre["o"])
            cbar = np.tanh(pre["c"])
            c_prev, c = c, f * c + i * cbar
            tanh_c = np.tanh(c)
            h = o * tanh_c
            steps.append(dict(z=z, f=f, i=i, cbar=cbar, o=o, c_prev=c_prev, tanh_c=tanh_c, tok=tok))
        else:
            h = np.tanh(pre[""])
            steps.append(dict(z=z, h=h, tok=tok))
    logits = weights["head_W"] @ h + weights["head_b"]
    shifted = np.exp(logits - logits.max())
    probs = shifted / shifted.sum()
    m = logits.max()
    loss = float(m + np.log(np.exp(logits - m).sum()) - logits[label])

    grads = {name: np.zeros_like(arr, dtype=np.float64) for name, arr in weights.items()}
    rows = {}
    dlogits = probs.copy()
    dlogits[label] -= 1.0
    grads["head_W"] += np.outer(dlogits, h)
    grads["head_b"] += dlogits
    dh = weights["head_W"].T @ dlogits
    dc = np.zeros(hidden)
    for st in reversed(steps):
        if lstm:
            do = dh * st["tanh_c"]
            dc = dc + dh * st["o"] * (1.0 - st["tanh_c"] ** 2)
            dpre = {"f": dc * st["c_prev"] * st["f"] * (1.0 - st["f"]),
                    "i": dc * st["cbar"] * st["i"] * (1.0 - st["i"]),
                    "c": dc * st["i"] * (1.0 - st["cbar"] ** 2),
                    "o": do * st["o"] * (1.0 - st["o"])}
            dc = dc * st["f"]
        else:
            dpre = {"": dh * (1.0 - st["h"] ** 2)}
        dz = np.zeros(len(st["z"]))
        for g in gates:
            suffix = "_" + g if g else ""
            grads["W" + suffix] += np.outer(dpre[g], st["z"])
            grads["b" + suffix] += dpre[g]
            dz += weights["W" + suffix].T @ dpre[g]
        dh = dz[:hidden]
        rows[st["tok"]] = rows.get(st["tok"], 0.0) + dz[hidden:]
    return loss, probs, grads, rows


def batch_grads_ref(weights: dict, emb_rows, batch, labels, pad_index=0):
    """Mean loss, mean tensor gradients and mean embedding-row gradients
    over a batch, summed example by example (example_grads_ref) and then
    divided by the batch size."""
    total_loss, total, rows = 0.0, None, {}
    for indices, label in zip(batch, labels):
        loss, _, grads, ex_rows = example_grads_ref(weights, emb_rows, indices, int(label), pad_index)
        total_loss += loss
        total = grads if total is None else {n: total[n] + grads[n] for n in total}
        for tok, g in ex_rows.items():
            rows[tok] = rows.get(tok, 0.0) + g
    n = len(batch)
    return (total_loss / n, {name: g / n for name, g in total.items()},
            {tok: g / n for tok, g in rows.items()})


def optimizer_step_ref(tensors: dict, tensor_grads: dict, emb_rows, row_grads: dict, state: dict,
                       t: int, lr: float, update, optimizer="adam"):
    """One optimizer step in place, one embedding row at a time in row
    order. `update(param, grad, m, v, t, lr)` is the Adam rule under test;
    `state` holds the moment dicts "m", "v" and the row moments "m_emb",
    "v_emb"."""
    for name in sorted(tensor_grads):
        if optimizer == "sgd":
            tensors[name] -= lr * tensor_grads[name]
        else:
            update(tensors[name], tensor_grads[name], state["m"][name], state["v"][name], t, lr)
    for row in sorted(row_grads):
        if optimizer == "sgd":
            emb_rows[row] -= lr * row_grads[row]
        else:
            update(emb_rows[row], row_grads[row], state["m_emb"][row], state["v_emb"][row], t, lr)


def finite_difference(loss_fn, array: np.ndarray, eps: float = 1e-4) -> np.ndarray:
    """Central finite differences of loss_fn() w.r.t. every entry of `array`
    (perturbed in place and restored)."""
    grad = np.zeros_like(array, dtype=np.float64)
    flat = array.reshape(-1)
    gflat = grad.reshape(-1)
    for j in range(flat.size):
        original = flat[j]
        flat[j] = original + eps
        up = loss_fn()
        flat[j] = original - eps
        down = loss_fn()
        flat[j] = original
        gflat[j] = (up - down) / (2.0 * eps)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    denom = np.linalg.norm(a) + np.linalg.norm(n)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(a - n) / denom)


def sgns_loss_ref(center, context, negatives) -> float:
    """Scalar SGNS loss: -log sig(u.v) - sum_n log sig(-u_n.v)."""

    def log_sigmoid(v):
        if v >= 0:
            return -math.log1p(math.exp(-v))
        return v - math.log1p(math.exp(v))

    dot = sum(float(a) * float(b) for a, b in zip(context, center))
    loss = -log_sigmoid(dot)
    for neg in negatives:
        ndot = sum(float(a) * float(b) for a, b in zip(neg, center))
        loss -= log_sigmoid(-ndot)
    return loss


def skipgram_ref(sequences, config, vocab, gradient, pad_index=0, unk_index=1):
    """Skip-gram SGD one pair at a time, with scalar draws: one window width
    per center position, `config.negatives` uniforms per pair, one
    `gradient(center, context, negatives)` call per pair and 2 + k row
    updates. Returns the trained (len(vocab), dim) center matrix with the unk
    row set to the mean of the token rows."""
    dim = config.dim
    W = np.random.default_rng((config.seed, 0)).uniform(-0.5 / dim, 0.5 / dim,
                                                        size=(len(vocab), dim))
    W[pad_index] = 0.0
    W[unk_index] = 0.0
    C = np.zeros_like(W)
    counts = np.array([vocab.frequencies[t] for t in vocab.index_to_token[2:]], dtype=np.float64)
    weights = counts ** 0.75
    cumulative = np.cumsum(weights / weights.sum())
    cumulative[-1] = 1.0
    rng_neg = np.random.default_rng((config.seed, 1))

    for epoch in range(config.iterations):
        rng = np.random.default_rng((config.seed, 2, epoch))
        pairs = []
        for seq in sequences:
            tokens = [int(t) for t in np.asarray(seq).ravel() if int(t) not in (pad_index, unk_index)]
            for p in range(len(tokens)):
                w = int(rng.integers(1, config.window + 1))
                for q in range(max(0, p - w), min(len(tokens), p + w + 1)):
                    if q != p:
                        pairs.append((tokens[p], tokens[q]))
        for j, (center_idx, context_idx) in enumerate(pairs):
            progress = (epoch + j / len(pairs)) / config.iterations
            lr = config.learning_rate * (1.0 - (1.0 - 0.1) * progress)
            negs = np.empty(0, dtype=int)
            if config.negatives:
                negs = 2 + np.searchsorted(cumulative, rng_neg.random(config.negatives), side="right")
            negs = negs[negs != context_idx]
            _, g_center, g_context, g_negs = gradient(W[center_idx], C[context_idx], C[negs])
            C[context_idx] -= lr * g_context
            for n, neg_idx in enumerate(negs):
                C[neg_idx] -= lr * g_negs[n]
            W[center_idx] -= lr * g_center
    W[unk_index] = W[2:].mean(axis=0)
    return W


def metrics_ref(counts) -> dict:
    """Brute-force recomputation of every metric from a 3x3 count matrix."""
    counts = [[int(v) for v in row] for row in counts]
    total = sum(sum(row) for row in counts)
    correct = sum(counts[k][k] for k in range(3))
    accuracy = correct / total

    per_class = []
    pooled_tp = pooled_fp = pooled_fn = 0
    for k in range(3):
        tp = counts[k][k]
        fp = sum(counts[a][k] for a in range(3) if a != k)
        fn = sum(counts[k][p] for p in range(3) if p != k)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append({"precision": precision, "recall": recall, "f1": f1,
                          "support": tp + fn})
        pooled_tp += tp
        pooled_fp += fp
        pooled_fn += fn

    macro = {m: sum(pc[m] for pc in per_class) / 3.0 for m in ("precision", "recall", "f1")}
    weighted = {m: sum(pc[m] * pc["support"] for pc in per_class) / total
                for m in ("precision", "recall", "f1")}
    micro_p = pooled_tp / (pooled_tp + pooled_fp) if pooled_tp + pooled_fp else 0.0
    micro_r = pooled_tp / (pooled_tp + pooled_fn) if pooled_tp + pooled_fn else 0.0
    micro_f1 = (2.0 * micro_p * micro_r / (micro_p + micro_r)) if micro_p + micro_r else 0.0
    return {
        "accuracy": accuracy,
        "per_class": per_class,
        "macro": macro,
        "micro": {"precision": micro_p, "recall": micro_r, "f1": micro_f1},
        "weighted": weighted,
    }


def metrics_loop_ref(counts, averaging: str = "macro") -> dict:
    """Every MetricsReport field but `confusion`, class by class from the
    one-vs-rest counts. It runs the floating-point operations of
    `sentilstm.metrics.metrics` in the same order, so each field must be
    equal, not close; the zero-division flags come class by class, each
    class's precision, recall and f1 in that order."""
    names = ("negative", "neutral", "positive")
    counts = [[int(v) for v in row] for row in counts]
    total = sum(sum(row) for row in counts)
    flags = []

    def ratio(numerator, denominator, name):
        if denominator == 0:
            flags.append(name)
            return 0.0
        return numerator / denominator

    precisions, recalls, f1s, support = [], [], [], []
    pooled_tp = pooled_fp = pooled_fn = 0
    for k in range(3):
        tp = counts[k][k]
        fp = sum(counts[a][k] for a in range(3)) - tp
        fn = sum(counts[k]) - tp
        p = ratio(tp, tp + fp, f"precision[{names[k]}]")
        r = ratio(tp, tp + fn, f"recall[{names[k]}]")
        f1 = ratio(2.0 * p * r, p + r, f"f1[{names[k]}]")
        precisions.append(p)
        recalls.append(r)
        f1s.append(f1)
        support.append(tp + fn)
        pooled_tp += tp
        pooled_fp += fp
        pooled_fn += fn

    accuracy = float(sum(counts[k][k] for k in range(3))) / total
    weights = [s / total for s in support]
    micro_p = pooled_tp / (pooled_tp + pooled_fp)
    micro_r = pooled_tp / (pooled_tp + pooled_fn)
    micro_f1 = 2.0 * micro_p * micro_r / (micro_p + micro_r) if micro_p + micro_r > 0 else 0.0
    return {
        "accuracy": accuracy,
        "per_class_precision": precisions,
        "per_class_recall": recalls,
        "per_class_f1": f1s,
        "support": support,
        "macro_precision": sum(precisions) / 3,
        "macro_recall": sum(recalls) / 3,
        "macro_f1": sum(f1s) / 3,
        "micro_precision": micro_p,
        "micro_recall": micro_r,
        "micro_f1": micro_f1,
        "weighted_precision": sum(w * p for w, p in zip(weights, precisions)),
        "weighted_recall": sum(w * r for w, r in zip(weights, recalls)),
        "weighted_f1": sum(w * f for w, f in zip(weights, f1s)),
        "averaging": averaging,
        "zero_division_flags": flags,
    }


def adam_ref(param, grad, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Straight-line evaluation of the bias-corrected update formulas.
    Returns fresh (param, m, v) arrays."""
    param = np.array(param, dtype=np.float64)
    grad = np.array(grad, dtype=np.float64)
    m = beta1 * np.array(m, dtype=np.float64) + (1.0 - beta1) * grad
    v = beta2 * np.array(v, dtype=np.float64) + (1.0 - beta2) * grad ** 2
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    return param - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def _is_punct_ref(ch: str) -> bool:
    if ch in string.punctuation:
        return True
    if unicodedata.category(ch).startswith("P"):
        return True
    cp = ord(ch)
    if 0xFF01 <= cp <= 0xFF5E and chr(cp - 0xFEE0) in string.punctuation:
        return True
    return 0xFFE0 <= cp <= 0xFFE6


def _is_word_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def clean_ref(raw: str) -> str:
    """Char-scanner twin of the cleaning contract: strip URLs, then #...#
    spans, then @mentions (each leaving one space), blank out punctuation,
    collapse whitespace."""
    out = []
    i = 0
    while i < len(raw):
        rest = raw[i:]
        prefix = next((p for p in ("https://", "http://", "www.") if rest.startswith(p)), None)
        if prefix is not None and len(rest) > len(prefix) and not rest[len(prefix)].isspace():
            while i < len(raw) and not raw[i].isspace():
                i += 1
            out.append(" ")
            continue
        out.append(raw[i])
        i += 1
    text = "".join(out)

    out = []
    i = 0
    while i < len(text):
        if text[i] == "#":
            close = text.find("#", i + 1)
            if close != -1:
                out.append(" ")
                i = close + 1
                continue
        out.append(text[i])
        i += 1
    text = "".join(out)

    out = []
    i = 0
    while i < len(text):
        if text[i] == "@":
            i += 1
            while i < len(text) and _is_word_char(text[i]):
                i += 1
            out.append(" ")
            continue
        out.append(text[i])
        i += 1
    text = "".join(out)

    text = "".join(" " if _is_punct_ref(ch) else ch for ch in text)
    return " ".join(text.split())


def detect_tokenizer_mode_ref(texts) -> str:
    """Per-character twin of tokenizer detection: 'character' when CJK
    ideographs (U+3400..4DBF, U+4E00..9FFF) are over half of the letters."""
    cjk = 0
    letters = 0
    for text in texts:
        for ch in text:
            if not ch.isalpha():
                continue
            letters += 1
            if 0x4E00 <= ord(ch) <= 0x9FFF or 0x3400 <= ord(ch) <= 0x4DBF:
                cjk += 1
    if letters == 0:
        return "whitespace"
    return "character" if cjk / letters > 0.5 else "whitespace"


def encode_ref(tokens, vocab, maxlen: int) -> np.ndarray:
    """Per-token encoder: the first maxlen tokens' indices (unknown tokens
    map to the unknown index 1), right-padded with the pad index 0."""
    out = np.zeros(maxlen, dtype=np.int32)
    for pos, token in enumerate(tokens[:maxlen]):
        out[pos] = vocab.token_to_index.get(token, 1)
    return out


_ELEMENT = {"i32": "<i", "f32": "<f", "f64": "<d"}


def encoded_container_ref(binding: bytes, fields: dict, tensors: dict, dtype: str = "i32") -> bytes:
    """Per-element writer of a container of kind "encoded": magic, version
    2, kind, binding, then the u32 fields and the tensors, each value packed
    on its own, then the CRC32 of all of it."""
    def u32(value):
        return struct.pack("<I", value)

    def text(value):
        return u32(len(value)) + value.encode("ascii")

    out = b"SENTI-BIN\x00" + u32(2) + text("encoded") + binding + u32(len(fields))
    for name, value in fields.items():
        out += text(name) + u32(value)
    out += u32(len(tensors))
    for name, values in tensors.items():
        shape = np.shape(values)
        out += text(name) + text(dtype) + u32(len(shape)) + b"".join(map(u32, shape))
        out += b"".join(struct.pack(_ELEMENT[dtype], v) for v in np.ravel(values).tolist())
    return out + u32(zlib.crc32(out))


def stack_ref(examples, width=None):
    """(indices, labels) of a list of examples, row by row: each row is its
    example's indices, then pads (0) up to `width`, by default the longest
    row's length. int64 indices and labels."""
    if width is None:
        width = max([len(ex.indices) for ex in examples], default=0)
    rows, labels = [], []
    for ex in examples:
        row = [int(i) for i in ex.indices]
        rows.append(row + [0] * (width - len(row)))
        labels.append(int(ex.label))
    return (np.array(rows, dtype=np.int64).reshape(len(rows), width),
            np.array(labels, dtype=np.int64))


def save_encoded_ref(examples, maxlen: int, path, binding: bytes):
    """Writes a split as the container the package writes: field maxlen,
    int32 tensors indices (N, maxlen) and labels (N,)."""
    indices = [[int(i) for i in ex.indices] for ex in examples]
    labels = [int(ex.label) for ex in examples]
    tensors = {"indices": np.array(indices, dtype=np.int64).reshape(len(examples), maxlen),
               "labels": np.array(labels, dtype=np.int64)}
    with open(path, "wb") as f:
        f.write(encoded_container_ref(binding, {"maxlen": maxlen}, tensors))


def load_encoded_ref(data: bytes):
    """Field-by-field reader of a split container. Returns (binding,
    maxlen, [(label, indices)]); a bad container raises ValueError, whose
    message, for a well-formed container that is not a valid split, is what
    the package's error says after the path."""
    body = data[:-4]
    if len(data) < 4 or struct.unpack("<I", data[-4:])[0] != zlib.crc32(body):
        raise ValueError("corrupt container")
    pos = 0

    def take(n):
        nonlocal pos
        if pos + n > len(body):
            raise ValueError("truncated container")
        pos += n
        return body[pos - n:pos]

    def u32():
        return struct.unpack("<I", take(4))[0]

    def text():
        return take(u32()).decode("ascii")

    if take(10) != b"SENTI-BIN\x00" or u32() != 2 or text() != "encoded":
        raise ValueError("not a split container")
    binding = take(32)
    fields, tensors = {}, {}
    for _ in range(u32()):
        name = text()
        if name in fields:
            raise ValueError(f"{name} appears twice")
        fields[name] = u32()
    for _ in range(u32()):
        name, dtype = text(), text()
        if name in tensors:
            raise ValueError(f"{name} appears twice")
        shape = [u32() for _ in range(u32())]
        size = struct.calcsize(_ELEMENT[dtype])
        raw = take(size * math.prod(shape))
        values = [struct.unpack_from(_ELEMENT[dtype], raw, k * size)[0]
                  for k in range(math.prod(shape))]
        tensors[name] = (dtype, shape, values)
    if pos != len(body):
        raise ValueError("trailing bytes")
    if list(fields) != ["maxlen"] or list(tensors) != ["indices", "labels"]:
        raise ValueError(f"encoded fields {list(fields)} and tensors {list(tensors)} "
                         f"are not ['maxlen'] and ['indices', 'labels']")
    layout = "expected field maxlen and int32 tensors indices (N, maxlen) and labels (N,)"
    (index_dtype, shape, flat), (label_dtype, label_shape, labels) = \
        tensors["indices"], tensors["labels"]
    if (index_dtype != "i32" or label_dtype != "i32" or len(label_shape) != 1
            or len(shape) != 2 or shape[0] != label_shape[0]):
        raise ValueError(layout)
    maxlen = fields["maxlen"]
    if shape[1] != maxlen:
        raise ValueError(f"expected {maxlen} indices per row (maxlen), got {shape[1]}")
    rows = [flat[r * maxlen:(r + 1) * maxlen] for r in range(len(labels))]
    for row_num, (label, row) in enumerate(zip(labels, rows), start=1):
        if label not in (0, 1, 2):
            raise ValueError(f"row {row_num}: label '{label}' is not 0, 1 or 2")
        if any(i < 0 for i in row):
            raise ValueError(f"row {row_num}: negative token index {min(row)}")
    return binding, maxlen, list(zip(labels, rows))


def build_vocabulary_ref(corpus, min_count: int):
    """Per-token counter of a token-list corpus. Returns (index_to_token,
    frequencies): the tokens seen min_count times or more, by count
    descending, ties broken by the tokens' own order, after the two
    reserved entries."""
    counts = {}
    for tokens in corpus:
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
    kept = sorted((t for t in counts if counts[t] >= min_count), key=lambda t: (-counts[t], t))
    return ["<pad>", "<unk>"] + kept, {t: counts[t] for t in kept}


def load_vocabulary_ref(data: bytes):
    """Line-by-line reader of a vocabulary file's bytes. Returns
    (token_to_index, index_to_token, frequencies, min_count); a bad file
    raises ValueError whose message is what the package's error says after
    the path."""
    try:
        lines = data.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise ValueError(str(exc)) from None
    if lines[-1] == "":
        lines.pop()
    lines = [line[:-1] if line.endswith("\r") else line for line in lines]
    if not lines:
        raise ValueError("empty vocabulary file")
    header = "#senti-vocab v1 min_count="
    if not lines[0].startswith(header) or not lines[0][len(header):].isdecimal():
        raise ValueError(f"bad vocabulary header {lines[0]!r}")
    min_count = int(lines[0][len(header):])
    index_to_token = ["<pad>", "<unk>"]
    token_to_index = {}
    frequencies = {}
    line_of = {}
    for line_num, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"line {line_num}: expected index<TAB>token<TAB>frequency")
        try:
            idx, token, freq = int(parts[0]), parts[1], int(parts[2])
        except ValueError:
            raise ValueError(f"line {line_num}: index and frequency must be integers") from None
        if idx != line_num - 2:
            raise ValueError(f"line {line_num}: indices out of order (got {idx})")
        if token in line_of:
            raise ValueError(f"lines {line_of[token]} and {line_num} both list token {token!r}")
        line_of[token] = line_num
        if idx in (0, 1):
            expected = "<pad>" if idx == 0 else "<unk>"
            if token != expected:
                raise ValueError(f"line {line_num}: reserved index {idx} must be {expected}")
            continue
        if freq < min_count:
            raise ValueError(f"line {line_num}: frequency {freq} below min_count {min_count}")
        token_to_index[token] = idx
        index_to_token.append(token)
        frequencies[token] = freq
    return token_to_index, index_to_token, frequencies, min_count


def count_features_ref(sequences, n_tokens: int):
    """Token-count CSR matrix built one sequence at a time: column j counts
    vocabulary index j+2 (pad 0 and unknown 1 dropped). An index past the
    vocabulary raises ValueError naming the largest index of the first
    sequence that has one."""
    from scipy import sparse
    indptr = [0]
    col_indices = []
    data = []
    for seq in sequences:
        arr = np.asarray(seq).ravel()
        arr = arr[arr >= 2] - 2
        if arr.size and arr.max() >= n_tokens:
            raise ValueError(
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


def naive_bayes_fit_ref(counts, labels, alpha: float = 1.0):
    """Multinomial Naive Bayes, one class mask at a time. Returns
    (log_prior (3,), log_likelihood (3, n_tokens))."""
    labels = np.asarray(labels, dtype=np.int64)
    n_docs, n_tokens = counts.shape
    class_counts = np.zeros(3, dtype=np.float64)
    token_counts = np.zeros((3, n_tokens), dtype=np.float64)
    for c in range(3):
        mask = labels == c
        class_counts[c] = mask.sum()
        if class_counts[c]:
            token_counts[c] = np.asarray(counts[mask].sum(axis=0)).ravel()
    log_prior = np.log(class_counts / n_docs)
    totals = token_counts.sum(axis=1, keepdims=True)
    log_likelihood = np.log((token_counts + alpha) / (totals + alpha * n_tokens))
    return log_prior, log_likelihood


def logreg_loss_and_grad_ref(W, b, X, labels, l2):
    """Mean softmax cross-entropy with an L2 penalty on W (3, n_tokens), not
    on b, and its gradient, with X a CSR matrix: (loss, grad_W, grad_b)."""
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


def logreg_fit_ref(counts, labels, iterations=300, learning_rate=0.5, l2=1e-4):
    """Softmax regression on tf-idf rows (idf = ln((1 + N) / (1 + df)) + 1,
    rows scaled to unit L2 norm) by full-batch gradient descent from zero.
    Returns (W (3, n_tokens), b (3,), idf (n_tokens,), final loss)."""
    from scipy import sparse
    labels = np.asarray(labels, dtype=np.int64)
    n_docs = counts.shape[0]
    df = np.asarray((counts > 0).sum(axis=0)).ravel().astype(np.float64)
    idf = np.log((1.0 + n_docs) / (1.0 + df)) + 1.0
    weighted = counts.astype(np.float64).multiply(idf[np.newaxis, :]).tocsr()
    norms = np.sqrt(np.asarray(weighted.multiply(weighted).sum(axis=1)).ravel())
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    X = sparse.diags(scale).dot(weighted).tocsr()
    W = np.zeros((3, counts.shape[1]), dtype=np.float64)
    b = np.zeros(3, dtype=np.float64)
    for _ in range(iterations):
        loss, grad_W, grad_b = logreg_loss_and_grad_ref(W, b, X, labels, l2)
        W -= learning_rate * grad_W
        b -= learning_rate * grad_b
    return W, b, idf, loss
