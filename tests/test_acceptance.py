"""End-to-end acceptance checks, one test per system-level guarantee:

1. analytic BPTT gradients match central finite differences,
2. the vectorized LSTM cell matches an independent scalar-loop reference,
3. the classifier can drive training accuracy to 100% on a tiny separable
   corpus,
4. every metric agrees with a brute-force recomputation from raw counts,
5. recurrent models beat bag-of-words baselines on an order-sensitive
   corpus, with the LSTM ahead of the vanilla RNN,
6. skip-gram embeddings separate co-occurrence groups and their gradients
   check out numerically,
7. the full compare pipeline is bytewise deterministic under a fixed seed,
8. appended padding never changes forward outputs or gradients.

Each test prints one PASS/FAIL line in the terminal summary (see conftest).
"""

import hashlib
import os
import time

import numpy as np

from oracles import (finite_difference, lstm_step_ref, metrics_ref,
                     relative_error, sgns_loss_ref)
from sentilstm import (ConfusionMatrix3, EmbeddingConfig, EmbeddingMatrix,
                       LstmParams, RnnParams, TrainConfig, backward,
                       build_vocabulary, confusion, count_features,
                       cross_entropy, encode_example, evaluate_model, forward,
                       init_lstm_params, init_rnn_params, logreg_fit,
                       logreg_predict, metrics, naive_bayes_fit,
                       naive_bayes_predict, random_embedding, tokenize, train,
                       train_skipgram)
from sentilstm.cli import main as cli_main
from sentilstm.embedding import sgns_gradient
from sentilstm.nnet import _lstm_cell
from synthetic import (MARKERS, cooccurrence_corpus, keyword_corpus,
                       long_range_corpus, write_csv)


def _random_lstm(rng, hidden, input_dim, classes=3):
    cols = hidden + input_dim

    def w(*shape):
        return rng.normal(scale=0.4, size=shape)

    return LstmParams(W_f=w(hidden, cols), b_f=w(hidden),
                      W_i=w(hidden, cols), b_i=w(hidden),
                      W_c=w(hidden, cols), b_c=w(hidden),
                      W_o=w(hidden, cols), b_o=w(hidden),
                      head_W=w(classes, hidden), head_b=w(classes))


def _random_rnn(rng, hidden, input_dim, classes=3):
    cols = hidden + input_dim

    def w(*shape):
        return rng.normal(scale=0.4, size=shape)

    return RnnParams(W=w(hidden, cols), b=w(hidden),
                     head_W=w(classes, hidden), head_b=w(classes))


def _random_matrix(rng, n_rows, dim):
    rows = rng.normal(scale=0.7, size=(n_rows, dim))
    rows[0] = 0.0
    return EmbeddingMatrix(rows=rows)


def _cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def test_c1_gradient_fidelity():
    """BPTT gradients vs central finite differences on every tensor.

    Ten random instances (hidden 4, input 3, sequence length 5); the check
    covers all recurrent tensors, the head, and every touched embedding
    row, at relative error < 1e-4 with step 1e-4.
    """
    started = time.perf_counter()
    hidden, input_dim, seq_len = 4, 3, 5
    for k in range(10):
        rng = np.random.default_rng((77, k))
        params = _random_lstm(rng, hidden, input_dim)
        emb = _random_matrix(rng, 9, input_dim)
        indices = rng.integers(2, emb.n_rows, size=seq_len)
        label = int(rng.integers(0, 3))

        def loss():
            return cross_entropy(forward(params, emb, indices).logits, label)

        grads = backward(forward(params, emb, indices), params, label)

        for name in LstmParams.TENSOR_NAMES:
            numeric = finite_difference(loss, getattr(params, name), eps=1e-4)
            err = relative_error(grads.tensors[name], numeric)
            assert err < 1e-4, f"instance {k}, tensor {name}: rel err {err:.3e}"

        rows = dict(zip(grads.embedding_index.tolist(), grads.embedding_grad))
        touched = {int(t) for t in indices}
        assert set(rows) == touched
        for idx in sorted(touched):
            numeric = finite_difference(loss, emb.rows[idx], eps=1e-4)
            err = relative_error(rows[idx], numeric)
            assert err < 1e-4, f"instance {k}, embedding row {idx}: rel err {err:.3e}"

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"


def test_c2_cell_conformance():
    """The engine's LSTM cell vs an independent scalar-loop cell.

    100 random instances agree to 1e-12 on the new hidden and cell states
    and on every gate; every cached activation obeys its range invariant.
    """
    hidden, input_dim = 6, 5
    for k in range(100):
        rng = np.random.default_rng((101, k))
        params = _random_lstm(rng, hidden, input_dim)
        h = rng.normal(scale=0.8, size=hidden)
        c = rng.normal(scale=0.8, size=hidden)
        x = rng.normal(scale=0.8, size=input_dim)

        W, b = params.gate_weights()
        h_new, c_new, s, cbar, tanh_c = _lstm_cell(np.concatenate([h, x]) @ W.T + b, c)
        f, i, o = np.split(s, 3)
        h_ref, c_ref, gates = lstm_step_ref(params.tensors(), h, c, x)

        assert np.max(np.abs(h_new - np.array(h_ref))) <= 1e-12
        assert np.max(np.abs(c_new - np.array(c_ref))) <= 1e-12
        for name, arr in (("f", f), ("i", i), ("cbar", cbar), ("o", o)):
            assert np.max(np.abs(arr - np.array(gates[name]))) <= 1e-12, name

        for arr, lo, hi in ((f, 0.0, 1.0), (i, 0.0, 1.0), (o, 0.0, 1.0),
                            (cbar, -1.0, 1.0), (tanh_c, -1.0, 1.0)):
            assert np.all(arr > lo) and np.all(arr < hi)


def test_c3_overfit_smoke():
    """A default-size LSTM reaches 100% training accuracy on a 30-example
    keyword-separable corpus within 200 epochs, in under a minute."""
    started = time.perf_counter()
    texts, labels = keyword_corpus()
    assert len(texts) == 30
    token_lists = [t.split() for t in texts]
    vocab = build_vocabulary(token_lists, min_count=1)
    examples = [encode_example(toks, label, vocab, 8)
                for toks, label in zip(token_lists, labels)]

    emb = random_embedding(vocab, 16, seed=(1, 4))
    params = init_lstm_params(50, 16, seed=(1, 5))
    params, report = train(examples, params, emb, TrainConfig(epochs=200, seed=1))

    assert 1.0 in report.epoch_accuracies, (
        f"best train accuracy {max(report.epoch_accuracies):.3f} after 200 epochs"
    )
    assert evaluate_model(params, emb, examples).accuracy == 1.0
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"overfit run took {elapsed:.1f}s"


def test_c4_metric_oracle():
    """Metrics vs brute-force recomputation on 10^4 random count matrices.

    All three averaging schemes agree to 1e-12 and the micro aggregates
    equal accuracy on every matrix; crafted degenerate matrices cover the
    zero-division corners.
    """
    rng = np.random.default_rng((4242,))
    matrices = []
    for a in range(3):
        for p in range(3):
            m = np.zeros((3, 3), dtype=np.int64)
            m[a, p] = 7
            matrices.append(m)
    matrices.append(np.eye(3, dtype=np.int64) * 5)
    matrices.append(np.array([[0, 10, 0], [0, 10, 0], [0, 10, 0]], dtype=np.int64))
    matrices.append(np.array([[3, 0, 0], [4, 0, 0], [5, 0, 0]], dtype=np.int64))
    matrices.append(np.full((3, 3), 10 ** 6, dtype=np.int64))
    for _ in range(10_000):
        counts = rng.integers(0, 40, size=(3, 3))
        if counts.sum() == 0:
            counts[0, 0] = 1
        matrices.append(counts)

    tol = 1e-12
    for counts in matrices:
        ref = metrics_ref(counts)
        cm = ConfusionMatrix3(counts)
        for scheme in ("macro", "micro", "weighted"):
            rep = metrics(cm, averaging=scheme)
            assert abs(rep.accuracy - ref["accuracy"]) <= tol
            for k in range(3):
                assert abs(rep.per_class_precision[k] - ref["per_class"][k]["precision"]) <= tol
                assert abs(rep.per_class_recall[k] - ref["per_class"][k]["recall"]) <= tol
                assert abs(rep.per_class_f1[k] - ref["per_class"][k]["f1"]) <= tol
                assert rep.support[k] == ref["per_class"][k]["support"]
            for m in ("precision", "recall", "f1"):
                assert abs(getattr(rep, f"macro_{m}") - ref["macro"][m]) <= tol
                assert abs(getattr(rep, f"micro_{m}") - ref["micro"][m]) <= tol
                assert abs(getattr(rep, f"weighted_{m}") - ref["weighted"][m]) <= tol
            assert abs(rep.micro_precision - rep.accuracy) <= tol
            assert abs(rep.micro_recall - rep.accuracy) <= tol
            assert abs(rep.micro_f1 - rep.accuracy) <= tol


def test_c5_directional_reproduction():
    """On a fixed-seed corpus whose label token sits >= 40 positions before
    the sequence end, the LSTM beats the vanilla RNN and both beat Naive
    Bayes and logistic regression by at least 10 points of test accuracy.

    2000 train / 500 test examples; the whole run stays under 5 minutes.
    """
    started = time.perf_counter()
    train_texts, train_labels, test_texts, test_labels = long_range_corpus()
    assert len(train_texts) == 2000 and len(test_texts) == 500
    for text in train_texts:
        tokens = text.split()
        last = max(i for i, tok in enumerate(tokens) if tok in MARKERS)
        assert len(tokens) - 1 - last >= 40

    tok_train = [tokenize(t) for t in train_texts]
    tok_test = [tokenize(t) for t in test_texts]
    vocab = build_vocabulary(tok_train, min_count=1)
    train_examples = [encode_example(t, l, vocab, 48)
                      for t, l in zip(tok_train, train_labels)]
    test_examples = [encode_example(t, l, vocab, 48)
                     for t, l in zip(tok_test, test_labels)]

    train_counts = count_features([ex.indices for ex in train_examples], vocab.n_tokens)
    test_counts = count_features([ex.indices for ex in test_examples], vocab.n_tokens)
    y_train = np.array([ex.label for ex in train_examples], dtype=np.int64)
    y_test = np.array([ex.label for ex in test_examples], dtype=np.int64)

    nb = naive_bayes_fit(train_counts, y_train)
    nb_acc = metrics(confusion(y_test, naive_bayes_predict(nb, test_counts))).accuracy
    lr = logreg_fit(train_counts, y_train)
    lr_acc = metrics(confusion(y_test, logreg_predict(lr, test_counts))).accuracy

    accuracies = {}
    for kind, epochs, stream in (("lstm", 18, 5), ("rnn", 22, 7)):
        emb = random_embedding(vocab, 24, seed=(1, 4))
        init = init_lstm_params if kind == "lstm" else init_rnn_params
        params = init(50, 24, seed=(1, stream))
        params, _ = train(train_examples, params, emb,
                          TrainConfig(epochs=epochs, seed=1))
        accuracies[kind] = evaluate_model(params, emb, test_examples).accuracy

    assert accuracies["lstm"] > accuracies["rnn"], (
        f"lstm {accuracies['lstm']:.4f} <= rnn {accuracies['rnn']:.4f}"
    )
    for kind, acc in accuracies.items():
        assert acc >= nb_acc + 0.10, f"{kind} {acc:.4f} vs naive bayes {nb_acc:.4f}"
        assert acc >= lr_acc + 0.10, f"{kind} {acc:.4f} vs logreg {lr_acc:.4f}"

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"comparison run took {elapsed:.1f}s"


def test_c6_embedding_sanity():
    """Skip-gram training separates co-occurrence groups (mean within-group
    cosine at least 0.2 above mean across-group cosine after 10 iterations)
    and the SGNS gradients match finite differences below 1e-5."""
    texts, within_pairs, across_pairs = cooccurrence_corpus()
    token_lists = [t.split() for t in texts]
    vocab = build_vocabulary(token_lists, min_count=1)
    sequences = [[vocab.index(tok) for tok in toks] for toks in token_lists]
    config = EmbeddingConfig(dim=20, window=3, min_count=1, iterations=10,
                             negatives=5, learning_rate=0.025, seed=1)
    matrix = train_skipgram(sequences, config, vocab)

    def mean_cosine(pairs):
        values = [_cosine(matrix.rows[vocab.index(a)], matrix.rows[vocab.index(b)])
                  for a, b in pairs]
        return sum(values) / len(values)

    within = mean_cosine(within_pairs)
    across = mean_cosine(across_pairs)
    assert within - across >= 0.2, (
        f"within {within:.3f}, across {across:.3f}, gap {within - across:.3f}"
    )

    for k in range(25):
        rng = np.random.default_rng((55, k))
        center = rng.normal(scale=0.6, size=8)
        context = rng.normal(scale=0.6, size=8)
        negatives = rng.normal(scale=0.6, size=(3, 8))
        loss, g_center, g_context, g_negatives = sgns_gradient(center, context, negatives)
        assert abs(loss - sgns_loss_ref(center, context, negatives)) <= 1e-12

        for grads, array in ((g_center, center), (g_context, context),
                             (g_negatives, negatives)):
            numeric = finite_difference(
                lambda: sgns_gradient(center, context, negatives)[0], array)
            assert relative_error(grads, numeric) < 1e-5


def _digest_tree(root):
    digests = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                digests[os.path.relpath(path, root)] = hashlib.sha256(f.read()).hexdigest()
    return digests


def test_c7_determinism(tmp_path):
    """Two full compare runs with the same seed produce byte-identical
    artifact trees: checkpoints, baselines, manifests, and reports."""
    csv_path = tmp_path / "toy.csv"
    texts, labels = keyword_corpus()
    write_csv(csv_path, texts, labels)

    def run(out_dir):
        rc = cli_main(["compare", "--data", str(csv_path),
                       "--output-dir", str(out_dir), "--quiet",
                       "--min-count", "1", "--maxlen", "8",
                       "--dim", "8", "--window", "3", "--iterations", "2",
                       "--negatives", "3", "--hidden", "8", "--epochs", "2",
                       "--seed", "3"])
        assert rc == 0

    run(tmp_path / "a")
    run(tmp_path / "b")

    tree_a = _digest_tree(tmp_path / "a")
    tree_b = _digest_tree(tmp_path / "b")
    expected = {"compare.json", os.path.join("lstm", "model.bin"),
                os.path.join("rnn", "model.bin"),
                os.path.join("baselines", "naive_bayes.bin"),
                os.path.join("baselines", "logreg.bin")}
    assert expected <= set(tree_a)
    assert tree_a == tree_b


def test_c8_padding_invariance():
    """Appending padding to an input changes nothing: 100 random models and
    inputs give exactly equal probabilities, gradients, and touched rows."""
    for k in range(100):
        rng = np.random.default_rng((88, k))
        hidden = int(rng.integers(3, 7))
        dim = int(rng.integers(2, 6))
        n_rows = int(rng.integers(6, 13))
        emb = _random_matrix(rng, n_rows, dim)
        if k % 2 == 0:
            params = _random_lstm(rng, hidden, dim)
        else:
            params = _random_rnn(rng, hidden, dim)

        length = int(rng.integers(1, 7))
        base = rng.integers(1, n_rows, size=length).astype(np.int32)
        n_pad = int(rng.integers(1, 5))
        padded = np.concatenate([base, np.zeros(n_pad, dtype=np.int32)])

        assert np.array_equal(forward(params, emb, base, cache=False).probs,
                              forward(params, emb, padded, cache=False).probs)

        label = int(rng.integers(0, 3))
        grads_base = backward(forward(params, emb, base), params, label)
        grads_padded = backward(forward(params, emb, padded), params, label)
        for name in params.TENSOR_NAMES:
            assert np.array_equal(grads_base.tensors[name], grads_padded.tensors[name])
        rows_base, rows_padded = (dict(zip(g.embedding_index.tolist(), g.embedding_grad))
                                  for g in (grads_base, grads_padded))
        assert set(rows_base) == set(rows_padded)
        assert 0 not in rows_padded
        for idx, row in rows_base.items():
            assert np.array_equal(row, rows_padded[idx])
