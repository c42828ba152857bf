import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (batch_grads_ref, cross_entropy_ref, example_grads_ref,
                     finite_difference, lstm_forward_ref, lstm_step_ref,
                     relative_error, rnn_step_ref, softmax_ref)
from sentilstm.corpus import PAD_INDEX
from sentilstm.embedding import EmbeddingMatrix
from sentilstm.errors import TrainingError
from sentilstm.nnet import (Grads, LstmParams, RnnParams, _lstm_cell, backward,
                            cross_entropy, forward, init_lstm_params, init_rnn_params,
                            softmax)


def zero_lstm(hidden=1, input_dim=1, classes=3):
    shape = (hidden, hidden + input_dim)
    return LstmParams(W_f=np.zeros(shape), b_f=np.zeros(hidden),
                      W_i=np.zeros(shape), b_i=np.zeros(hidden),
                      W_c=np.zeros(shape), b_c=np.zeros(hidden),
                      W_o=np.zeros(shape), b_o=np.zeros(hidden),
                      head_W=np.zeros((classes, hidden)), head_b=np.zeros(classes))


def random_lstm(hidden, input_dim, rng, scale=0.7):
    shape = (hidden, hidden + input_dim)
    u = lambda s: rng.uniform(-scale, scale, size=s)
    return LstmParams(W_f=u(shape), b_f=u(hidden), W_i=u(shape), b_i=u(hidden),
                      W_c=u(shape), b_c=u(hidden), W_o=u(shape), b_o=u(hidden),
                      head_W=u((3, hidden)), head_b=u(3))


def random_rnn(hidden, input_dim, rng, scale=0.7):
    return RnnParams(
        W=rng.uniform(-scale, scale, size=(hidden, hidden + input_dim)),
        b=rng.uniform(-scale, scale, size=hidden),
        head_W=rng.uniform(-scale, scale, size=(3, hidden)),
        head_b=rng.uniform(-scale, scale, size=3))


def embedding_for(rows):
    rows = np.asarray(rows, dtype=np.float64)
    return EmbeddingMatrix(rows=rows, vocab_fingerprint=b"\x00" * 32)


def lstm_cell(params, h, c, x):
    """One step of the engine's cell from state (h, c) on input x: (h', c',
    gates), gates holding f, i, o, cbar and tanh(c')."""
    W, b = params.gate_weights()
    h_new, c_new, s, cbar, tanh_c = _lstm_cell(np.concatenate([h, x]) @ W.T + b, c)
    f, i, o = np.split(s, 3)
    return h_new, c_new, {"f": f, "i": i, "o": o, "cbar": cbar, "tanh_c": tanh_c}


def cell_sigmoid(x):
    """The cell's sigma at x, as (3, n) rows f, i, o: `_lstm_cell` on a gate
    block whose sigmoid rows hold x / 2, as `gate_weights` halves them."""
    x = np.asarray(x, dtype=np.float64)
    block = np.concatenate([x / 2, x / 2, x / 2, np.zeros_like(x)])
    _, _, s, _, _ = _lstm_cell(block, np.zeros_like(x))
    return s.reshape(3, -1)


def row_grads(grads):
    """The embedding gradient as {row index: gradient row}."""
    return dict(zip(grads.embedding_index.tolist(), grads.embedding_grad))


class TestActivations:
    def test_sigmoid_against_reference(self):
        xs = np.linspace(-30, 30, 101)
        want = [1.0 / (1.0 + math.exp(-x)) for x in xs]
        for got in cell_sigmoid(xs):
            assert np.allclose(got, want, rtol=0, atol=1e-15)

    def test_sigmoid_extremes_stable(self):
        assert np.all(cell_sigmoid([-1000.0]) == 0.0)
        assert np.all(cell_sigmoid([1000.0]) == 1.0)
        assert np.all(np.isfinite(cell_sigmoid([-1e308, 1e308])))

    def test_softmax_matches_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            logits = rng.normal(size=3) * 5
            assert np.allclose(softmax(logits), softmax_ref(logits), atol=1e-14)

    def test_softmax_shift_invariant_and_stable(self):
        probs = softmax(np.array([1000.0, 1000.0, 1000.0]))
        assert np.allclose(probs, [1 / 3] * 3)
        probs = softmax(np.array([-2000.0, 0.0, 2000.0]))
        assert np.all(np.isfinite(probs))
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_cross_entropy_uniform_logits(self):
        # equal logits: loss is ln 3 for any label
        for label in range(3):
            assert abs(cross_entropy(np.zeros(3), label) - math.log(3.0)) < 1e-12

    def test_cross_entropy_matches_reference(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            logits = rng.normal(size=3) * 4
            label = int(rng.integers(0, 3))
            assert abs(cross_entropy(logits, label) - cross_entropy_ref(logits, label)) < 1e-12

    def test_cross_entropy_extreme_logits_finite(self):
        loss = cross_entropy(np.array([800.0, -800.0, 0.0]), 1)
        assert np.isfinite(loss)
        assert loss > 100


class TestLstmStep:
    def test_zero_params_halve_cell(self):
        # all-zero parameters: f = i = o = 1/2, cbar = 0, so c' = c/2 and
        # h' = tanh(c/2)/2
        params = zero_lstm(hidden=1, input_dim=1)
        h, c, gates = lstm_cell(params, np.zeros(1), np.ones(1), np.array([3.7]))
        assert abs(c[0] - 0.5) < 1e-15
        assert abs(h[0] - 0.5 * math.tanh(0.5)) < 1e-15
        assert abs(h[0] - 0.23105857863000487) < 1e-12
        assert gates["f"][0] == 0.5 and gates["i"][0] == 0.5 and gates["o"][0] == 0.5

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            hidden = int(rng.integers(1, 6))
            input_dim = int(rng.integers(1, 5))
            params = random_lstm(hidden, input_dim, rng)
            h, c = rng.normal(size=hidden), rng.normal(size=hidden)
            x = rng.normal(size=input_dim)
            h_new, c_new, gates = lstm_cell(params, h, c, x)
            weights = {n: getattr(params, n) for n in params.TENSOR_NAMES}
            h_ref, c_ref, gates_ref = lstm_step_ref(weights, h, c, x)
            assert np.allclose(h_new, h_ref, rtol=0, atol=1e-12)
            assert np.allclose(c_new, c_ref, rtol=0, atol=1e-12)
            assert np.allclose(gates["f"], gates_ref["f"], atol=1e-12)
            assert np.allclose(gates["cbar"], gates_ref["cbar"], atol=1e-12)

    def test_gate_ranges(self):
        rng = np.random.default_rng(3)
        params = random_lstm(4, 3, rng, scale=2.0)
        h, c = rng.normal(size=4), rng.normal(size=4)
        _, _, gates = lstm_cell(params, h, c, rng.normal(size=3) * 3)
        for name in ("f", "i", "o"):
            assert np.all(gates[name] > 0) and np.all(gates[name] < 1)
        assert np.all(gates["cbar"] > -1) and np.all(gates["cbar"] < 1)


class TestRnnStep:
    """The engine's RNN step, read from the final hidden state that the
    forward pass keeps for backward (the head is fixed at three classes)."""

    @staticmethod
    def run(params, rows, indices):
        return forward(params, embedding_for(rows), np.asarray(indices)).cache["h"][0]

    def test_zero_weight_bias_half(self):
        # zero W and b = 1/2: h = tanh(1/2) regardless of input
        params = RnnParams(W=np.zeros((1, 2)), b=np.array([0.5]),
                           head_W=np.zeros((3, 1)), head_b=np.zeros(3))
        h = self.run(params, [[0.0], [9.9]], [1])
        assert abs(h[0] - math.tanh(0.5)) < 1e-15
        assert abs(h[0] - 0.46211715726000974) < 1e-12

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            hidden = int(rng.integers(1, 6))
            input_dim = int(rng.integers(1, 5))
            params = random_rnn(hidden, input_dim, rng)
            rows = rng.normal(size=(3, input_dim))
            # the first step leaves a random state; the second is checked
            h0 = rnn_step_ref({"W": params.W, "b": params.b}, np.zeros(hidden), rows[1])
            h = self.run(params, rows, [1, 2])
            ref = rnn_step_ref({"W": params.W, "b": params.b}, h0, rows[2])
            assert np.allclose(h, ref, rtol=0, atol=1e-12)
            assert np.all(np.abs(h) < 1)


class TestInit:
    def test_lstm_init_shapes_and_values(self):
        params = init_lstm_params(5, 4, seed=9)
        bound = 1.0 / math.sqrt(9)
        for name in ("W_f", "W_i", "W_c", "W_o"):
            W = getattr(params, name)
            assert W.shape == (5, 9)
            assert np.all(np.abs(W) <= bound)
        assert np.all(params.b_f == 1.0)
        assert np.all(params.b_i == 0.0)
        assert np.all(params.head_W == 0.0)
        assert params.hidden == 5 and params.input_dim == 4 and params.classes == 3

    def test_rnn_init_shapes(self):
        params = init_rnn_params(4, 3, seed=2)
        assert params.W.shape == (4, 7)
        assert np.all(params.b == 0.0)
        assert params.hidden == 4 and params.input_dim == 3

    def test_lstm_draw_order(self):
        # checkpoints depend on it: W_f, W_i, W_c, W_o from one stream, in that order
        rng = np.random.default_rng(9)
        bound = 1.0 / math.sqrt(9)
        want = {name: rng.uniform(-bound, bound, size=(5, 9))
                for name in ("W_f", "W_i", "W_c", "W_o")}
        want.update(b_f=np.ones(5), b_i=np.zeros(5), b_c=np.zeros(5), b_o=np.zeros(5),
                    head_W=np.zeros((3, 5)), head_b=np.zeros(3))
        got = init_lstm_params(5, 4, seed=9).tensors()
        assert list(got) == list(LstmParams.TENSOR_NAMES)
        for name, tensor in got.items():
            assert tensor.dtype == np.float64
            np.testing.assert_array_equal(tensor, want[name])

    def test_rnn_draw_order(self):
        rng = np.random.default_rng(9)
        bound = 1.0 / math.sqrt(9)
        want = {"W": rng.uniform(-bound, bound, size=(5, 9)), "b": np.zeros(5),
                "head_W": np.zeros((3, 5)), "head_b": np.zeros(3)}
        got = init_rnn_params(5, 4, seed=9).tensors()
        assert list(got) == list(RnnParams.TENSOR_NAMES)
        for name, tensor in got.items():
            assert tensor.dtype == np.float64
            np.testing.assert_array_equal(tensor, want[name])

    def test_deterministic(self):
        a = init_lstm_params(4, 3, seed=5)
        b = init_lstm_params(4, 3, seed=5)
        c = init_lstm_params(4, 3, seed=6)
        assert np.array_equal(a.W_f, b.W_f)
        assert not np.array_equal(a.W_f, c.W_f)

    def test_copy_is_deep(self):
        params = init_lstm_params(3, 2, seed=0)
        clone = params.copy()
        clone.W_f[0, 0] += 1.0
        assert params.W_f[0, 0] != clone.W_f[0, 0]


class TestForward:
    def test_zero_params_uniform_probs(self):
        params = zero_lstm(hidden=2, input_dim=2)
        emb = embedding_for(np.ones((5, 2)))
        trace = forward(params, emb, np.array([2, 3, 4]))
        assert np.allclose(trace.probs, [1 / 3] * 3, atol=1e-15)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            params = random_lstm(3, 2, rng)
            rows = rng.normal(size=(6, 2))
            rows[0] = 0.0
            indices = rng.integers(1, 6, size=7)
            trace = forward(params, embedding_for(rows), indices)
            weights = {n: getattr(params, n) for n in params.TENSOR_NAMES}
            logits_ref, probs_ref = lstm_forward_ref(weights, rows, indices)
            assert np.allclose(trace.logits, logits_ref, atol=1e-12)
            assert np.allclose(trace.probs, probs_ref, atol=1e-12)

    def test_skips_pad_positions(self):
        rng = np.random.default_rng(6)
        params = random_lstm(3, 2, rng)
        emb = embedding_for(rng.normal(size=(5, 2)))
        bare = forward(params, emb, np.array([2, 3]))
        padded = forward(params, emb, np.array([2, 0, 0, 3, 0]))
        assert np.array_equal(bare.probs, padded.probs)
        # the pads are dropped and the row cut to its two real tokens
        assert bare.indices.tolist() == padded.indices.tolist() == [[2, 3]]

    def test_empty_sequence_rejected(self):
        params = zero_lstm(2, 2)
        emb = embedding_for(np.zeros((3, 2)))
        with pytest.raises(TrainingError, match="empty sequence"):
            forward(params, emb, np.zeros(4, dtype=np.int32))

    @pytest.mark.parametrize("kind", ["lstm", "rnn"])
    @pytest.mark.parametrize("cache", [True, False])
    def test_embedding_dim_other_than_input_dim_rejected(self, kind, cache):
        rng = np.random.default_rng(17)
        params = random_lstm(3, 2, rng) if kind == "lstm" else random_rnn(3, 2, rng)
        emb = embedding_for(rng.normal(size=(5, 3)))
        with pytest.raises(TrainingError,
                           match="^embedding dim 3 does not match model input dim 2$"):
            forward(params, emb, np.array([[2, 3], [4, 0]]), cache=cache)

    def test_integer_indices_read_as_intp_and_float_refused(self):
        # an int32 block gives the same trace as int64; a float index is not truncated
        rng = np.random.default_rng(18)
        params = random_rnn(3, 2, rng)
        emb = embedding_for(rng.normal(size=(5, 2)))
        batch = np.array([[2, 3, 0], [4, 0, 0]])
        want = forward(params, emb, batch, cache=False)
        got = forward(params, emb, batch.astype(np.int32), cache=False)
        assert got.indices.dtype == np.intp
        np.testing.assert_array_equal(got.probs, want.probs)
        with pytest.raises(TypeError):
            forward(params, emb, batch + 0.5, cache=False)

    @pytest.mark.parametrize("kind", ["lstm", "rnn"])
    def test_non_finite_rejected(self, kind):
        rng = np.random.default_rng(16)
        params = random_lstm(3, 2, rng) if kind == "lstm" else random_rnn(3, 2, rng)
        rows = rng.normal(size=(5, 2))
        rows[3] = np.nan
        for indices in (np.array([2, 3]), np.array([[2, 4], [3, 0]])):
            with pytest.raises(TrainingError, match="non-finite"):
                forward(params, embedding_for(rows), indices, cache=False)

    def test_probs_simplex(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            params = random_lstm(4, 3, rng, scale=1.5)
            emb = embedding_for(rng.normal(size=(8, 3)) * 2)
            probs = forward(params, emb, rng.integers(1, 8, size=6), cache=False).probs
            assert abs(probs.sum() - 1.0) < 1e-12
            assert np.all(probs >= 0)

    def test_predicted_is_argmax(self):
        rng = np.random.default_rng(8)
        params = random_lstm(3, 2, rng)
        emb = embedding_for(rng.normal(size=(4, 2)))
        indices = np.array([1, 2, 3])
        probs = forward(params, emb, indices, cache=False).probs
        assert forward(params, emb, indices).predicted == int(np.argmax(probs))
        batch = np.array([[1, 2, 3], [3, 0, 2], [2, 2, 0]])
        probs = forward(params, emb, batch, cache=False).probs
        assert probs.shape == (3, 3)
        np.testing.assert_array_equal(forward(params, emb, batch).predicted,
                                      np.argmax(probs, axis=1))

    def test_rnn_forward_reference(self):
        rng = np.random.default_rng(9)
        params = random_rnn(3, 2, rng)
        rows = rng.normal(size=(5, 2))
        indices = [1, 4, 2]
        trace = forward(params, embedding_for(rows), indices)
        h = [0.0] * 3
        for idx in indices:
            h = rnn_step_ref({"W": params.W, "b": params.b}, h, rows[idx])
        logits = [float(params.head_b[r] + sum(params.head_W[r][c] * h[c] for c in range(3)))
                  for r in range(3)]
        assert np.allclose(trace.logits, logits, atol=1e-12)


class TestBackward:
    def test_head_bias_gradient_uniform_case(self):
        # zero parameters give uniform probs; d loss / d head_b is
        # probs - onehot(label) = [1/3, 1/3, 1/3] - e_label
        params = zero_lstm(hidden=2, input_dim=2)
        emb = embedding_for(np.ones((4, 2)))
        for label in range(3):  # backward uses its trace up: one forward per label
            grads = backward(forward(params, emb, np.array([2, 3])), params, label)
            want = np.full(3, 1 / 3)
            want[label] -= 1.0
            assert np.allclose(grads.tensors["head_b"], want, atol=1e-15)

    @pytest.mark.parametrize("hidden,input_dim,seq", [(3, 2, 4), (4, 3, 5), (2, 2, 1)])
    def test_lstm_gradients_match_finite_differences(self, hidden, input_dim, seq):
        rng = np.random.default_rng((10, hidden, seq))
        params = random_lstm(hidden, input_dim, rng)
        rows = rng.normal(size=(6, input_dim))
        rows[0] = 0.0
        emb = embedding_for(rows)
        indices = rng.integers(1, 6, size=seq)
        label = int(rng.integers(0, 3))

        trace = forward(params, emb, indices)
        grads = backward(trace, params, label)

        def loss():
            return cross_entropy(forward(params, emb, indices).logits, label)

        for name, tensor in params.tensors().items():
            numeric = finite_difference(loss, tensor)
            assert relative_error(grads.tensors[name], numeric) < 1e-6, name
        for row, grad in row_grads(grads).items():
            numeric = finite_difference(loss, emb.rows[row])
            assert relative_error(grad, numeric) < 1e-6, f"embedding row {row}"

    def test_rnn_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        params = random_rnn(3, 2, rng)
        rows = rng.normal(size=(5, 2))
        emb = embedding_for(rows)
        indices = np.array([1, 3, 4, 2])
        label = 2
        trace = forward(params, emb, indices)
        grads = backward(trace, params, label)

        def loss():
            return cross_entropy(forward(params, emb, indices).logits, label)

        for name, tensor in params.tensors().items():
            numeric = finite_difference(loss, tensor)
            assert relative_error(grads.tensors[name], numeric) < 1e-6, name
        for row, grad in row_grads(grads).items():
            numeric = finite_difference(loss, emb.rows[row])
            assert relative_error(grad, numeric) < 1e-6

    def test_repeated_token_accumulates_embedding_grad(self):
        rng = np.random.default_rng(12)
        params = random_lstm(3, 2, rng)
        rows = rng.normal(size=(4, 2))
        emb = embedding_for(rows)
        indices = np.array([2, 2, 2])
        trace = forward(params, emb, indices)
        grads = backward(trace, params, 0)
        assert grads.embedding_index.tolist() == [2]

        def loss():
            return cross_entropy(forward(params, emb, indices).logits, 0)

        numeric = finite_difference(loss, emb.rows[2])
        assert relative_error(grads.embedding_grad[0], numeric) < 1e-6


class TestGrads:
    @staticmethod
    def zeros_like(params, rows):
        return Grads(tensors={name: np.zeros_like(arr) for name, arr in params.tensors().items()},
                     embedding_index=np.array(rows), embedding_grad=np.zeros((len(rows), 2)))

    def test_zeros_like_and_norm(self):
        grads = self.zeros_like(init_lstm_params(3, 2, seed=0), [2, 5])
        assert grads.global_norm() == 0.0
        grads.tensors["head_b"][:] = [3.0, 0.0, 4.0]
        grads.embedding_grad[1] = [12.0, 0.0]
        assert abs(grads.global_norm() - 13.0) < 1e-12

    def test_scale(self):
        a = self.zeros_like(init_lstm_params(2, 2, seed=0), [1])
        a.tensors["b_i"][:] = 3.0
        a.embedding_grad[0] = np.ones(2)
        a.scale_(0.5)
        assert np.all(a.tensors["b_i"] == 1.5)
        assert np.all(a.embedding_grad[0] == 0.5)


@st.composite
def batches(draw):
    """A batch of token rows over a 10-row vocabulary (token 0 the pad) and
    its labels: 1 to 12 rows whose real lengths are all equal, only 1 or the
    full length, or mixed with ties; the real tokens sit anywhere in a row,
    so pads come mid-row and at the end."""
    B, T = draw(st.integers(1, 12)), draw(st.integers(1, 8))
    shape = draw(st.sampled_from(["equal", "ones-and-full", "mixed"]))
    lengths = {"equal": st.just(T), "ones-and-full": st.sampled_from([1, T]),
               "mixed": st.integers(1, T)}[shape]
    width = T + draw(st.integers(0, 3))
    indices = np.zeros((B, width), dtype=np.int64)
    for row in indices:
        where = sorted(draw(st.permutations(range(width)))[:draw(lengths)])
        row[where] = draw(st.lists(st.integers(1, 9), min_size=len(where), max_size=len(where)))
    return indices, np.array(draw(st.lists(st.integers(0, 2), min_size=B, max_size=B)))


def random_model(kind, seed):
    rng = np.random.default_rng(seed)
    params = random_lstm(4, 3, rng) if kind == "lstm" else random_rnn(4, 3, rng)
    rows = rng.normal(size=(10, 3))
    rows[0] = 0.0
    return params, rows


class TestEngineOracle:
    """The packed engine against the per-example reference: loss, probs,
    every tensor gradient and every embedding row within 1e-12."""

    @pytest.mark.parametrize("kind", ["lstm", "rnn"])
    @given(batch=batches(), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_batch_matches_per_example_reference(self, kind, batch, seed):
        indices, labels = batch
        params, rows = random_model(kind, seed)
        trace = forward(params, embedding_for(rows), indices)
        grads = backward(trace, params, labels)
        loss, ref_tensors, ref_rows = batch_grads_ref(params.tensors(), rows, indices, labels)

        assert abs(float(np.mean(cross_entropy(trace.logits, labels))) - loss) <= 1e-12
        for b, row in enumerate(indices):
            real = row[row != PAD_INDEX]
            assert trace.indices[b].tolist() == real.tolist() + [PAD_INDEX] * (
                trace.indices.shape[1] - real.size)
            _, probs, _, _ = example_grads_ref(params.tensors(), rows, row, 0)
            assert np.max(np.abs(trace.probs[b] - probs)) <= 1e-12
        for name in params.TENSOR_NAMES:
            assert np.max(np.abs(grads.tensors[name] - ref_tensors[name])) <= 1e-12, name
        got = row_grads(grads)
        assert grads.embedding_index.tolist() == sorted(ref_rows)
        assert PAD_INDEX not in got
        for idx, ref in ref_rows.items():
            assert np.max(np.abs(got[idx] - ref)) <= 1e-12, idx

    @pytest.mark.parametrize("kind", ["lstm", "rnn"])
    @given(batch=batches(), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_permuting_rows_permutes_probs_and_keeps_gradients(self, kind, batch, seed, data):
        indices, labels = batch
        perm = np.array(data.draw(st.permutations(range(len(labels)))))
        params, rows = random_model(kind, seed)
        emb = embedding_for(rows)
        trace, moved = forward(params, emb, indices), forward(params, emb, indices[perm])
        assert np.max(np.abs(moved.probs - trace.probs[perm])) <= 1e-12
        grads, grads_moved = backward(trace, params, labels), backward(moved, params, labels[perm])
        for name in params.TENSOR_NAMES:
            assert np.max(np.abs(grads.tensors[name] - grads_moved.tensors[name])) <= 1e-12, name
        assert np.array_equal(grads.embedding_index, grads_moved.embedding_index)
        assert np.max(np.abs(grads.embedding_grad - grads_moved.embedding_grad)) <= 1e-12

    @pytest.mark.parametrize("kind", ["lstm", "rnn"])
    @pytest.mark.parametrize("shape", ["2x48", "16x32 ragged"])
    def test_long_runs_match_per_example_reference(self, kind, shape):
        # runs of 48 and up to 32 steps, where the drawn batches above have at most 8
        rng = np.random.default_rng((23, kind == "lstm", len(shape)))
        params, rows = random_model(kind, int(rng.integers(2 ** 32)))
        B, T = (2, 48) if shape == "2x48" else (16, 32)
        indices = rng.integers(1, 10, size=(B, T))
        if shape != "2x48":
            indices[np.arange(T) >= rng.integers(1, T + 1, size=(B, 1))] = PAD_INDEX
        labels = rng.integers(0, 3, size=B)
        trace = forward(params, embedding_for(rows), indices)
        steps = [(e - s) // n for s, e, n in trace.cache["runs"]]  # per run of one width
        assert steps == [48] if B == 2 else len(steps) > 8
        grads = backward(trace, params, labels)
        _, ref_tensors, ref_rows = batch_grads_ref(params.tensors(), rows, indices, labels)
        for name in params.TENSOR_NAMES:
            assert np.max(np.abs(grads.tensors[name] - ref_tensors[name])) <= 1e-12, name
        got = row_grads(grads)
        assert sorted(got) == sorted(ref_rows)
        for idx, ref in ref_rows.items():
            assert np.max(np.abs(got[idx] - ref)) <= 1e-12, idx

    @given(tokens=st.lists(st.integers(1, 6), min_size=1, max_size=24), seed=st.integers(0, 99))
    @example(tokens=[3], seed=0)
    @example(tokens=[5] * 24, seed=1)
    @settings(max_examples=60, deadline=None)
    def test_embedding_rows_sum_as_add_at(self, tokens, seed):
        # one unpadded row of these tokens against the same row with each
        # position its own vocabulary index (same embedding vector): the first
        # gives the summed rows, the second each token's own gradient, which
        # np.add.at sums in token order; the two must agree bit for bit
        params, rows = random_model("lstm", seed)
        tokens = np.array(tokens)
        distinct = np.arange(1, tokens.size + 1)
        own_rows = np.concatenate([rows[:1], rows[tokens]])
        summed = backward(forward(params, embedding_for(rows), tokens), params, 1)
        each = backward(forward(params, embedding_for(own_rows), distinct), params, 1)
        assert each.embedding_index.tolist() == distinct.tolist()
        index, where = np.unique(tokens, return_inverse=True)
        want = np.zeros((index.size, rows.shape[1]))
        np.add.at(want, where, each.embedding_grad)
        assert summed.embedding_index.tolist() == index.tolist()
        assert summed.embedding_grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["lstm", "rnn"])
    def test_cell_runs_once_per_real_token(self, kind):
        # 6 real tokens in a (3, 5) batch: 9 pads are never a cell row
        indices = np.array([[2, 0, 3, 0, 0], [0, 0, 0, 0, 4], [5, 6, 0, 7, 0]])
        params, rows = random_model(kind, 17)
        cache = forward(params, embedding_for(rows), indices).cache
        widths = [a.shape[1] for blocks in cache["acts"] for a in blocks]  # cell rows per step
        assert widths == [3, 2, 1]
        assert len(cache["x"]) == sum(widths) == 6

    @pytest.mark.parametrize("kind", ["lstm", "rnn"])
    def test_single_example_matches_reference(self, kind):
        rng = np.random.default_rng((14, kind == "lstm"))
        params = random_lstm(3, 2, rng) if kind == "lstm" else random_rnn(3, 2, rng)
        rows = rng.normal(size=(6, 2))
        rows[0] = 0.0
        emb = embedding_for(rows)
        indices = np.array([4, 0, 4, 2, 0])
        trace = forward(params, emb, indices)
        grads = backward(trace, params, 1)
        loss, probs, ref_tensors, ref_rows = example_grads_ref(params.tensors(), rows, indices, 1)
        assert trace.probs.shape == (3,) and isinstance(trace.predicted, int)
        assert abs(cross_entropy(trace.logits, 1) - loss) <= 1e-12
        assert np.max(np.abs(trace.probs - probs)) <= 1e-12
        for name in params.TENSOR_NAMES:
            assert np.max(np.abs(grads.tensors[name] - ref_tensors[name])) <= 1e-12, name
        rows = row_grads(grads)
        assert grads.embedding_index.tolist() == sorted(ref_rows) == [2, 4]
        for idx, ref in ref_rows.items():
            assert np.max(np.abs(rows[idx] - ref)) <= 1e-12

    def test_inference_keeps_no_cache(self):
        rng = np.random.default_rng(15)
        params = random_lstm(3, 2, rng)
        emb = embedding_for(rng.normal(size=(5, 2)))
        trace = forward(params, emb, np.array([[1, 2], [3, 0]]), cache=False)
        assert trace.cache is None
        with pytest.raises(ValueError, match="cache"):
            backward(trace, params, np.array([0, 1]))

    def test_backward_uses_its_trace_once(self):
        # backward turns the trace's blocks into gate gradients in place, so a
        # second backward of the same trace is refused, not silently wrong
        params, rows = random_model("lstm", 16)
        trace = forward(params, embedding_for(rows), np.array([[1, 2, 3], [4, 5, 0]]))
        backward(trace, params, np.array([0, 2]))
        assert trace.cache is None
        with pytest.raises(ValueError, match="used once"):
            backward(trace, params, np.array([0, 2]))
