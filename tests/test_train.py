"""Tests for the training loop: Adam oracle conformance, clipping, descent
and determinism on a toy task, model files, and checkpoint integrity."""

import importlib
import json
import logging
import os

import numpy as np
import pytest

# the package re-exports a `train` function; go through importlib so we get
# the submodule itself (monkeypatching needs module globals)
train_mod = importlib.import_module("sentilstm.train")
from sentilstm import binio
from sentilstm.binio import sha256_file
from sentilstm.corpus import (PAD_INDEX, EncodedExample, build_vocabulary, encode_example,
                              load_vocabulary, save_vocabulary, serialize_vocabulary, stack)
from sentilstm.embedding import (EmbeddingMatrix, load_embeddings, random_embedding,
                                 save_embeddings)
from sentilstm.errors import FormatError, TrainingError
from sentilstm.nnet import Grads, forward, init_lstm_params, init_rnn_params
from sentilstm.train import (TrainConfig, TrainReport, adam_update, clip_grads,
                             evaluate_model, load_checkpoint, load_model,
                             predict_dataset, save_checkpoint, save_model, train)

from oracles import adam_ref, optimizer_step_ref
from synthetic import keyword_corpus, long_range_corpus


# ---------------------------------------------------------------------------
# fixtures


def f32_exact(arr):
    return arr.astype(np.float32).astype(np.float64)


def make_lstm(hidden=6, input_dim=4, seed=11, exact=False):
    params = init_lstm_params(hidden, input_dim, seed=seed)
    if exact:
        for name, tensor in params.tensors().items():
            tensor[...] = f32_exact(tensor)
    return params


def make_embedding(n_rows=12, dim=4, seed=3, exact=False):
    rng = np.random.default_rng(seed)
    rows = rng.uniform(-0.3, 0.3, size=(n_rows, dim))
    rows[PAD_INDEX] = 0.0
    if exact:
        rows = f32_exact(rows)
    return EmbeddingMatrix(rows=rows)


def toy_examples(n=12, n_rows=12, seq_len=5, seed=0):
    """Examples whose label equals a designated marker token's class."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        label = i % 3
        indices = rng.integers(5, n_rows, size=seq_len)
        indices[rng.integers(0, seq_len)] = 2 + label  # class marker token
        out.append(EncodedExample(indices=indices.astype(np.int32), label=label))
    return out


def encoded_keyword_dataset(maxlen=8):
    texts, labels = keyword_corpus()
    token_lists = [t.split() for t in texts]
    vocab = build_vocabulary(token_lists, min_count=1)
    examples = [encode_example(t, l, vocab, maxlen)
                for t, l in zip(token_lists, labels)]
    return examples, vocab


# ---------------------------------------------------------------------------
# configuration


class TestTrainConfig:
    def test_defaults(self):
        config = TrainConfig()
        assert config.epochs == 4
        assert config.batch_size == 32
        assert config.optimizer == "adam"
        assert config.learning_rate is None
        assert config.clip_norm == 5.0

    def test_resolved_learning_rate(self):
        assert TrainConfig().resolved_learning_rate == 0.001
        assert TrainConfig(optimizer="sgd").resolved_learning_rate == 0.1
        assert TrainConfig(learning_rate=0.05).resolved_learning_rate == 0.05

    @pytest.mark.parametrize("kwargs", [
        {"epochs": 0},
        {"batch_size": 0},
        {"optimizer": "rmsprop"},
        {"learning_rate": 0.0},
        {"learning_rate": -1.0},
        {"clip_norm": None},
        {"clip_norm": -2.0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_clip_norm_zero_accepted(self):
        assert TrainConfig(clip_norm=0.0).clip_norm == 0.0


# ---------------------------------------------------------------------------
# Adam


class TestAdamUpdate:
    def test_matches_reference_formula(self):
        rng = np.random.default_rng(1)
        param = rng.normal(size=(3, 4))
        grad_stream = [rng.normal(size=(3, 4)) for _ in range(5)]
        m = np.zeros_like(param)
        v = np.zeros_like(param)
        ref_param, ref_m, ref_v = param.copy(), m.copy(), v.copy()
        for t, grad in enumerate(grad_stream, start=1):
            adam_update(param, grad, m, v, t, lr=0.01)
            ref_param, ref_m, ref_v = adam_ref(ref_param, grad, ref_m, ref_v, t, 0.01,
                                               0.9, 0.999, 1e-8)
            np.testing.assert_allclose(param, ref_param, rtol=0, atol=1e-12)
            np.testing.assert_allclose(m, ref_m, rtol=0, atol=1e-12)
            np.testing.assert_allclose(v, ref_v, rtol=0, atol=1e-12)

    def test_zero_gradient_fixed_point(self):
        param = np.array([1.0, -2.0])
        m = np.zeros(2)
        v = np.zeros(2)
        adam_update(param, np.zeros(2), m, v, t=1, lr=0.1)
        np.testing.assert_array_equal(param, [1.0, -2.0])
        np.testing.assert_array_equal(m, np.zeros(2))
        np.testing.assert_array_equal(v, np.zeros(2))

    def test_zero_gradient_decays_moments(self):
        m = np.array([1.0])
        v = np.array([4.0])
        adam_update(np.array([0.0]), np.zeros(1), m, v, t=3, lr=0.1)
        assert m[0] == pytest.approx(0.9, rel=1e-15)
        assert v[0] == pytest.approx(4.0 * 0.999, rel=1e-15)

    def test_constant_gradient_sign_limit(self):
        # with constant g the bias-corrected moments are exactly g and g^2,
        # so every step moves by lr * g / (|g| + eps) ~= lr * sign(g)
        lr = 0.01
        grad = np.array([0.5, -2.0])
        param = np.zeros(2)
        m = np.zeros(2)
        v = np.zeros(2)
        for t in range(1, 101):
            before = param.copy()
            adam_update(param, grad, m, v, t, lr=lr)
            delta = param - before
            np.testing.assert_allclose(delta, -lr * np.sign(grad), rtol=1e-6)
        np.testing.assert_allclose(param, -lr * 100 * np.sign(grad), rtol=1e-6)


# ---------------------------------------------------------------------------
# clipping


def tensor_grads(tensors):
    """Grads with no embedding row."""
    return Grads(tensors=tensors, embedding_index=np.empty(0, dtype=np.intp),
                 embedding_grad=np.empty((0, 2)))


class TestClipGrads:
    def grads_with_norm(self):
        # two tensors of 9 and 16 ones: global norm sqrt(25) = 5
        return tensor_grads({"a": np.ones((3, 3)), "b": np.ones((4, 4))})

    def test_scales_down_to_limit(self):
        grads = self.grads_with_norm()
        pre = clip_grads(grads, clip_norm=1.0)
        assert pre == pytest.approx(5.0, rel=1e-12)
        assert grads.global_norm() <= 1.0 + 1e-9
        assert grads.global_norm() == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(grads.tensors["a"], np.full((3, 3), 0.2))

    def test_no_op_below_limit(self):
        grads = self.grads_with_norm()
        pre = clip_grads(grads, clip_norm=10.0)
        assert pre == pytest.approx(5.0, rel=1e-12)
        np.testing.assert_array_equal(grads.tensors["a"], np.ones((3, 3)))

    def test_zero_disables(self):
        grads = self.grads_with_norm()
        assert clip_grads(grads, clip_norm=0.0) == pytest.approx(5.0, rel=1e-12)
        np.testing.assert_array_equal(grads.tensors["b"], np.ones((4, 4)))

    def test_zero_grads_safe(self):
        grads = tensor_grads({"a": np.zeros(3)})
        assert clip_grads(grads, clip_norm=1.0) == 0.0

    def test_embedding_rows_included(self):
        grads = Grads(tensors={"a": np.zeros(1)}, embedding_index=np.array([5]),
                      embedding_grad=np.array([[3.0, 4.0]]))
        pre = clip_grads(grads, clip_norm=1.0)
        assert pre == pytest.approx(5.0, rel=1e-12)
        np.testing.assert_allclose(grads.embedding_grad, [[0.6, 0.8]])


class TestOptimizerStep:
    """The gathered step over the touched embedding rows against a
    row-by-row loop: bit-identical params and moments."""

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_gathered_step_matches_row_loop(self, optimizer):
        rng = np.random.default_rng(21)
        params = make_lstm()
        embedding = make_embedding(n_rows=12)
        config = TrainConfig(optimizer=optimizer, learning_rate=0.01)
        opt = train_mod._Optimizer(params, embedding, config)
        state = {}
        if optimizer == "adam":
            # non-zero moments, so a row updated by mistake shows
            opt.m_emb[...] = rng.normal(size=opt.m_emb.shape)
            opt.v_emb[...] = rng.uniform(0.1, 1.0, size=opt.v_emb.shape)
            state = {"m": {n: a.copy() for n, a in opt.m.items()},
                     "v": {n: a.copy() for n, a in opt.v.items()},
                     "m_emb": opt.m_emb.copy(), "v_emb": opt.v_emb.copy()}
        ref_params = params.copy()
        ref_rows = embedding.rows.copy()
        before = (embedding.rows.copy(), state.get("m_emb"), state.get("v_emb"))
        touched = set()
        for _ in range(3):
            picked = np.sort(rng.choice(np.arange(1, 11), size=5, replace=False))
            touched.update(int(r) for r in picked)
            grads = Grads(tensors={n: rng.normal(size=t.shape) for n, t in params.tensors().items()},
                          embedding_index=picked, embedding_grad=rng.normal(size=(5, 4)))
            row_grads = dict(zip(picked.tolist(), grads.embedding_grad))
            opt.step(params, embedding, grads)
            optimizer_step_ref(ref_params.tensors(), grads.tensors, ref_rows, row_grads,
                               state, opt.t, opt.lr, adam_update, optimizer)
            for name in params.TENSOR_NAMES:
                np.testing.assert_array_equal(getattr(params, name), getattr(ref_params, name))
            np.testing.assert_array_equal(embedding.rows, ref_rows)
            if optimizer == "adam":
                np.testing.assert_array_equal(opt.m_emb, state["m_emb"])
                np.testing.assert_array_equal(opt.v_emb, state["v_emb"])
        untouched = sorted(set(range(12)) - touched)
        np.testing.assert_array_equal(embedding.rows[untouched], before[0][untouched])
        if optimizer == "adam":
            np.testing.assert_array_equal(opt.m_emb[untouched], before[1][untouched])
            np.testing.assert_array_equal(opt.v_emb[untouched], before[2][untouched])


# ---------------------------------------------------------------------------
# training loop


class TestTrain:
    def test_returns_params_and_report(self):
        params = make_lstm()
        embedding = make_embedding()
        examples = toy_examples()
        config = TrainConfig(epochs=2, batch_size=4, seed=1)
        out_params, report = train(examples, params, embedding, config)
        assert out_params is params
        assert isinstance(report, TrainReport)
        assert len(report.epoch_losses) == 2
        assert len(report.epoch_accuracies) == 2
        assert len(report.epoch_seconds) == 2
        assert all(np.isfinite(l) and l >= 0 for l in report.epoch_losses)
        assert report.final_loss == report.epoch_losses[-1]
        assert report.final_accuracy == report.epoch_accuracies[-1]

    def test_gradient_norms_kept_per_epoch(self, caplog):
        config = TrainConfig(epochs=3, batch_size=4, seed=1)
        with caplog.at_level(logging.INFO, logger="sentilstm.train"):
            _, report = train(toy_examples(), make_lstm(), make_embedding(), config)
        assert len(report.epoch_grad_norms) == 3
        for median, top, clipped in report.epoch_grad_norms:
            assert np.isfinite(median) and np.isfinite(top) and 0.0 < median <= top
            assert 0.0 <= clipped <= 1.0
        assert caplog.text.count("of steps clipped") == 3

    @pytest.mark.parametrize("clip_norm, clipped", [(0.0, 0.0), (1e-9, 1.0)])
    def test_clip_fraction(self, clip_norm, clipped):
        config = TrainConfig(epochs=2, batch_size=4, clip_norm=clip_norm, seed=1)
        _, report = train(toy_examples(), make_lstm(), make_embedding(), config)
        assert [c for _, _, c in report.epoch_grad_norms] == [clipped, clipped]

    def test_zero_clip_norm_trains_unclipped(self, monkeypatch):
        def run(clip_norm):
            params, embedding = make_lstm(), make_embedding()
            config = TrainConfig(epochs=2, batch_size=4, clip_norm=clip_norm, seed=1)
            train(toy_examples(), params, embedding, config)
            return {**params.tensors(), "embedding": embedding.rows}

        got, clipped = run(0.0), run(1e-9)
        # the reference: every step's gradients reach the optimizer unscaled
        monkeypatch.setattr(train_mod, "clip_grads", lambda grads, clip_norm: grads.global_norm())
        want = run(5.0)
        for name, tensor in want.items():
            np.testing.assert_array_equal(got[name], tensor, err_msg=name)
        assert any(not np.array_equal(clipped[name], tensor) for name, tensor in want.items())

    def test_step_count(self):
        examples = toy_examples(n=10)
        config = TrainConfig(epochs=3, batch_size=4, seed=1)
        _, report = train(examples, make_lstm(), make_embedding(), config)
        assert report.total_steps == 3 * 3  # ceil(10/4) = 3 batches per epoch

    def test_single_batch_single_update(self):
        examples = toy_examples(n=10)
        config = TrainConfig(epochs=1, batch_size=10, seed=1)
        _, report = train(examples, make_lstm(), make_embedding(), config)
        assert report.total_steps == 1

    def test_epoch_visits_each_example_once(self, monkeypatch):
        examples = toy_examples(n=10)
        seen = []
        original = train_mod._batch_grads

        def recording(params, embedding, indices, labels):
            seen.extend(row.tobytes() for row in indices)
            return original(params, embedding, indices, labels)

        monkeypatch.setattr(train_mod, "_batch_grads", recording)
        config = TrainConfig(epochs=2, batch_size=3, seed=1)
        train(examples, make_lstm(), make_embedding(), config)
        full = sorted(row.tobytes() for row in stack(examples)[0])
        assert sorted(seen[:10]) == full
        assert sorted(seen[10:]) == full
        # shuffling actually permutes across epochs for this seed
        assert seen[:10] != seen[10:]

    def test_loss_descends_on_separable_toy(self):
        examples, _ = encoded_keyword_dataset()
        params = init_lstm_params(8, 6, seed=5)
        embedding = make_embedding(n_rows=40, dim=6, seed=5)
        config = TrainConfig(epochs=40, batch_size=8, learning_rate=0.01, seed=2)
        _, report = train(examples, params, embedding, config)
        assert report.epoch_losses[-1] <= report.epoch_losses[0]
        assert report.final_accuracy >= 0.9

    def test_deterministic(self):
        examples = toy_examples()
        config = TrainConfig(epochs=3, batch_size=4, seed=9)
        runs = []
        for _ in range(2):
            params = make_lstm(seed=2)
            embedding = make_embedding(seed=2)
            train(examples, params, embedding, config)
            runs.append((params, embedding))
        for name in runs[0][0].TENSOR_NAMES:
            assert np.array_equal(runs[0][0].tensors()[name],
                                  runs[1][0].tensors()[name])
        assert np.array_equal(runs[0][1].rows, runs[1][1].rows)

    def test_sgd_optimizer(self):
        examples = toy_examples()
        config = TrainConfig(epochs=2, batch_size=4, optimizer="sgd",
                             learning_rate=0.05, seed=1)
        _, report = train(examples, make_lstm(), make_embedding(), config)
        assert report.total_steps == 2 * 3

    def test_rnn_params_accepted(self):
        examples = toy_examples()
        params = init_rnn_params(6, 4, seed=1)
        _, report = train(examples, params, make_embedding(), TrainConfig(epochs=1, seed=1))
        assert report.total_steps == 1

    def test_embeddings_updated_by_default(self):
        # two epochs: the zero-initialized head blocks all gradient flow
        # below it on the very first update step
        examples = toy_examples()
        embedding = make_embedding()
        before = embedding.rows.copy()
        train(examples, make_lstm(), embedding, TrainConfig(epochs=2, seed=1))
        assert not np.array_equal(embedding.rows, before)
        # pad row is never touched: no pad position reaches the backward pass
        np.testing.assert_array_equal(embedding.rows[PAD_INDEX], np.zeros(4))

    def test_empty_training_set_rejected(self):
        with pytest.raises(TrainingError, match="no training examples"):
            train([], make_lstm(), make_embedding(), TrainConfig(seed=1))

    def test_all_pad_example_rejected(self):
        examples = [EncodedExample(indices=np.zeros(4, dtype=np.int32), label=0)]
        with pytest.raises(TrainingError, match="empty after masking"):
            train(examples, make_lstm(), make_embedding(), TrainConfig(seed=1))
        # the first empty example is named, whatever the lengths around it
        examples = toy_examples(n=2) + examples * 2 + [EncodedExample(
            indices=np.array([0, 0, 0, 5, 0, 0, 0], dtype=np.int32), label=1)]
        with pytest.raises(TrainingError, match="training example 2 is empty after masking"):
            train(examples, make_lstm(), make_embedding(), TrainConfig(seed=1))

    def test_dim_mismatch_rejected(self):
        examples = toy_examples()
        embedding = make_embedding(dim=7)
        with pytest.raises(TrainingError, match="does not match"):
            train(examples, make_lstm(input_dim=4), embedding, TrainConfig(seed=1))


# ---------------------------------------------------------------------------
# prediction helpers


class TestPredictAndEvaluate:
    def test_zero_params_predict_first_class(self):
        params = init_lstm_params(5, 4, seed=0)
        for tensor in params.tensors().values():
            tensor[...] = 0.0
        examples = toy_examples(n=6)
        predicted = predict_dataset(params, make_embedding(), examples)
        np.testing.assert_array_equal(predicted, np.zeros(6, dtype=np.int64))

    def test_predictions_match_forward(self):
        params = make_lstm()
        embedding = make_embedding()
        examples = toy_examples(n=8)
        predicted = predict_dataset(params, embedding, examples)
        expected = [forward(params, embedding, ex.indices).predicted
                    for ex in examples]
        np.testing.assert_array_equal(predicted, expected)

    @pytest.mark.parametrize("kind", ["lstm", "rnn"])
    @pytest.mark.parametrize("source", ["keyword", "long_range"])
    def test_batched_inference_matches_single_examples(self, kind, source, monkeypatch):
        # length-sorted chunks give each example its own label, and every
        # chunk row's probabilities are within 1e-12 of a lone forward
        rng = np.random.default_rng(31)
        if source == "keyword":
            texts, labels = keyword_corpus(n_per_class=30)
            # every text cut to its own length, so chunks mix lengths
            token_lists = [t.split()[:int(rng.integers(1, 9))] for t in texts]
            maxlen = 8
        else:
            texts, labels, _, _ = long_range_corpus(n_train=70, n_test=1)
            token_lists = [t.split() for t in texts]
            maxlen = 48
        vocab = build_vocabulary(token_lists, min_count=1)
        examples = [encode_example(t, l, vocab, maxlen) for t, l in zip(token_lists, labels)]
        params = (init_lstm_params if kind == "lstm" else init_rnn_params)(6, 4, seed=3)
        rows = rng.normal(size=(len(vocab), 4))
        rows[PAD_INDEX] = 0.0
        embedding = EmbeddingMatrix(rows=rows)
        # a few epochs, so the labels are not all one class
        train(examples, params, embedding, TrainConfig(epochs=5, learning_rate=0.05, seed=1))
        assert len(examples) > train_mod.INFERENCE_CHUNK

        chunks = []

        def recording(params, embedding, indices, **kwargs):
            trace = forward(params, embedding, indices, **kwargs)
            chunks.append((indices, trace.probs))
            return trace

        monkeypatch.setattr(train_mod, "forward", recording)
        predicted = predict_dataset(params, embedding, examples)
        monkeypatch.undo()
        assert len(chunks) == -(-len(examples) // train_mod.INFERENCE_CHUNK)
        for indices, probs in chunks:
            for row, p in zip(indices, probs):
                assert np.max(np.abs(p - forward(params, embedding, row).probs)) <= 1e-12
        np.testing.assert_array_equal(
            predicted, [forward(params, embedding, ex.indices).predicted for ex in examples])

    def test_no_examples(self):
        assert predict_dataset(make_lstm(), make_embedding(), []).shape == (0,)

    def test_evaluate_model_report(self):
        params = make_lstm()
        embedding = make_embedding()
        examples = toy_examples(n=9)
        report = evaluate_model(params, embedding, examples, averaging="micro")
        assert report.averaging == "micro"
        assert sum(report.support) == 9
        predicted = predict_dataset(params, embedding, examples)
        expected_acc = float(np.mean(predicted == [ex.label for ex in examples]))
        assert report.accuracy == pytest.approx(expected_acc, rel=1e-12)


# ---------------------------------------------------------------------------
# model files


class TestModelIO:
    def test_lstm_round_trip(self, tmp_path):
        params = make_lstm(exact=True)
        fp = bytes(range(32))
        path = tmp_path / "model.bin"
        save_model(params, path, fp, maxlen=100)
        loaded, maxlen, loaded_fp = load_model(path)
        assert type(loaded) is type(params)
        assert maxlen == 100
        assert loaded_fp == fp
        for name in params.TENSOR_NAMES:
            np.testing.assert_array_equal(loaded.tensors()[name],
                                          params.tensors()[name])

    def test_rnn_round_trip(self, tmp_path):
        params = init_rnn_params(5, 3, seed=2)
        for tensor in params.tensors().values():
            tensor[...] = f32_exact(tensor)
        path = tmp_path / "model.bin"
        save_model(params, path, b"\x07" * 32, maxlen=50)
        loaded, maxlen, _ = load_model(path)
        assert type(loaded) is type(params)
        assert maxlen == 50
        for name in params.TENSOR_NAMES:
            np.testing.assert_array_equal(loaded.tensors()[name],
                                          params.tensors()[name])

    def test_stored_precision_is_f32(self, tmp_path):
        params = make_lstm()
        path = tmp_path / "model.bin"
        save_model(params, path, b"\x00" * 32, maxlen=10)
        loaded, _, _ = load_model(path)
        for name in params.TENSOR_NAMES:
            np.testing.assert_array_equal(loaded.tensors()[name],
                                          f32_exact(params.tensors()[name]))

    def test_corrupted_byte_rejected(self, tmp_path):
        params = make_lstm()
        path = tmp_path / "model.bin"
        save_model(params, path, b"\x00" * 32, maxlen=10)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load_model(path)

    def test_truncated_rejected(self, tmp_path):
        params = make_lstm()
        path = tmp_path / "model.bin"
        save_model(params, path, b"\x00" * 32, maxlen=10)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError):
            load_model(path)

    def test_non_finite_tensor_refused(self, tmp_path):
        params = make_lstm()
        params.W_f[0, 0] = np.nan
        with pytest.raises(FormatError, match="non-finite"):
            save_model(params, tmp_path / "model.bin", b"\x00" * 32, maxlen=10)

    def test_bad_fingerprint_length_refused(self, tmp_path):
        with pytest.raises(FormatError, match="32 bytes"):
            save_model(make_lstm(), tmp_path / "model.bin", b"abc", maxlen=10)

    @pytest.mark.parametrize("change, message", [
        ({"W_f": np.zeros(10)}, "W_f shape"),            # recurrent weight not 2-D
        ({"W_f": np.zeros((6, 6))}, "W_f shape"),        # no input columns
        ({"W_i": np.zeros((6, 11))}, "W_i shape"),       # gates disagree
        ({"b_o": np.zeros(5)}, "b_o shape"),             # bias off the hidden size
        ({"head_W": np.zeros((3, 5))}, "head_W shape"),  # head off the hidden size
        ({"head_b": np.zeros(4)}, "head_b shape"),       # head bias off the classes
        ({"head_b": None}, "lstm tensors"),              # missing tensor
        ({"extra": np.zeros(2)}, "lstm tensors"),        # extra tensor
    ])
    def test_inconsistent_tensor_set_refused(self, tmp_path, change, message):
        tensors = dict(make_lstm().tensors(), **change)
        tensors = {name: t for name, t in tensors.items() if t is not None}
        path = tmp_path / "model.bin"
        binio.save(path, "lstm", b"\x00" * 32, tensors, "f32", {"maxlen": 10})
        with pytest.raises(FormatError, match=message):
            load_model(path)

    def test_missing_maxlen_refused(self, tmp_path):
        path = tmp_path / "model.bin"
        binio.save(path, "rnn", b"\x00" * 32, init_rnn_params(2, 3).tensors(), "f32")
        with pytest.raises(FormatError, match="maxlen"):
            load_model(path)

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "model.bin"
        params = make_lstm()
        save_model(params, path, b"\x00" * 32, maxlen=10)
        data = bytearray(path.read_bytes())
        data[0:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load_model(path)


# ---------------------------------------------------------------------------
# checkpoints


def keyword_checkpoint_pieces(maxlen=8, seed=4):
    examples, vocab = encoded_keyword_dataset(maxlen)
    embedding = random_embedding(vocab, dim=5, seed=seed)
    embedding.rows[...] = f32_exact(embedding.rows)
    params = init_lstm_params(6, 5, seed=seed)
    for tensor in params.tensors().values():
        tensor[...] = f32_exact(tensor)
    return examples, vocab, embedding, params


def count_parses(monkeypatch):
    """Record each parse `load_checkpoint` makes rather than reuses; returns
    the list the directories are appended to."""
    parses = []
    real_parse = train_mod._parse_checkpoint

    def recording_parse(directory, paths, blobs):
        parses.append(directory)
        return real_parse(directory, paths, blobs)

    monkeypatch.setattr(train_mod, "_parse_checkpoint", recording_parse)
    return parses


def save_keyword_checkpoint(directory, seed=4):
    _, vocab, embedding, params = keyword_checkpoint_pieces(seed=seed)
    save_checkpoint(directory, params, embedding, vocab, maxlen=8,
                    tokenizer_mode="whitespace")
    return params, embedding


def repair_digest(directory, name):
    manifest_path = directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["checksums"][name] = sha256_file(directory / name)
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def assert_same_params(left, right):
    assert type(left) is type(right)
    for name in left.TENSOR_NAMES:
        np.testing.assert_array_equal(left.tensors()[name], right.tensors()[name])


class TestCheckpoint:
    def test_model_bound_to_trained_rows_of_loaded_embeddings(self, tmp_path):
        # loaded inputs carry fingerprints of what was read; training changes
        # the rows in place, so the model must be bound to the trained ones
        examples, vocab, embedding, params = keyword_checkpoint_pieces()
        save_vocabulary(vocab, tmp_path / "vocab.tsv")
        save_embeddings(embedding, tmp_path / "embeddings.bin")
        vocab = load_vocabulary(tmp_path / "vocab.tsv")
        assert vocab.fingerprint() == binio.sha256(serialize_vocabulary(vocab).encode("utf-8"))
        embedding = load_embeddings(tmp_path / "embeddings.bin", vocab)
        untrained = embedding.fingerprint()
        train(examples, params, embedding, TrainConfig(epochs=1, batch_size=4))
        save_checkpoint(tmp_path / "ckpt", params, embedding, vocab, maxlen=8,
                        tokenizer_mode="whitespace")
        _, _, binding = load_model(tmp_path / "ckpt" / "model.bin")
        assert binding == embedding.fingerprint() != untrained
        _, loaded, _, _ = load_checkpoint(tmp_path / "ckpt")
        assert loaded.fingerprint() == binding

    def test_round_trip(self, tmp_path):
        examples, vocab, embedding, params = keyword_checkpoint_pieces()
        directory = tmp_path / "ckpt"
        save_checkpoint(directory, params, embedding, vocab, maxlen=8,
                        tokenizer_mode="whitespace", extra={"note": "test"})
        for name in ("model.bin", "embeddings.bin", "vocab.tsv", "manifest.json"):
            assert (directory / name).exists()

        loaded_params, loaded_emb, loaded_vocab, manifest = load_checkpoint(directory)
        assert manifest["kind"] == "lstm"
        assert manifest["maxlen"] == 8
        assert manifest["tokenizer"] == "whitespace"
        assert manifest["extra"] == {"note": "test"}
        assert loaded_vocab.token_to_index == vocab.token_to_index
        np.testing.assert_array_equal(loaded_emb.rows, embedding.rows)
        for name in params.TENSOR_NAMES:
            np.testing.assert_array_equal(loaded_params.tensors()[name],
                                          params.tensors()[name])

    def test_unknown_tokenizer_mode_writes_nothing(self, tmp_path):
        # a manifest naming a mode outside TOKENIZER_MODES would fail to load
        _, vocab, embedding, params = keyword_checkpoint_pieces()
        directory = tmp_path / "ckpt"
        with pytest.raises(ValueError, match="'char'"):
            save_checkpoint(directory, params, embedding, vocab, maxlen=8,
                            tokenizer_mode="char")
        assert list(tmp_path.iterdir()) == []  # not even the directory

    def test_round_trip_identical_predictions(self, tmp_path):
        examples, vocab, embedding, params = keyword_checkpoint_pieces()
        directory = tmp_path / "ckpt"
        save_checkpoint(directory, params, embedding, vocab, maxlen=8,
                        tokenizer_mode="whitespace")
        loaded_params, loaded_emb, _, _ = load_checkpoint(directory)
        rng = np.random.default_rng(0)
        for _ in range(100):
            indices = rng.integers(1, len(vocab), size=6).astype(np.int32)
            before = forward(params, embedding, indices)
            after = forward(loaded_params, loaded_emb, indices)
            assert before.predicted == after.predicted
            np.testing.assert_array_equal(before.probs, after.probs)

    def test_deterministic_bytes(self, tmp_path):
        _, vocab, embedding, params = keyword_checkpoint_pieces()
        first = tmp_path / "a"
        second = tmp_path / "b"
        for directory in (first, second):
            save_checkpoint(directory, params, embedding, vocab, maxlen=8,
                            tokenizer_mode="whitespace")
        for name in ("model.bin", "embeddings.bin", "vocab.tsv", "manifest.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_vocab_swap_detected(self, tmp_path):
        _, vocab, embedding, params = keyword_checkpoint_pieces()
        directory = tmp_path / "ckpt"
        save_checkpoint(directory, params, embedding, vocab, maxlen=8,
                        tokenizer_mode="whitespace")
        vocab_file = directory / "vocab.tsv"
        vocab_file.write_text(vocab_file.read_text() + "999\tzzzz\t1\n")
        with pytest.raises(FormatError, match="manifest checksum"):
            load_checkpoint(directory)

    def test_missing_file_detected(self, tmp_path):
        _, vocab, embedding, params = keyword_checkpoint_pieces()
        directory = tmp_path / "ckpt"
        save_checkpoint(directory, params, embedding, vocab, maxlen=8,
                        tokenizer_mode="whitespace")
        (directory / "model.bin").unlink()
        with pytest.raises(FormatError, match="missing"):
            load_checkpoint(directory)

    def test_each_file_read_once(self, tmp_path, monkeypatch):
        # the bytes checked against the manifest are the bytes parsed; a call
        # that reuses the last parse still reads all four files and hashes the
        # three that the manifest lists
        _, vocab, embedding, params = keyword_checkpoint_pieces()
        directory = tmp_path / "ckpt"
        save_checkpoint(directory, params, embedding, vocab, maxlen=8,
                        tokenizer_mode="whitespace")
        files = sorted((directory / name).read_bytes()
                       for name in ("model.bin", "embeddings.bin", "vocab.tsv"))
        real_open, real_sha256 = open, binio.sha256
        for call in ("first", "memo hit"):
            opened, hashed, parses = [], [], count_parses(monkeypatch)

            def recording_open(file, *args, **kwargs):
                opened.append(os.path.basename(file))
                return real_open(file, *args, **kwargs)

            def recording_sha256(*chunks):
                hashed.append(b"".join(bytes(chunk) for chunk in chunks))
                return real_sha256(*chunks)

            monkeypatch.setattr("builtins.open", recording_open)
            monkeypatch.setattr(binio, "sha256", recording_sha256)
            load_checkpoint(directory)
            monkeypatch.undo()
            assert sorted(opened) == ["embeddings.bin", "manifest.json", "model.bin",
                                      "vocab.tsv"], call
            assert all(blob in hashed for blob in files), call
        assert parses == [] and sorted(hashed) == files

    def test_save_reads_nothing_back(self, tmp_path, monkeypatch):
        # the manifest digests are of the bytes written, not of a re-read
        _, vocab, embedding, params = keyword_checkpoint_pieces()
        directory = tmp_path / "ckpt"
        opened = []
        real_open = open

        def recording_open(file, mode="r", *args, **kwargs):
            opened.append((os.path.basename(file), mode))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr("builtins.open", recording_open)
        save_checkpoint(directory, params, embedding, vocab, maxlen=8,
                        tokenizer_mode="whitespace")
        monkeypatch.undo()
        assert all("r" not in mode for _, mode in opened)
        manifest = json.loads((directory / "manifest.json").read_text())
        assert manifest["checksums"] == {name: sha256_file(directory / name) for name in
                                         ("model.bin", "embeddings.bin", "vocab.tsv")}

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FormatError, match="manifest"):
            load_checkpoint(tmp_path)

    def test_version_bump_rejected(self, tmp_path):
        _, vocab, embedding, params = keyword_checkpoint_pieces()
        directory = tmp_path / "ckpt"
        save_checkpoint(directory, params, embedding, vocab, maxlen=8,
                        tokenizer_mode="whitespace")
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = 2
        manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
        with pytest.raises(FormatError, match="version"):
            load_checkpoint(directory)

    def test_non_object_checksums_rejected(self, tmp_path):
        _, vocab, embedding, params = keyword_checkpoint_pieces()
        directory = tmp_path / "ckpt"
        save_checkpoint(directory, params, embedding, vocab, maxlen=8,
                        tokenizer_mode="whitespace")
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["checksums"] = list(manifest["checksums"].values())
        manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
        with pytest.raises(FormatError, match="checksums must be a JSON object"):
            load_checkpoint(directory)

    def test_embedding_substitution_detected(self, tmp_path):
        # swap in a different (valid, vocab-bound) embedding file and repair
        # the manifest digest: the model's own recorded checksum still trips
        _, vocab, embedding, params = keyword_checkpoint_pieces()
        directory = tmp_path / "ckpt"
        save_checkpoint(directory, params, embedding, vocab, maxlen=8,
                        tokenizer_mode="whitespace")

        other = random_embedding(vocab, dim=5, seed=99)
        from sentilstm.embedding import save_embeddings
        save_embeddings(other, directory / "embeddings.bin")
        repair_digest(directory, "embeddings.bin")
        with pytest.raises(FormatError, match="different embedding"):
            load_checkpoint(directory)

    def test_embedding_vocab_mismatch_on_save(self, tmp_path):
        _, vocab, embedding, params = keyword_checkpoint_pieces()
        stranger = build_vocabulary([["qq", "rr", "ss"]], min_count=1)
        bad = random_embedding(stranger, dim=5, seed=1)
        with pytest.raises(FormatError, match="does not match"):
            save_checkpoint(tmp_path / "ckpt", params, bad, vocab, maxlen=8,
                            tokenizer_mode="whitespace")


class TestCheckpointMemo:
    """`load_checkpoint` parses a checkpoint once per process: a call whose
    three file digests equal those of the last parse reuses it, and still
    reads, hashes and cross-checks everything else."""

    def test_second_load_is_a_hit_with_equal_results(self, tmp_path, monkeypatch):
        directory = tmp_path / "ckpt"
        save_keyword_checkpoint(directory)
        first = load_checkpoint(directory)
        parses = count_parses(monkeypatch)
        second = load_checkpoint(directory)
        assert parses == []
        assert_same_params(first[0], second[0])
        np.testing.assert_array_equal(first[1].rows, second[1].rows)
        assert first[1].vocab_fingerprint == second[1].vocab_fingerprint
        assert first[2] == second[2] and first[2].fingerprint() == second[2].fingerprint()
        assert first[3] == second[3]

    def test_returned_arrays_do_not_reach_the_memo(self, tmp_path):
        directory = tmp_path / "ckpt"
        params, embedding = save_keyword_checkpoint(directory)
        loaded_params, loaded_emb, _, _ = load_checkpoint(directory)
        for tensor in loaded_params.tensors().values():
            tensor += 1.0
        loaded_emb.rows[...] = 7.0
        again_params, again_emb, _, _ = load_checkpoint(directory)
        assert_same_params(again_params, params)
        np.testing.assert_array_equal(again_emb.rows, embedding.rows)
        assert again_emb.fingerprint() == embedding.fingerprint()

    def test_checkpoint_replaced_in_place_is_picked_up(self, tmp_path, monkeypatch):
        directory = tmp_path / "ckpt"
        save_keyword_checkpoint(directory, seed=4)
        load_checkpoint(directory)
        params, embedding = save_keyword_checkpoint(directory, seed=5)
        parses = count_parses(monkeypatch)
        loaded_params, loaded_emb, _, _ = load_checkpoint(directory)
        assert parses == [directory]
        assert_same_params(loaded_params, params)
        np.testing.assert_array_equal(loaded_emb.rows, embedding.rows)

    def test_failed_parse_is_retried(self, tmp_path, monkeypatch):
        # files that match their digests but do not parse together: another
        # valid embedding file, the digest repaired
        directory = tmp_path / "ckpt"
        _, vocab, _, _ = keyword_checkpoint_pieces()
        save_keyword_checkpoint(directory)
        save_embeddings(random_embedding(vocab, dim=5, seed=99), directory / "embeddings.bin")
        repair_digest(directory, "embeddings.bin")
        parses = count_parses(monkeypatch)
        for _ in range(2):
            with pytest.raises(FormatError, match="different embedding"):
                load_checkpoint(directory)
        assert parses == [directory, directory]

    @pytest.mark.parametrize("repair", [False, True], ids=["stale-digest", "repaired-digest"])
    @pytest.mark.parametrize("name", ["model.bin", "embeddings.bin", "vocab.tsv"])
    def test_flipped_byte_after_a_hit_refused(self, name, repair, tmp_path):
        directory = tmp_path / "ckpt"
        save_keyword_checkpoint(directory)
        load_checkpoint(directory)
        load_checkpoint(directory)
        data = bytearray((directory / name).read_bytes())
        offset = len(data) // 2
        if name == "vocab.tsv":
            # a byte of a token or count: "\n" flipped to "\v" still splits the
            # same lines, so it reads as the same vocabulary, hit or miss
            offset = data.index(b"\t", offset) + 1
        data[offset] ^= 0x01
        (directory / name).write_bytes(bytes(data))
        if repair:
            repair_digest(directory, name)
        with pytest.raises(FormatError, match=None if repair else "manifest checksum"):
            load_checkpoint(directory)

    @pytest.mark.parametrize("key, value", [
        ("kind", "rnn"), ("hidden", 7), ("input_dim", 3), ("classes", 9), ("maxlen", 9),
        ("hidden", 6.0), ("maxlen", 8.0), ("classes", None),
    ])
    def test_manifest_model_field_checked_on_a_hit(self, key, value, tmp_path, monkeypatch):
        directory = tmp_path / "ckpt"
        save_keyword_checkpoint(directory)  # an LSTM with hidden 6, input_dim 5, maxlen 8
        load_checkpoint(directory)
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest[key] = value
        manifest_path.write_text(json.dumps(manifest))
        parses = count_parses(monkeypatch)
        with pytest.raises(FormatError, match=f"manifest {key} disagrees with model file"):
            load_checkpoint(directory)
        assert parses == []
