"""Tests for the classical baselines: count featurization, TF-IDF formula,
Naive Bayes against brute-force Bayes rule, logistic regression gradients,
and the kind-tagged baseline file format."""

import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from sentilstm import binio
from sentilstm.baselines import (LogRegConfig, LogRegModel, NaiveBayesModel,
                                 _loss_and_grad, count_features, load_baseline, logreg_fit,
                                 logreg_predict, naive_bayes_fit,
                                 naive_bayes_predict, save_baseline, tfidf_fit,
                                 tfidf_transform)
from sentilstm.cli import main
from sentilstm.corpus import (EncodedExample, build_vocabulary, load_encoded,
                              load_vocabulary)
from sentilstm.embedding import EmbeddingMatrix
from sentilstm.errors import FormatError, TrainingError
from sentilstm.nnet import RnnParams, init_rnn_params
from sentilstm.train import TrainConfig, train

from oracles import (count_features_ref, finite_difference, logreg_fit_ref,
                     logreg_loss_and_grad_ref, naive_bayes_fit_ref, relative_error)
from synthetic import keyword_corpus, write_csv


def csr(rows):
    return sparse.csr_matrix(np.asarray(rows, dtype=np.float64))


def assert_same_bits(actual, expected):
    """Equal dtype, shape and every bit (so also -0.0 against 0.0)."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape)
    assert np.ascontiguousarray(actual).tobytes() == np.ascontiguousarray(expected).tobytes()


def assert_same_csr(actual, expected):
    assert sparse.isspmatrix_csr(actual)
    assert actual.shape == expected.shape
    for name in ("data", "indices", "indptr"):
        assert_same_bits(getattr(actual, name), getattr(expected, name))


# token sequences: ragged Python lists or int32 arrays, empty ones included,
# with pad (0), unknown (1) and every vocabulary index
@st.composite
def sequences_and_width(draw, min_rows=0):
    n_tokens = draw(st.integers(1, 9))
    seqs = draw(st.lists(st.lists(st.integers(0, n_tokens + 1), max_size=12),
                         min_size=min_rows, max_size=25))
    if draw(st.booleans()):
        seqs = [np.array(seq, dtype=np.int32) for seq in seqs]
    return seqs, n_tokens


@st.composite
def labelled_counts(draw, every_class):
    seqs, n_tokens = draw(sequences_and_width(min_rows=3 if every_class else 1))
    labels = draw(st.lists(st.integers(0, 2), min_size=len(seqs), max_size=len(seqs)))
    if every_class:
        labels[:3] = draw(st.permutations([0, 1, 2]))
    return count_features(seqs, n_tokens), np.array(labels)


# ---------------------------------------------------------------------------
# featurization


class TestCountFeatures:
    def test_counts_by_shifted_vocab_index(self):
        # vocab index j lands in column j-2
        X = count_features([[2, 2, 3, 5], [4]], n_tokens=4)
        assert X.shape == (2, 4)
        np.testing.assert_array_equal(
            X.toarray(), [[2, 1, 0, 1], [0, 0, 1, 0]])

    def test_pad_and_unk_excluded(self):
        X = count_features([[0, 1, 0, 1, 2]], n_tokens=2)
        np.testing.assert_array_equal(X.toarray(), [[1, 0]])

    def test_empty_sequence_zero_row(self):
        X = count_features([[], [2]], n_tokens=1)
        np.testing.assert_array_equal(X.toarray(), [[0], [1]])

    def test_no_sequences(self):
        X = count_features([], n_tokens=3)
        assert X.shape == (0, 3)

    def test_sparse_csr_float(self):
        X = count_features([[2, 3]], n_tokens=2)
        assert sparse.isspmatrix_csr(X)
        assert X.dtype == np.float64

    def test_out_of_range_index_rejected(self):
        with pytest.raises(TrainingError, match="out of range"):
            count_features([[2, 9]], n_tokens=3)

    def test_out_of_range_names_first_offending_sequence(self):
        # two offending sequences with different maxima: the message names
        # the largest index of the first, word for word as the reference
        seqs = [[2, 3], [2, 7, 9, 4], [12, 2]]
        with pytest.raises(ValueError) as ref:
            count_features_ref(seqs, n_tokens=3)
        with pytest.raises(TrainingError) as exc:
            count_features(seqs, n_tokens=3)
        assert str(exc.value) == str(ref.value) == "token index 9 out of range for vocabulary of 3"

    def test_non_integer_index_rejected(self):
        with pytest.raises(TrainingError, match="integers"):
            count_features([[2, 3.5]], n_tokens=3)

    def test_accepts_numpy_sequences(self):
        X = count_features([np.array([2, 3, 3], dtype=np.int32)], n_tokens=2)
        np.testing.assert_array_equal(X.toarray(), [[1, 2]])

    @pytest.mark.parametrize("seqs, n_tokens", [
        ([[2, 3, 3], [], [4, 0, 1, 2], [5]], 4),
        ([np.array(s, dtype=np.int32) for s in ([2, 3, 3], [], [4, 0, 1, 2], [5])], 4),
        ([], 4),
        ([[], []], 4),
        ([[0, 1, 0]], 4),
        ([[0, 1], []], 0),
    ], ids=["ragged-lists", "int32-arrays", "empty-input", "empty-sequences", "pad-and-unk",
            "no-vocabulary"])
    def test_matches_reference(self, seqs, n_tokens):
        assert_same_csr(count_features(seqs, n_tokens), count_features_ref(seqs, n_tokens))

    @settings(max_examples=150, deadline=None)
    @given(sequences_and_width())
    def test_matches_reference_property(self, case):
        seqs, n_tokens = case
        assert_same_csr(count_features(seqs, n_tokens), count_features_ref(seqs, n_tokens))

    @settings(max_examples=100, deadline=None)
    @given(sequences_and_width(min_rows=1), st.integers(1, 4))
    def test_out_of_range_matches_reference_property(self, case, overshoot):
        seqs, n_tokens = case
        # the middle and the last sequence get an index past the vocabulary
        # (the same sequence when there is one)
        seqs = [list(map(int, seq)) for seq in seqs]
        seqs[len(seqs) // 2].append(n_tokens + 1 + overshoot)
        seqs[-1].append(n_tokens + 2)
        with pytest.raises(ValueError) as ref:
            count_features_ref(seqs, n_tokens)
        with pytest.raises(TrainingError) as exc:
            count_features(seqs, n_tokens)
        assert str(exc.value) == str(ref.value)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 9), st.integers(0, 12), st.integers(0, 6), st.data())
    def test_block_matches_its_rows(self, n_tokens, n_rows, width, data):
        # an (N, T) block, pads and out-of-range indices included, counts (or is
        # refused) exactly as the list of its rows
        block = np.array(data.draw(st.lists(
            st.lists(st.integers(0, n_tokens + 3), min_size=width, max_size=width),
            min_size=n_rows, max_size=n_rows)), dtype=np.int32).reshape(n_rows, width)
        try:
            want = count_features(list(block), n_tokens)
        except TrainingError as exc:
            with pytest.raises(TrainingError) as got:
                count_features(block, n_tokens)
            assert str(got.value) == str(exc)
        else:
            assert_same_csr(count_features(block, n_tokens), want)


# ---------------------------------------------------------------------------
# tf-idf


class TestTfidf:
    def test_everywhere_token_hits_idf_floor(self):
        # df == N: idf = ln(1) + 1 = 1 exactly
        counts = csr([[1, 1], [1, 0], [2, 0]])
        idf = tfidf_fit(counts)
        assert idf[0] == 1.0
        assert idf[1] == pytest.approx(math.log(4 / 2) + 1, rel=1e-15)

    def test_single_doc_single_token_normalizes_to_one(self):
        counts = csr([[3]])
        idf = tfidf_fit(counts)
        X = tfidf_transform(idf, counts)
        np.testing.assert_allclose(X.toarray(), [[1.0]])

    def test_matches_brute_force_formula(self):
        rng = np.random.default_rng(5)
        dense = rng.integers(0, 4, size=(20, 7)).astype(np.float64)
        counts = csr(dense)
        fitted = tfidf_fit(counts)
        X = tfidf_transform(fitted, counts).toarray()

        n_docs = dense.shape[0]
        df = (dense > 0).sum(axis=0)
        idf = np.log((1.0 + n_docs) / (1.0 + df)) + 1.0
        expected = dense * idf
        for i in range(n_docs):
            norm = np.linalg.norm(expected[i])
            if norm > 0:
                expected[i] /= norm
        np.testing.assert_allclose(X, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fitted, idf, rtol=0, atol=1e-12)

    def test_l2_rows_unit_norm(self):
        rng = np.random.default_rng(6)
        counts = csr(rng.integers(0, 3, size=(15, 6)))
        X = tfidf_transform(tfidf_fit(counts), counts)
        norms = np.linalg.norm(X.toarray(), axis=1)
        nonzero = np.asarray(counts.sum(axis=1)).ravel() > 0
        np.testing.assert_allclose(norms[nonzero], 1.0, atol=1e-9)
        assert np.all(norms[~nonzero] == 0.0)

    def test_idf_nonnegative_and_finite(self):
        rng = np.random.default_rng(7)
        counts = csr(rng.integers(0, 5, size=(30, 9)))
        idf = tfidf_fit(counts)
        assert np.all(np.isfinite(idf))
        assert np.all(idf >= 0)

    def test_empty_matrix_rejected(self):
        with pytest.raises(TrainingError, match="empty"):
            tfidf_fit(csr(np.zeros((0, 3))))

    def test_width_mismatch_rejected(self):
        idf = tfidf_fit(csr([[1, 2]]))
        with pytest.raises(TrainingError, match="does not match"):
            tfidf_transform(idf, csr([[1, 2, 3]]))


# ---------------------------------------------------------------------------
# naive bayes


class TestNaiveBayes:
    def test_disjoint_vocabularies_separate_perfectly(self):
        counts = csr([[2, 0, 0], [0, 3, 0], [0, 0, 1]])
        labels = [0, 1, 2]
        model = naive_bayes_fit(counts, labels)
        np.testing.assert_array_equal(naive_bayes_predict(model, counts), labels)

    def test_likelihood_rows_normalize(self):
        rng = np.random.default_rng(8)
        counts = csr(rng.integers(0, 4, size=(12, 5)))
        labels = rng.integers(0, 3, size=12)
        labels[:3] = [0, 1, 2]  # every class present
        model = naive_bayes_fit(counts, labels)
        sums = np.exp(model.log_likelihood).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_matches_brute_force_bayes(self):
        rng = np.random.default_rng(9)
        dense = rng.integers(0, 4, size=(15, 6)).astype(np.float64)
        labels = np.array([i % 3 for i in range(15)])
        alpha = 1.0
        model = naive_bayes_fit(csr(dense), labels, alpha=alpha)

        n_docs, n_tokens = dense.shape
        for c in range(3):
            class_docs = dense[labels == c]
            prior = len(class_docs) / n_docs
            assert model.log_prior[c] == pytest.approx(math.log(prior), abs=1e-10)
            token_totals = class_docs.sum(axis=0)
            denom = token_totals.sum() + alpha * n_tokens
            for t in range(n_tokens):
                expected = math.log((token_totals[t] + alpha) / denom)
                assert model.log_likelihood[c, t] == pytest.approx(expected, abs=1e-10)

        # prediction equals argmax of the brute-force posterior scores
        scores = dense @ model.log_likelihood.T + model.log_prior
        np.testing.assert_array_equal(naive_bayes_predict(model, csr(dense)),
                                      scores.argmax(axis=1))

    def test_huge_alpha_defers_to_priors(self):
        counts = csr([[5, 0], [0, 5], [1, 1], [2, 2], [3, 1], [0, 3]])
        labels = [0, 1, 2, 2, 2, 1]  # class 2 is the most common
        model = naive_bayes_fit(counts, labels, alpha=1e9)
        predictions = naive_bayes_predict(model, counts)
        np.testing.assert_array_equal(predictions, np.full(6, 2))

    def test_exact_tie_breaks_to_lowest_class(self):
        counts = csr([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        model = naive_bayes_fit(counts, [0, 1, 2])
        # a token-free document scores log-prior only: a three-way exact tie
        empty = csr([[0, 0, 0]])
        assert naive_bayes_predict(model, empty)[0] == 0

    def test_missing_class_rejected(self):
        counts = csr([[1, 0], [0, 1]])
        with pytest.raises(TrainingError, match="class"):
            naive_bayes_fit(counts, [0, 1])

    def test_label_row_mismatch_rejected(self):
        with pytest.raises(TrainingError, match="rows"):
            naive_bayes_fit(csr([[1], [1]]), [0, 1, 2])

    @settings(max_examples=150, deadline=None)
    @given(labelled_counts(every_class=True), st.sampled_from([1.0, 0.5, 1e-3]))
    def test_matches_reference_property(self, case, alpha):
        counts, labels = case
        model = naive_bayes_fit(counts, labels, alpha=alpha)
        log_prior, log_likelihood = naive_bayes_fit_ref(counts, labels, alpha=alpha)
        assert_same_bits(model.log_prior, log_prior)
        assert_same_bits(model.log_likelihood, log_likelihood)


# ---------------------------------------------------------------------------
# logistic regression


class TestLogReg:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            LogRegConfig(iterations=0)
        with pytest.raises(ValueError):
            LogRegConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            LogRegConfig(l2=-1e-3)

    @staticmethod
    def kernel(X, labels, l2):
        """The loss and gradients of (W.T, b), as the fit loop calls them."""
        XT = X.T.tocsr()
        one_hot = np.eye(3)[labels]
        return lambda Wt, b: _loss_and_grad(Wt, b, X, XT, one_hot, l2)

    def test_zero_weights_uniform_loss(self):
        X = csr([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        loss, _, _ = self.kernel(X, np.array([0, 1, 2]), l2=0.0)(np.zeros((2, 3)), np.zeros(3))
        assert loss == pytest.approx(math.log(3.0), rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        X = csr(rng.normal(size=(9, 4)))
        labels = np.array([i % 3 for i in range(9)])
        Wt = rng.normal(scale=0.5, size=(4, 3))
        b = rng.normal(scale=0.5, size=3)
        loss_and_grad = self.kernel(X, labels, l2=0.01)
        _, grad_Wt, grad_b = loss_and_grad(Wt, b)
        num_Wt = finite_difference(lambda: loss_and_grad(Wt, b)[0], Wt)
        num_b = finite_difference(lambda: loss_and_grad(Wt, b)[0], b)
        assert relative_error(grad_Wt, num_Wt) < 1e-5
        assert relative_error(grad_b, num_b) < 1e-5

    def test_kernel_matches_reference(self):
        # the gradient bit for bit, the loss to rounding (its sums run in
        # another order)
        rng = np.random.default_rng(15)
        X = csr(rng.normal(size=(11, 4)) * (rng.random((11, 4)) < 0.5))
        labels = np.array([i % 3 for i in range(11)])
        Wt = rng.normal(scale=0.5, size=(4, 3))
        b = rng.normal(scale=0.5, size=3)
        loss, grad_Wt, grad_b = self.kernel(X, labels, l2=0.01)(Wt, b)
        ref_loss, ref_grad_W, ref_grad_b = logreg_loss_and_grad_ref(Wt.T, b, X, labels, 0.01)
        assert_same_bits(grad_Wt, ref_grad_W.T)
        assert_same_bits(grad_b, ref_grad_b)
        assert loss == pytest.approx(ref_loss, rel=1e-13)

    def test_loss_decreases_monotonically_small_steps(self):
        rng = np.random.default_rng(11)
        X = csr(rng.normal(size=(12, 3)))
        labels = np.array([i % 3 for i in range(12)])
        loss_and_grad = self.kernel(X, labels, l2=1e-4)
        Wt = np.zeros((3, 3))
        b = np.zeros(3)
        losses = []
        for _ in range(50):
            loss, grad_Wt, grad_b = loss_and_grad(Wt, b)
            losses.append(loss)
            Wt -= 0.1 * grad_Wt
            b -= 0.1 * grad_b
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_separable_toy_reaches_full_accuracy(self):
        # raw counts in: the fit does its own tf-idf transform
        counts = csr([[3, 0], [4, 0], [0, 3], [0, 5], [2, 2], [1, 1]])
        labels = np.array([0, 0, 1, 1, 2, 2])
        model = logreg_fit(counts, labels)
        np.testing.assert_array_equal(logreg_predict(model, counts), labels)

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        counts = csr(rng.integers(0, 4, size=(15, 5)))
        labels = np.array([i % 3 for i in range(15)])
        a = logreg_fit(counts, labels)
        b = logreg_fit(counts, labels)
        np.testing.assert_array_equal(a.W, b.W)
        np.testing.assert_array_equal(a.b, b.b)
        np.testing.assert_array_equal(a.idf, b.idf)

    def test_predict_transforms_with_stored_idf(self):
        counts = csr([[2, 0], [0, 2], [1, 1]])
        labels = np.array([0, 1, 2])
        model = logreg_fit(counts, labels)
        X = tfidf_transform(model.idf, counts)
        scores = np.asarray(X.dot(model.W.T)) + model.b
        np.testing.assert_array_equal(logreg_predict(model, counts),
                                      scores.argmax(axis=1))

    def test_label_row_mismatch_rejected(self):
        with pytest.raises(TrainingError, match="rows"):
            logreg_fit(csr([[1], [1]]), [0])

    @settings(max_examples=100, deadline=None)
    @given(labelled_counts(every_class=False), st.integers(1, 40))
    def test_matches_reference_property(self, case, iterations):
        counts, labels = case
        model = logreg_fit(counts, labels, LogRegConfig(iterations=iterations))
        W, b, idf, _ = logreg_fit_ref(counts, labels, iterations=iterations)
        assert_same_bits(model.W, W)
        assert_same_bits(model.b, b)
        assert_same_bits(model.idf, idf)

    def test_matches_reference_at_default_config(self, caplog):
        rng = np.random.default_rng(16)
        seqs = [rng.integers(0, 42, size=rng.integers(0, 15)) for _ in range(120)]
        counts = count_features(seqs, 40)
        labels = rng.integers(0, 3, size=120)
        with caplog.at_level(logging.INFO, logger="sentilstm.baselines"):
            model = logreg_fit(counts, labels)
        W, b, idf, loss = logreg_fit_ref(counts, labels)
        assert_same_bits(model.W, W)
        assert_same_bits(model.b, b)
        assert_same_bits(model.idf, idf)
        assert f"final loss {loss:.4f} after 300 iterations" in caplog.text


# ---------------------------------------------------------------------------
# labels


@pytest.mark.parametrize("fit", [naive_bayes_fit, logreg_fit])
@pytest.mark.parametrize("bad", [-1, 3, 2.7])
def test_label_outside_classes_rejected(fit, bad):
    # -1 was class 2 to logreg and left NB priors summing to 0.75; 3 was an
    # IndexError; 2.7 was truncated to 2
    counts = csr([[1, 0], [0, 1], [1, 1], [2, 0], [0, 2]])
    with pytest.raises(TrainingError, match=rf"^label {bad} in row 3 is not a class"):
        fit(counts, [0, 1, 2, bad, 1])


def test_compare_saves_the_reference_baselines(tmp_path):
    data = tmp_path / "corpus.csv"
    texts, labels = keyword_corpus(n_per_class=10)
    write_csv(data, texts, labels)
    flags = ["--data", str(data), "--min-count", "1", "--maxlen", "8", "--seed", "3", "--quiet"]
    assert main(["preprocess", "--output-dir", str(tmp_path / "prep")] + flags) == 0
    assert main(["compare", "--output-dir", str(tmp_path / "cmp"), "--random-init",
                 "--dim", "4", "--hidden", "4", "--epochs", "1"] + flags) == 0
    # compare splits and encodes as preprocess does
    examples, _ = load_encoded(tmp_path / "prep" / "train.tsv")
    n_tokens = load_vocabulary(tmp_path / "prep" / "vocab.tsv").n_tokens
    counts = count_features_ref([ex.indices for ex in examples], n_tokens)
    train_labels = [int(ex.label) for ex in examples]
    nb = load_baseline(tmp_path / "cmp" / "baselines" / "naive_bayes.bin")
    log_prior, log_likelihood = naive_bayes_fit_ref(counts, train_labels)
    assert_same_bits(nb.log_prior, log_prior)
    assert_same_bits(nb.log_likelihood, log_likelihood)
    lr = load_baseline(tmp_path / "cmp" / "baselines" / "logreg.bin")
    W, b, idf, _ = logreg_fit_ref(counts, train_labels)
    assert_same_bits(lr.W, W)
    assert_same_bits(lr.b, b)
    assert_same_bits(lr.idf, idf)


# ---------------------------------------------------------------------------
# vanilla-RNN classifier


class TestRnnClassifier:
    def test_trains_through_shared_loop(self):
        rng = np.random.default_rng(13)
        rows = rng.uniform(-0.3, 0.3, size=(10, 4))
        rows[0] = 0.0
        embedding = EmbeddingMatrix(rows=rows)
        examples = [EncodedExample(indices=np.array([2 + i % 3, 5, 6], dtype=np.int32),
                                   label=i % 3) for i in range(9)]
        params, report = train(examples, init_rnn_params(5, embedding.dim, seed=(1, 7)),
                               embedding, TrainConfig(epochs=2, seed=1))
        assert isinstance(params, RnnParams)
        assert params.hidden == 5
        assert report.total_steps == 2

    def test_seed_controls_init(self):
        rng = np.random.default_rng(14)
        rows = rng.uniform(-0.3, 0.3, size=(8, 3))
        rows[0] = 0.0
        embedding = EmbeddingMatrix(rows=rows)
        examples = [EncodedExample(indices=np.array([2, 3], dtype=np.int32), label=0),
                    EncodedExample(indices=np.array([4, 5], dtype=np.int32), label=1),
                    EncodedExample(indices=np.array([6, 7], dtype=np.int32), label=2)]
        a, _ = train(examples, init_rnn_params(4, embedding.dim, seed=(3, 7)),
                     embedding.copy(), TrainConfig(epochs=1, seed=3))
        b, _ = train(examples, init_rnn_params(4, embedding.dim, seed=(3, 7)),
                     embedding.copy(), TrainConfig(epochs=1, seed=3))
        np.testing.assert_array_equal(a.W, b.W)


# ---------------------------------------------------------------------------
# serialization


def small_vocab():
    return build_vocabulary([["aa", "bb", "cc"]], min_count=1)


def nb_model(n_tokens):
    return NaiveBayesModel(log_prior=np.log(np.full(3, 1 / 3)),
                           log_likelihood=np.log(np.full((3, n_tokens), 1 / n_tokens)))


class TestBaselineIO:
    def fingerprint(self):
        return bytes(range(32))

    def test_naive_bayes_round_trip(self, tmp_path):
        counts = csr([[2, 0, 1], [0, 3, 0], [1, 0, 2]])
        model = naive_bayes_fit(counts, [0, 1, 2])
        path = tmp_path / "nb.bin"
        save_baseline(model, path, self.fingerprint())
        loaded = load_baseline(path)
        assert isinstance(loaded, NaiveBayesModel)
        np.testing.assert_array_equal(loaded.log_prior, model.log_prior)
        np.testing.assert_array_equal(loaded.log_likelihood, model.log_likelihood)

    def test_logreg_round_trip(self, tmp_path):
        counts = csr([[2, 0], [0, 2], [1, 1]])
        model = logreg_fit(counts, np.array([0, 1, 2]),
                           LogRegConfig(iterations=20))
        path = tmp_path / "lr.bin"
        save_baseline(model, path, self.fingerprint())
        loaded = load_baseline(path)
        assert isinstance(loaded, LogRegModel)
        np.testing.assert_array_equal(loaded.W, model.W)
        np.testing.assert_array_equal(loaded.b, model.b)
        np.testing.assert_array_equal(loaded.idf, model.idf)
        np.testing.assert_array_equal(logreg_predict(loaded, counts),
                                      logreg_predict(model, counts))

    def test_vocab_binding(self, tmp_path):
        vocab = small_vocab()
        other = build_vocabulary([["xx", "yy"]], min_count=1)
        model = nb_model(vocab.n_tokens)
        path = tmp_path / "nb.bin"
        save_baseline(model, path, vocab.fingerprint())
        assert isinstance(load_baseline(path, vocab=vocab), NaiveBayesModel)
        with pytest.raises(FormatError, match="different vocabulary"):
            load_baseline(path, vocab=other)

    def test_corrupted_byte_rejected(self, tmp_path):
        model = nb_model(4)
        path = tmp_path / "nb.bin"
        save_baseline(model, path, self.fingerprint())
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x10
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load_baseline(path)

    def test_truncated_rejected(self, tmp_path):
        model = nb_model(4)
        path = tmp_path / "nb.bin"
        save_baseline(model, path, self.fingerprint())
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(FormatError):
            load_baseline(path)

    @pytest.mark.parametrize("kind, tensors, message", [
        # a 2-class Naive Bayes and a 5-class logreg: both loaded, and logreg
        # predicted label 4, before the class axis was checked
        ("naive-bayes", {"log_prior": np.zeros(2), "log_likelihood": np.zeros((2, 4))},
         r"naive-bayes log_prior shape \(2,\) != \(3,\)"),
        ("logreg", {"W": np.zeros((5, 4)), "b": np.zeros(5), "idf": np.ones(4)},
         r"logreg W shape \(5, 4\) != \(3, 4\)"),
        ("naive-bayes", {"log_prior": np.zeros(3), "log_likelihood": np.zeros((2, 4))},
         r"naive-bayes log_likelihood shape \(2, 4\) != \(3, 4\)"),
        ("naive-bayes", {"log_prior": np.zeros((3, 1)), "log_likelihood": np.zeros((3, 4))},
         r"naive-bayes log_prior shape \(3, 1\) != \(3,\)"),
        ("logreg", {"W": np.zeros((3, 4)), "b": np.zeros(2), "idf": np.ones(4)},
         r"logreg b shape \(2,\) != \(3,\)"),
        ("logreg", {"W": np.zeros((3, 4)), "b": np.zeros(3), "idf": np.ones(5)},
         r"logreg idf shape \(5,\) != \(4,\)"),
        ("logreg", {"W": np.zeros(3), "b": np.zeros(3), "idf": np.ones(3)},
         r"logreg W shape \(3,\) != \(3, 3\)"),
    ])
    def test_class_axis_and_shapes_checked(self, tmp_path, kind, tensors, message):
        path = tmp_path / "model.bin"
        binio.save(path, kind, self.fingerprint(), tensors, "f64")
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}: {message}$"):
            load_baseline(path)

    def test_unknown_kind_rejected(self, tmp_path):
        # well-formed container with an unrecognized kind tag
        path = tmp_path / "bad.bin"
        binio.save(path, "svm", self.fingerprint(), {}, "f64")
        with pytest.raises(FormatError, match="unknown artifact kind 'svm'"):
            load_baseline(path)

    def test_bad_fingerprint_length_refused(self, tmp_path):
        with pytest.raises(FormatError, match="32 bytes"):
            save_baseline(nb_model(2), tmp_path / "t.bin", b"xx")

    def test_unsupported_model_type(self, tmp_path):
        with pytest.raises(TypeError):
            save_baseline(object(), tmp_path / "t.bin", self.fingerprint())
