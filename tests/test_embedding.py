"""Tests for skip-gram embeddings: pair generation, negative sampling,
gradients against finite differences, training behavior, and file IO."""

import re

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import sentilstm.embedding as embedding
from sentilstm.corpus import PAD_INDEX, UNK_INDEX, build_vocabulary
from sentilstm.embedding import (EmbeddingConfig, EmbeddingMatrix, generate_pairs,
                                 load_embeddings, random_embedding, save_embeddings,
                                 sgns_gradient, train_skipgram)
from sentilstm.errors import FormatError, TrainingError

from oracles import finite_difference, relative_error, sgns_loss_ref, skipgram_ref
from synthetic import cooccurrence_corpus


def small_vocab(tokens=("aa", "bb", "cc", "dd")):
    # one sentence repeating each token once; min_count=1 keeps everything
    return build_vocabulary([list(tokens)], min_count=1)


SKEWED = ["aa"] * 40 + ["bb"] * 20 + ["cc"] * 10 + ["dd"] * 5 + ["ee"] * 2


def skewed_vocab():
    return build_vocabulary([SKEWED], min_count=1)


# ---------------------------------------------------------------------------
# configuration


class TestEmbeddingConfig:
    def test_defaults(self):
        config = EmbeddingConfig()
        assert config.dim == 100
        assert config.window == 7
        assert config.min_count == 10
        assert config.iterations == 10
        assert config.negatives == 5
        assert config.learning_rate == 0.025

    @pytest.mark.parametrize("kwargs", [
        {"dim": 0},
        {"window": 0},
        {"min_count": 0},
        {"iterations": 0},
        {"negatives": -1},
        {"learning_rate": 0.0},
        {"learning_rate": -0.1},
        {"window": 2 ** 63},  # numpy draws the window widths as int64
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            EmbeddingConfig(**kwargs)

    def test_zero_negatives_allowed(self):
        assert EmbeddingConfig(negatives=0).negatives == 0


# ---------------------------------------------------------------------------
# pair generation


def replay_pairs(sequences, window, seed):
    """Independent re-enumeration of the expected pair stream: drop pad/unk,
    close ranks, one width draw per center position from the replayed rng."""
    rng = np.random.default_rng(seed)
    out = []
    for seq in sequences:
        tokens = [int(t) for t in seq if int(t) not in (PAD_INDEX, UNK_INDEX)]
        for p in range(len(tokens)):
            w = int(rng.integers(1, window + 1))
            for q in range(len(tokens)):
                if q != p and abs(q - p) <= w:
                    out.append((tokens[p], tokens[q]))
    return out


def as_tuples(pairs):
    return [tuple(p) for p in np.asarray(pairs).tolist()]


class TestGeneratePairs:
    def test_returns_integer_array_of_pairs(self):
        pairs = generate_pairs([[2, 3, 4], [5]], window=2, seed=0)
        assert pairs.ndim == 2 and pairs.shape[1] == 2
        assert np.issubdtype(pairs.dtype, np.integer)
        assert generate_pairs([], window=2, seed=0).shape == (0, 2)

    def test_window_one_adjacency(self):
        # indices: aa=2, bb=3, cc=4 (equal counts, alphabetical tie-break)
        pairs = set(as_tuples(generate_pairs([[2, 3, 4]], window=1, seed=0)))
        assert pairs == {(2, 3), (3, 2), (3, 4), (4, 3)}

    def test_single_token_no_pairs(self):
        assert as_tuples(generate_pairs([[5]], window=3, seed=0)) == []

    def test_empty_corpus(self):
        assert as_tuples(generate_pairs([], window=3, seed=0)) == []

    def test_pad_and_unk_excluded_and_ranks_close(self):
        # [2, pad, 3] collapses to [2, 3]: the pair (2, 3) appears even
        # though the raw positions are 2 apart and the window is 1
        pairs = set(as_tuples(generate_pairs([[2, PAD_INDEX, 3]], window=1, seed=0)))
        assert pairs == {(2, 3), (3, 2)}
        pairs = set(as_tuples(generate_pairs([[2, UNK_INDEX, 3]], window=1, seed=0)))
        assert pairs == {(2, 3), (3, 2)}

    def test_all_pad_sequence(self):
        assert as_tuples(generate_pairs([[PAD_INDEX] * 4], window=2, seed=0)) == []

    def test_matches_brute_force_replay(self):
        sequences = [[2, 3, 4, 5, 6], [3, 3, 7], [8]]
        for seed in range(5):
            got = as_tuples(generate_pairs(sequences, window=7, seed=(seed, 9)))
            assert got == replay_pairs(sequences, 7, (seed, 9))

    def test_matches_replay_on_random_corpora(self):
        # array draws per sequence replay one scalar width draw per position,
        # across sequence lengths 0..12, pads and unks
        rng = np.random.default_rng(2024)
        for case in range(200):
            sequences = [rng.integers(0, 9, size=rng.integers(0, 13)).tolist()
                         for _ in range(rng.integers(0, 6))]
            window = int(rng.integers(1, 8))
            got = as_tuples(generate_pairs(sequences, window, seed=(case, 3)))
            assert got == replay_pairs(sequences, window, (case, 3)), case

    def test_window_wider_than_any_sequence(self):
        sequences = [[2, 3, 4, 5], [6], [7, 8]]
        for window in (10 ** 9, 2 ** 63 - 1):  # up to the widest window EmbeddingConfig takes
            got = as_tuples(generate_pairs(sequences, window=window, seed=5))
            assert got == replay_pairs(sequences, window, 5)

    def test_dynamic_pairs_subset_of_fixed(self):
        seq = [2, 3, 4, 5, 6, 7, 8]
        # every pair within the full window of 4
        fixed = {(a, b) for p, a in enumerate(seq) for q, b in enumerate(seq)
                 if p != q and abs(p - q) <= 4}
        dynamic = set(as_tuples(generate_pairs([seq], window=4, seed=123)))
        assert dynamic <= fixed

    def test_deterministic_stream(self):
        sequences = [[2, 3, 4, 5], [6, 7, 8]]
        a = generate_pairs(sequences, window=3, seed=42)
        b = generate_pairs(sequences, window=3, seed=42)
        assert np.array_equal(a, b)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            generate_pairs([[2, 3]], window=0, seed=0)

    def test_accepts_numpy_sequences(self):
        arr = np.array([2, 3, 4], dtype=np.int32)
        pairs = set(as_tuples(generate_pairs([arr], window=1, seed=0)))
        assert pairs == {(2, 3), (3, 2), (3, 4), (4, 3)}


# ---------------------------------------------------------------------------
# negative sampling


def drawn_negatives(monkeypatch, vocab, sequences, **options):
    """Every negative `train_skipgram` draws, as one (pairs, k) array in draw
    order; the SGD steps are skipped, so only the random streams run."""
    draws = []

    def record(W, C, pairs, negatives, lrs):
        draws.append(negatives.copy())
        return np.zeros(len(pairs))

    monkeypatch.setattr(embedding, "_sgd_pairs", record)
    train_skipgram(sequences, EmbeddingConfig(dim=2, min_count=1, **options), vocab)
    return np.concatenate(draws)


def skewed_sequences(vocab):
    return [[vocab.token_to_index[t] for t in SKEWED]]


def unigram_law(vocab):
    """The unigram^0.75 probability of each token, in index order from index 2."""
    counts = np.array([vocab.frequencies[t] for t in vocab.index_to_token[2:]],
                      dtype=np.float64)
    return counts ** 0.75 / (counts ** 0.75).sum()


class TestNegativeSampler:
    """The negatives `train_skipgram` draws from the unigram^0.75 law."""

    def test_probabilities_follow_unigram_power(self, monkeypatch):
        # each draw is the right-side search of the law's CDF on the (seed, 1) stream
        vocab = skewed_vocab()
        cumulative = np.cumsum(unigram_law(vocab))
        cumulative[-1] = 1.0
        draws = drawn_negatives(monkeypatch, vocab, skewed_sequences(vocab), seed=3,
                                iterations=2, negatives=4)
        uniforms = np.random.default_rng((3, 1)).random(draws.size)
        want = 2 + np.searchsorted(cumulative, uniforms, side="right")
        assert draws.size > 1000
        assert np.array_equal(draws.ravel(), want)

    def test_samples_never_reserved(self, monkeypatch):
        vocab = small_vocab()
        draws = drawn_negatives(monkeypatch, vocab, [[2, 3, 4, 5]], iterations=100, negatives=20)
        assert draws.size >= 10_000
        assert draws.min() >= 2
        assert draws.max() < len(vocab)

    def test_deterministic(self, monkeypatch):
        vocab = small_vocab()
        a, b, c = (drawn_negatives(monkeypatch, vocab, [[2, 3, 4, 5]], seed=seed, negatives=10)
                   for seed in (7, 7, 8))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_empirical_distribution_chi_squared(self, monkeypatch):
        # 10^6 draws against the unigram^0.75 law
        vocab = skewed_vocab()
        probabilities = unigram_law(vocab)
        draws = drawn_negatives(monkeypatch, vocab, skewed_sequences(vocab), seed=1234,
                                iterations=40, negatives=50)
        n = draws.size
        assert n >= 10 ** 6
        observed = np.bincount(draws.ravel() - 2, minlength=len(probabilities))
        result = scipy.stats.chisquare(observed, probabilities * n)
        assert result.pvalue > 1e-3

    def test_empty_vocab_rejected(self):
        vocab = build_vocabulary([["aa", "bb"]], min_count=1)
        vocab.index_to_token = vocab.index_to_token[:2]
        with pytest.raises(TrainingError):
            train_skipgram([[0, 1]], EmbeddingConfig(dim=2, min_count=1), vocab)


# ---------------------------------------------------------------------------
# gradients


class TestSgnsGradient:
    def test_loss_matches_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            center = rng.normal(size=6)
            context = rng.normal(size=6)
            negatives = rng.normal(size=(4, 6))
            loss, _, _, _ = sgns_gradient(center, context, negatives)
            assert loss == pytest.approx(sgns_loss_ref(center, context, negatives),
                                         rel=1e-12)

    def test_orthogonal_vectors_half_coefficients(self):
        # all dot products zero: sigma(0) = 0.5, so the positive pair
        # contributes -0.5 * context and each negative 0.5 * itself
        center = np.array([1.0, 0.0, 0.0, 0.0])
        context = np.array([0.0, 2.0, 0.0, 0.0])
        negatives = np.array([[0.0, 0.0, 3.0, 0.0], [0.0, 0.0, 0.0, 4.0]])
        loss, g_center, g_context, g_negatives = sgns_gradient(center, context, negatives)
        assert loss == pytest.approx(3 * np.log(2.0), rel=1e-12)
        np.testing.assert_allclose(g_center, -0.5 * context + 0.5 * negatives.sum(axis=0))
        np.testing.assert_allclose(g_context, -0.5 * center)
        np.testing.assert_allclose(g_negatives, 0.5 * np.stack([center, center]))

    def test_no_negatives_positive_term_only(self):
        center = np.array([0.3, -0.2])
        context = np.array([0.1, 0.4])
        loss, g_center, g_context, g_negatives = sgns_gradient(
            center, context, np.empty((0, 2)))
        s = 1.0 / (1.0 + np.exp(-float(center @ context)))
        np.testing.assert_allclose(g_center, (s - 1.0) * context)
        np.testing.assert_allclose(g_context, (s - 1.0) * center)
        assert g_negatives.shape == (0, 2)
        assert loss == pytest.approx(-np.log(s), rel=1e-12)

    def test_matches_finite_differences(self):
        # >= 20 random 8-dim instances, relative error below 1e-5
        rng = np.random.default_rng(99)
        for _ in range(25):
            center = rng.normal(scale=0.8, size=8)
            context = rng.normal(scale=0.8, size=8)
            negatives = rng.normal(scale=0.8, size=(5, 8))
            _, g_center, g_context, g_negatives = sgns_gradient(center, context, negatives)

            num_center = finite_difference(
                lambda: sgns_loss_ref(center, context, negatives), center)
            num_context = finite_difference(
                lambda: sgns_loss_ref(center, context, negatives), context)
            num_negs = finite_difference(
                lambda: sgns_loss_ref(center, context, negatives), negatives)

            assert relative_error(g_center, num_center) < 1e-5
            assert relative_error(g_context, num_context) < 1e-5
            assert relative_error(g_negatives, num_negs) < 1e-5

    def test_gradients_finite_at_extremes(self):
        center = np.full(4, 50.0)
        context = np.full(4, 50.0)
        negatives = np.full((2, 4), -50.0)
        loss, g_center, g_context, g_negatives = sgns_gradient(center, context, negatives)
        for value in (loss, g_center, g_context, g_negatives):
            assert np.all(np.isfinite(value))


# ---------------------------------------------------------------------------
# training


class TestTrainSkipgram:
    def test_cooccurrence_beats_separation(self):
        # x and y share all their contexts; z lives in disjoint sentences
        corpus = ([["xx", "yy", "xx", "yy", "xx", "yy"]] * 40
                  + [["zz", "qq", "zz", "qq", "zz", "qq"]] * 40)
        vocab = build_vocabulary(corpus, min_count=1)
        config = EmbeddingConfig(dim=12, window=2, min_count=1, iterations=10,
                                 negatives=3, learning_rate=0.05, seed=3)
        matrix = train_skipgram(corpus_indices(corpus, vocab), config, vocab)

        def cosine(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

        x = matrix.rows[vocab.index("xx")]
        y = matrix.rows[vocab.index("yy")]
        z = matrix.rows[vocab.index("zz")]
        assert cosine(x, y) > cosine(x, z)

    def test_deterministic(self):
        corpus = [["aa", "bb", "cc"], ["bb", "cc", "dd"]] * 10
        vocab = build_vocabulary(corpus, min_count=1)
        config = EmbeddingConfig(dim=8, window=2, min_count=1, iterations=2,
                                 negatives=2, seed=5)
        first = train_skipgram(corpus_indices(corpus, vocab), config, vocab)
        second = train_skipgram(corpus_indices(corpus, vocab), config, vocab)
        assert np.array_equal(first.rows, second.rows)
        assert first.fingerprint() == second.fingerprint()

    def test_pad_row_zero_unk_row_mean(self):
        corpus = [["aa", "bb", "cc", "dd"]] * 20
        vocab = build_vocabulary(corpus, min_count=1)
        config = EmbeddingConfig(dim=6, window=2, min_count=1, iterations=2,
                                 negatives=2, seed=1)
        matrix = train_skipgram(corpus_indices(corpus, vocab), config, vocab)
        assert np.array_equal(matrix.rows[PAD_INDEX], np.zeros(6))
        np.testing.assert_array_equal(matrix.rows[UNK_INDEX],
                                      matrix.rows[2:].mean(axis=0))

    def test_rows_finite_and_bound_to_vocab(self):
        corpus = [["aa", "bb", "cc"]] * 10
        vocab = build_vocabulary(corpus, min_count=1)
        config = EmbeddingConfig(dim=4, window=1, min_count=1, iterations=1, seed=2)
        matrix = train_skipgram(corpus_indices(corpus, vocab), config, vocab)
        assert matrix.n_rows == len(vocab)
        assert matrix.dim == 4
        assert np.all(np.isfinite(matrix.rows))
        assert matrix.vocab_fingerprint == vocab.fingerprint()

    def test_vocab_too_small(self):
        vocab = build_vocabulary([["aa", "aa"]], min_count=1)
        config = EmbeddingConfig(dim=4, min_count=1)
        with pytest.raises(TrainingError, match="too small"):
            train_skipgram([[2, 2]], config, vocab)

    def test_training_moves_vectors(self):
        corpus = [["aa", "bb", "cc"], ["cc", "bb", "aa"]] * 15
        vocab = build_vocabulary(corpus, min_count=1)
        config = EmbeddingConfig(dim=5, window=2, min_count=1, iterations=3,
                                 negatives=2, seed=4)
        matrix = train_skipgram(corpus_indices(corpus, vocab), config, vocab)
        init = np.random.default_rng((4, 0)).uniform(-0.5 / 5, 0.5 / 5,
                                                     size=(len(vocab), 5))
        assert not np.allclose(matrix.rows[2:], init[2:])


def reference_case(name):
    """(sequences, config, vocab) of one train_skipgram-vs-reference case."""
    if name == "c6-corpus":
        corpus = [t.split() for t in cooccurrence_corpus()[0]]
        config = EmbeddingConfig(dim=20, window=3, min_count=1, iterations=3,
                                 negatives=5, learning_rate=0.025, seed=1)
    elif name == "four-tokens":
        # 5 negatives from 4 tokens: every pair repeats a row, most drop one
        corpus = [["aa", "bb", "cc", "dd"]] * 20
        config = EmbeddingConfig(dim=6, window=2, min_count=1, iterations=2,
                                 negatives=5, learning_rate=0.05, seed=1)
    elif name == "no-negatives":
        corpus = [t.split() for t in cooccurrence_corpus(sentences_per_group=5)[0]]
        config = EmbeddingConfig(dim=8, window=3, min_count=1, iterations=2,
                                 negatives=0, seed=2)
    else:  # "chunk-boundary": over two chunks of pairs per iteration
        rng = np.random.default_rng(17)
        corpus = [[f"w{i}" for i in rng.zipf(1.3, size=12) % 40] for _ in range(400)]
        config = EmbeddingConfig(dim=8, window=2, min_count=1, iterations=1,
                                 negatives=4, learning_rate=0.1, seed=4)
    vocab = build_vocabulary(corpus, min_count=1)
    return corpus_indices(corpus, vocab), config, vocab


class TestTrainSkipgramReference:
    @pytest.mark.parametrize("name", ["c6-corpus", "four-tokens", "no-negatives",
                                      "chunk-boundary"])
    def test_matches_pairwise_reference(self, name):
        sequences, config, vocab = reference_case(name)
        if name == "chunk-boundary":
            n_pairs = len(generate_pairs(sequences, config.window, seed=(config.seed, 2, 0)))
            assert n_pairs > 2 * embedding.CHUNK_PAIRS
        got = train_skipgram(sequences, config, vocab).rows
        want = skipgram_ref(sequences, config, vocab, sgns_gradient)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_pairs_as_list_of_rows(self, monkeypatch):
        # a wrapper may hand back list(generate_pairs(...)): rows, not an array
        sequences, config, vocab = reference_case("four-tokens")
        want = train_skipgram(sequences, config, vocab).rows
        original = embedding.generate_pairs
        monkeypatch.setattr(embedding, "generate_pairs",
                            lambda *args, **kwargs: list(original(*args, **kwargs)))
        assert np.array_equal(train_skipgram(sequences, config, vocab).rows, want)

    def test_divergence_names_first_bad_pair(self, recwarn):
        sequences, _, vocab = reference_case("four-tokens")
        config = EmbeddingConfig(dim=6, window=2, min_count=1, iterations=2,
                                 negatives=2, learning_rate=1e150, seed=1)
        # the pair-by-pair loop stopped at the same pair
        with pytest.raises(TrainingError, match=r"non-finite loss at iteration 0, pair 5$"):
            train_skipgram(sequences, config, vocab)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    # 2-6 tokens, so most pairs repeat a negative or draw their context. Rates go
    # up to zipf-build's 0.3; at 1.0 the run amplifies last-bit rounding past
    # 1e-12 whatever the summation order
    @settings(max_examples=60, deadline=None)
    @given(n_tokens=st.integers(2, 6),
           sentences=st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=12),
                              min_size=1, max_size=5),
           negatives=st.integers(0, 6), dim=st.integers(1, 8), window=st.integers(1, 4),
           iterations=st.integers(1, 2), learning_rate=st.sampled_from([0.025, 0.1, 0.3]),
           seed=st.integers(0, 2**32 - 1))
    def test_small_vocabularies_match_pairwise_reference(self, n_tokens, sentences, negatives,
                                                         dim, window, iterations,
                                                         learning_rate, seed):
        # one sentence holding every token, so the vocabulary has n_tokens
        corpus = [[f"t{i % n_tokens}" for i in s] for s in sentences]
        corpus.append([f"t{i}" for i in range(n_tokens)])
        vocab = build_vocabulary(corpus, min_count=1)
        config = EmbeddingConfig(dim=dim, window=window, min_count=1, iterations=iterations,
                                 negatives=negatives, learning_rate=learning_rate, seed=seed)
        sequences = corpus_indices(corpus, vocab)
        got = train_skipgram(sequences, config, vocab).rows
        want = skipgram_ref(sequences, config, vocab, sgns_gradient)
        assert got.shape == (len(vocab), dim)
        assert np.max(np.abs(got - want)) <= 1e-12


class TestSgdPairs:
    def test_losses_count_repeats_and_skip_dropped_negatives(self):
        vocab = build_vocabulary([[f"t{i}" for i in range(10)]], min_count=1)
        rng = np.random.default_rng(5)
        dim = 4
        W = rng.normal(size=(len(vocab), dim))
        contexts = rng.normal(size=(len(vocab), dim))
        C = np.vstack([-contexts, np.zeros((1, dim))])  # negated, and the scratch row
        # no row is shared between pairs, so each loss is at the initial rows; the
        # first pair draws negative 4 twice, the second its context once, the
        # third only its context
        pairs = np.array([[2, 3], [6, 7], [10, 11]])
        negatives = np.array([[4, 5, 4], [7, 8, 9], [11, 11, 11]])
        kept = [[4, 5, 4], [8, 9], []]
        lrs = np.array([0.3, 0.2, 0.1])
        want_W, want_contexts = W.copy(), contexts.copy()
        want = []
        for (center, context), negs, lr in zip(pairs, kept, lrs):
            want.append(sgns_loss_ref(W[center], contexts[context], contexts[negs]))
            _, g_center, g_context, g_negs = sgns_gradient(W[center], contexts[context],
                                                           contexts[negs])
            want_W[center] -= lr * g_center
            want_contexts[context] -= lr * g_context
            for neg, g in zip(negs, g_negs):
                want_contexts[neg] -= lr * g
        losses = embedding._sgd_pairs(W, C, pairs, negatives, lrs)
        assert np.allclose(losses, want, rtol=0, atol=1e-12)
        assert np.allclose(W, want_W, rtol=0, atol=1e-12)
        assert np.allclose(-C[:-1], want_contexts, rtol=0, atol=1e-12)
        assert not C[-1].any()


def corpus_indices(corpus, vocab):
    return [[vocab.index(t) for t in sent] for sent in corpus]


# ---------------------------------------------------------------------------
# random initialization


class TestRandomEmbedding:
    def test_shape_and_bounds(self):
        vocab = small_vocab()
        matrix = random_embedding(vocab, dim=10, seed=0)
        assert matrix.rows.shape == (len(vocab), 10)
        assert np.array_equal(matrix.rows[PAD_INDEX], np.zeros(10))
        assert np.all(np.abs(matrix.rows) <= 0.5 / 10)
        assert matrix.vocab_fingerprint == vocab.fingerprint()

    def test_deterministic(self):
        vocab = small_vocab()
        a = random_embedding(vocab, dim=6, seed=9)
        b = random_embedding(vocab, dim=6, seed=9)
        assert np.array_equal(a.rows, b.rows)
        c = random_embedding(vocab, dim=6, seed=10)
        assert not np.array_equal(a.rows, c.rows)


# ---------------------------------------------------------------------------
# serialization


class TestEmbeddingIO:
    def make_matrix(self, rng=None, n_rows=10, dim=4):
        rng = rng or np.random.default_rng(0)
        rows = rng.normal(size=(n_rows, dim)).astype(np.float32).astype(np.float64)
        rows[PAD_INDEX] = 0.0
        return EmbeddingMatrix(rows=rows, vocab_fingerprint=bytes(range(32)))

    def test_round_trip_exact(self, tmp_path):
        matrix = self.make_matrix()
        path = tmp_path / "emb.bin"
        save_embeddings(matrix, path)
        loaded = load_embeddings(path)
        assert np.array_equal(loaded.rows, matrix.rows)
        assert loaded.vocab_fingerprint == matrix.vocab_fingerprint
        assert loaded.fingerprint() == matrix.fingerprint()

    def test_round_trip_rounds_to_f32(self, tmp_path):
        # stored precision is float32: values round on the way through
        rows = np.full((3, 2), 0.1, dtype=np.float64)
        matrix = EmbeddingMatrix(rows=rows, vocab_fingerprint=b"\x01" * 32)
        path = tmp_path / "emb.bin"
        save_embeddings(matrix, path)
        loaded = load_embeddings(path)
        expected = rows.astype(np.float32).astype(np.float64)
        assert np.array_equal(loaded.rows, expected)
        assert loaded.rows[0, 0] != 0.1

    def test_vocab_binding_checked_on_load(self, tmp_path):
        corpus = [["aa", "bb", "cc"]] * 3
        vocab = build_vocabulary(corpus, min_count=1)
        other = build_vocabulary([["xx", "yy"]] * 3, min_count=1)
        matrix = random_embedding(vocab, dim=4, seed=0)
        path = tmp_path / "emb.bin"
        save_embeddings(matrix, path)
        assert load_embeddings(path, vocab=vocab).dim == 4
        with pytest.raises(FormatError, match="different vocabulary"):
            load_embeddings(path, vocab=other)

    @pytest.mark.parametrize("n_rows", [3, 6])
    def test_row_count_checked_on_load(self, tmp_path, n_rows):
        # bound to the vocabulary, but with a row count other than its size
        vocab = build_vocabulary([["aa", "bb", "cc"]] * 3, min_count=1)
        rows = np.zeros((n_rows, 4))
        path = tmp_path / "emb.bin"
        save_embeddings(EmbeddingMatrix(rows=rows, vocab_fingerprint=vocab.fingerprint()), path)
        assert load_embeddings(path).n_rows == n_rows
        with pytest.raises(FormatError,
                           match=f"^{re.escape(str(path))}: {n_rows} rows for a vocabulary of 5$"):
            load_embeddings(path, vocab=vocab)

    def test_refuses_non_finite(self, tmp_path):
        matrix = self.make_matrix()
        matrix.rows[1, 0] = np.nan
        with pytest.raises(FormatError, match="non-finite"):
            save_embeddings(matrix, tmp_path / "emb.bin")
        matrix.rows[1, 0] = np.inf
        with pytest.raises(FormatError, match="non-finite"):
            save_embeddings(matrix, tmp_path / "emb.bin")

    def test_refuses_missing_fingerprint(self, tmp_path):
        matrix = EmbeddingMatrix(rows=np.zeros((3, 2)), vocab_fingerprint=b"xy")
        with pytest.raises(FormatError, match="fingerprint"):
            save_embeddings(matrix, tmp_path / "emb.bin")

    def test_truncated_file_rejected(self, tmp_path):
        matrix = self.make_matrix()
        path = tmp_path / "emb.bin"
        save_embeddings(matrix, path)
        data = path.read_bytes()
        for cut in (4, len(data) // 2, len(data) - 1):
            clipped = tmp_path / f"cut{cut}.bin"
            clipped.write_bytes(data[:cut])
            with pytest.raises(FormatError):
                load_embeddings(clipped)

    def test_trailing_garbage_rejected(self, tmp_path):
        matrix = self.make_matrix()
        path = tmp_path / "emb.bin"
        save_embeddings(matrix, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            load_embeddings(path)

    def test_bad_magic_rejected(self, tmp_path):
        matrix = self.make_matrix()
        path = tmp_path / "emb.bin"
        save_embeddings(matrix, path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="magic"):
            load_embeddings(path)
