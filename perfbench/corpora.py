"""Seeded social-media-like input generator for the benchmark workloads.

The long-range corpus and the CSV writer are the acceptance suite's own
(``tests/synthetic.py``); this module adds only the Zipf corpus.
"""

import numpy as np

# Planted sentiment signal: a text of class k carries words from set k.
KEYWORDS = (
    ("awful", "hate", "terrible", "worst", "broken", "angry", "refund", "disgusting"),
    ("okay", "average", "normal", "standard", "usual", "fine", "moderate", "plain"),
    ("great", "love", "wonderful", "best", "amazing", "happy", "perfect", "brilliant"),
)

VOCAB_SIZE = 4900      # Zipf filler words: every two-syllable pseudo-word
ZIPF_EXPONENT = 1.0
N_GROUPS = 8           # planted co-occurrence groups ...
GROUP_SIZE = 4         # ... of this many words each
MAX_FILLER = 32
MEAN_EXTRA_FILLER = 5

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_PUNCT = ("!", "!!", "?", ",", ".", "...", ":)", ";")


def _syllables():
    return [c + v for c in _CONSONANTS for v in _VOWELS]


def _zipf_words():
    """VOCAB_SIZE two-syllable pseudo-words (of 70**2) in a fixed order;
    rank 0 is the most common."""
    syl = _syllables()
    words = [a + b for a in syl for b in syl]
    order = np.random.default_rng(12345).permutation(len(words))
    return [words[i] for i in order[:VOCAB_SIZE]]


def _group_words():
    """Three-syllable pseudo-words (never equal to a Zipf word), split into
    N_GROUPS disjoint co-occurrence groups."""
    syl = _syllables()
    rng = np.random.default_rng(54321)
    words = []
    while len(words) < N_GROUPS * GROUP_SIZE:
        w = "".join(syl[i] for i in rng.integers(0, len(syl), size=3))
        if w not in words:
            words.append(w)
    return [words[g * GROUP_SIZE:(g + 1) * GROUP_SIZE] for g in range(N_GROUPS)]


def zipf_corpus(n_rows, seed):
    """Social-media-like texts with planted structure.

    Each text has 2 + Geometric(1/MEAN_EXTRA_FILLER) filler words drawn from
    a Zipf(ZIPF_EXPONENT) vocabulary (at most MAX_FILLER), two or three keywords of its
    class, with probability 0.6 a run of three words from one co-occurrence
    group, and noise that the cleaner removes: URLs, @user mentions,
    #topic# spans and punctuation. Returns (texts, labels, groups).
    """
    rng = np.random.default_rng((seed, 101))
    vocab = _zipf_words()
    weights = 1.0 / np.arange(1, VOCAB_SIZE + 1) ** ZIPF_EXPONENT
    cumulative = np.cumsum(weights / weights.sum())
    cumulative[-1] = 1.0
    groups = _group_words()
    texts, labels = [], []
    for _ in range(n_rows):
        label = int(rng.integers(0, 3))
        n_filler = min(MAX_FILLER, 2 + int(rng.geometric(1.0 / MEAN_EXTRA_FILLER)))
        words = [vocab[i] for i in np.searchsorted(cumulative, rng.random(n_filler), side="right")]
        for _ in range(int(rng.integers(2, 4))):
            words.insert(int(rng.integers(0, len(words) + 1)),
                         KEYWORDS[label][int(rng.integers(0, len(KEYWORDS[label])))])
        if rng.random() < 0.6:
            group = groups[int(rng.integers(0, N_GROUPS))]
            run = [group[int(i)] for i in rng.integers(0, GROUP_SIZE, size=3)]
            at = int(rng.integers(0, len(words) + 1))
            words[at:at] = run
        words = [w + _PUNCT[int(rng.integers(0, len(_PUNCT)))] if rng.random() < 0.15 else w
                 for w in words]
        if rng.random() < 0.3:
            words.insert(0, f"@user{int(rng.integers(0, 500))}")
        if rng.random() < 0.2:
            words.insert(int(rng.integers(0, len(words) + 1)),
                         f"#{vocab[int(rng.integers(0, 50))]} {vocab[int(rng.integers(0, 50))]}#")
        if rng.random() < 0.3:
            words.append(f"https://t.co/{int(rng.integers(0, 1 << 30)):x}")
        texts.append(" ".join(words))
        labels.append(label)
    return texts, labels, groups

