"""Dataset ingestion, text cleaning, tokenization, vocabulary, and encoding.

The cleaning rules target social-media comment text: URLs, ``#...#`` topic
spans, and ``@user`` mentions are stripped before punctuation removal, and
whitespace runs collapse to single spaces so the result is stable under
re-cleaning.
"""

import csv
import re
import string
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from enum import IntEnum
from itertools import chain, count, repeat

import numpy as np

from . import binio
from .binio import read_bytes, sha256, write_atomic
from .errors import DatasetError, FormatError, check_allocatable

PAD_INDEX = 0
UNK_INDEX = 1
FIRST_TOKEN_INDEX = 2  # the index of the most frequent token; those below are reserved
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

TOKENIZER_MODES = ("whitespace", "character", "presegmented")

_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_TOPIC_RE = re.compile(r"#[^#]*#")
_MENTION_RE = re.compile(r"@\w*")


class Sentiment(IntEnum):
    """The label set: the one definition of the classes, their names and
    their order. Every other count, name list and range check derives from it."""

    negative = 0
    neutral = 1
    positive = 2


CLASS_NAMES = tuple(s.name for s in Sentiment)
N_CLASSES = len(Sentiment)
# the class indices as messages list them: "0, 1 or 2"
CLASS_INDEX_LIST = ", ".join(map(str, range(N_CLASSES - 1))) + f" or {N_CLASSES - 1}"

# a label is written as its index or its name
_LABELS = {key: s for s in Sentiment for key in (str(int(s)), s.name)}


def parse_label(raw: str) -> Sentiment:
    label = _LABELS.get(raw.strip().lower())
    if label is None:
        raise DatasetError(f"unknown label {raw!r} (expected "
                           f"{'/'.join(map(str, range(N_CLASSES)))} or {'/'.join(CLASS_NAMES)})")
    return label


@dataclass
class RawRecord:
    text: str
    label: Sentiment


def _is_punct(ch: str) -> bool:
    # ASCII punctuation-class symbols, every Unicode P* character, and the
    # full-width CJK forms of both (including currency signs U+FFE0..U+FFE6).
    if ch in string.punctuation:
        return True
    if unicodedata.category(ch).startswith("P"):
        return True
    cp = ord(ch)
    if 0xFF01 <= cp <= 0xFF5E and chr(cp - 0xFEE0) in string.punctuation:
        return True
    return 0xFFE0 <= cp <= 0xFFE6


class _CharTable(dict):
    """A str.translate table that asks `rule` once per code point and keeps
    the answer (a string to put in its place, or None to drop it)."""

    def __init__(self, rule):
        self.rule = rule

    def __missing__(self, cp):
        self[cp] = out = self.rule(chr(cp))
        return out


_PUNCT_TO_SPACE = _CharTable(lambda ch: " " if _is_punct(ch) else ch)
# "c" for a CJK ideograph, "l" for any other letter; the rest is dropped
_LETTER_KIND = _CharTable(lambda ch: None if not ch.isalpha() else "c" if (
    "\u4e00" <= ch <= "\u9fff" or "\u3400" <= ch <= "\u4dbf") else "l")


def clean_text(raw: str) -> str:
    """Strip URLs, #topic# spans, @mentions, and punctuation; collapse whitespace.

    Idempotent: cleaning already-clean text returns it unchanged. May return
    an empty string.
    """
    text = _URL_RE.sub(" ", raw)
    text = _TOPIC_RE.sub(" ", text)
    text = _MENTION_RE.sub(" ", text)
    return " ".join(text.translate(_PUNCT_TO_SPACE).split())


def tokenize(cleaned: str, mode: str = "whitespace") -> list:
    """Split cleaned text into tokens.

    ``whitespace`` and ``presegmented`` split on spaces (the latter signals
    that an external segmenter already joined tokens with spaces);
    ``character`` emits one token per non-space scalar, for unsegmented CJK
    text.
    """
    if mode in ("whitespace", "presegmented"):
        return cleaned.split()
    if mode == "character":
        return list("".join(cleaned.split()))
    raise ValueError(f"unknown tokenizer mode {mode!r} (expected one of {TOKENIZER_MODES})")


def detect_tokenizer_mode(texts) -> str:
    """Pick 'character' when CJK scalars dominate the letters, else 'whitespace'."""
    letters = "".join(texts).translate(_LETTER_KIND)
    if not letters:
        return "whitespace"
    return "character" if letters.count("c") / len(letters) > 0.5 else "whitespace"


@dataclass
class Vocabulary:
    """Token<->index bijection with reserved pad (0) and unk (1) indices."""

    token_to_index: dict
    index_to_token: list
    frequencies: dict
    min_count: int
    _fingerprint: bytes = field(default=None, init=False, repr=False, compare=False)

    def __len__(self):
        return len(self.index_to_token)

    @property
    def n_tokens(self):
        """Number of non-reserved tokens."""
        return len(self.index_to_token) - FIRST_TOKEN_INDEX

    def index(self, token: str) -> int:
        return self.token_to_index.get(token, UNK_INDEX)

    def fingerprint(self) -> bytes:
        """SHA-256 over the canonical serialized form, binding downstream
        artifacts. Computed on the first call and kept: a vocabulary is never
        changed once built or loaded."""
        if self._fingerprint is None:
            self._fingerprint = sha256(serialize_vocabulary(self).encode("utf-8"))
        return self._fingerprint


def build_vocabulary(corpus, min_count: int) -> Vocabulary:
    """Index every token whose corpus frequency is >= min_count.

    Indices are assigned frequency-descending with lexicographic tie-break,
    starting at FIRST_TOKEN_INDEX, so the assignment is deterministic.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts = Counter(chain.from_iterable(corpus))
    kept = sorted(t for t, c in counts.items() if c >= min_count)
    # a stable sort keeps the lexicographic order among equal counts
    kept.sort(key=counts.__getitem__, reverse=True)
    index_to_token = [PAD_TOKEN, UNK_TOKEN] + kept
    token_to_index = dict(zip(kept, count(FIRST_TOKEN_INDEX)))
    frequencies = {t: counts[t] for t in kept}
    return Vocabulary(token_to_index, index_to_token, frequencies, min_count)


@dataclass
class EncodedExample:
    indices: np.ndarray
    label: Sentiment


def encode_split(pairs, vocab: Vocabulary, maxlen: int) -> list:
    """EncodedExamples of a list of (label, tokens) pairs. Their indices are the rows of one
    (N, maxlen) int32 block: each the indices of its first maxlen tokens, right-padded."""
    if maxlen < 1:
        raise ValueError("maxlen must be >= 1")
    kept = [tokens[:maxlen] for _, tokens in pairs]
    check_allocatable((len(kept), maxlen), 4)
    lengths = np.array(list(map(len, kept)), dtype=np.intp)
    block = np.full((len(kept), maxlen), PAD_INDEX, dtype=np.int32)
    indices = map(vocab.token_to_index.get, chain.from_iterable(kept), repeat(UNK_INDEX))
    block[np.arange(maxlen) < lengths[:, None]] = list(indices)
    return [EncodedExample(row, label) for row, (label, _) in zip(block, pairs)]


def stack(examples, width=None):
    """The examples as arrays: their indices as the rows of one (N, width) block of
    the indices' dtype, right-padded (width defaults to the longest), and (N,) int64 labels."""
    examples = list(examples)
    rows = [ex.indices for ex in examples]
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    width = lengths.max(initial=0) if width is None else width
    flat = np.concatenate(rows) if rows else np.empty(0, np.int32)
    block = np.full((len(rows), width), PAD_INDEX, dtype=flat.dtype)
    block[np.arange(width) < lengths[:, None]] = flat
    return block, np.fromiter([ex.label for ex in examples], np.int64, len(examples))


def encode_example(tokens, label, vocab: Vocabulary, maxlen: int) -> EncodedExample:
    return encode_split([(label, tokens)], vocab, maxlen)[0]


def encode(tokens, vocab: Vocabulary, maxlen: int) -> np.ndarray:
    """Map tokens to indices, truncating to the first maxlen and right-padding."""
    return encode_example(tokens, None, vocab, maxlen).indices


def load_dataset(path) -> list:
    """Read a UTF-8 `label,text` CSV (RFC-4180 quoting, optional BOM) into RawRecords."""
    records = []
    try:
        f = open(path, newline="", encoding="utf-8-sig")
    except FileNotFoundError:
        raise DatasetError(f"{path}: no such file") from None
    with f:
        reader = csv.reader(f)
        try:
            header = next(reader, None)
            if header is None:
                raise DatasetError(f"{path}: empty file, expected a 'label,text' header")
            if [h.strip().lower() for h in header] != ["label", "text"]:
                raise DatasetError(f"{path}: expected header 'label,text', got {','.join(header)!r}")
            for row_num, row in enumerate(reader, start=2):
                if len(row) != 2:
                    raise DatasetError(f"{path}: row {row_num}: expected 2 fields, got {len(row)}")
                try:
                    label = parse_label(row[0])
                except DatasetError as exc:
                    raise DatasetError(f"{path}: row {row_num}: {exc}") from None
                records.append(RawRecord(text=row[1], label=label))
        except UnicodeDecodeError as exc:
            # its position counts from the start of a decoded chunk, not of the file
            raise DatasetError(f"{path}: not valid UTF-8 ({exc.reason})") from None
        except csv.Error as exc:  # e.g. a field over the csv module's size limit
            raise DatasetError(f"{path}: line {reader.line_num}: {exc}") from None
    return records


def stratified_split(records, test_fraction: float, seed: int):
    """Deterministic per-class split; returns (train, test) in original order.

    Each class contributes round(n_class * test_fraction) examples to the test
    side, clamped so both sides keep at least one example per class.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    by_class = {}
    for i, rec in enumerate(records):
        by_class.setdefault(int(rec.label), []).append(i)
    for label, idx in sorted(by_class.items()):
        if len(idx) < 2:
            raise DatasetError(f"cannot stratify: class {label} has only {len(idx)} example(s)")
    rng = np.random.default_rng(seed)
    test_idx = set()
    for label in sorted(by_class):
        idx = np.array(by_class[label])
        n_test = int(len(idx) * test_fraction + 0.5)
        n_test = min(max(n_test, 1), len(idx) - 1)
        chosen = rng.permutation(len(idx))[:n_test]
        test_idx.update(int(i) for i in idx[chosen])
    train = [rec for i, rec in enumerate(records) if i not in test_idx]
    test = [rec for i, rec in enumerate(records) if i in test_idx]
    return train, test


# --- vocabulary file format: "#senti-vocab v1 min_count=<k>" header, then
# --- index<TAB>token<TAB>frequency lines sorted by index (0/1 are reserved).

def serialize_vocabulary(vocab: Vocabulary) -> str:
    lines = [f"#senti-vocab v1 min_count={vocab.min_count}"]
    for i, token in enumerate(vocab.index_to_token):  # a reserved token has frequency 0
        lines.append(f"{i}\t{token}\t{vocab.frequencies[token] if i >= FIRST_TOKEN_INDEX else 0}")
    return "\n".join(lines) + "\n"


def save_vocabulary(vocab: Vocabulary, path) -> str:
    return write_atomic(path, serialize_vocabulary(vocab).encode("utf-8"))


_VOCAB_HEADER_RE = re.compile(r"#senti-vocab v1 min_count=(\d+)$")


def load_vocabulary(path, data: bytes = None) -> Vocabulary:
    """Read a vocabulary file line by line, its bytes taken from `data` when
    given. The first bad line raises a FormatError naming it, as do a
    missing file and bad UTF-8. The file may be in any form the reader
    accepts; the vocabulary's fingerprint is that of its canonical form."""
    try:
        text = (read_bytes(path) if data is None else data).decode("utf-8")
    except FileNotFoundError:
        raise FormatError(f"{path}: no such file") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from None
    # "\n" or "\r\n" ends a line, never the other breaks str.splitlines knows
    lines = text.replace("\r\n", "\n").split("\n")
    if lines[-1] == "":  # the last line's end, or an empty file
        lines.pop()
    if not lines:
        raise FormatError(f"{path}: empty vocabulary file")
    m = _VOCAB_HEADER_RE.match(lines[0])
    if not m:
        raise FormatError(f"{path}: bad vocabulary header {lines[0]!r}")
    min_count = int(m.group(1))
    line_of = {}  # each token read so far, to the line that lists it
    frequencies = {}
    for line_num, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) != 3:
            raise FormatError(f"{path}: line {line_num}: expected index<TAB>token<TAB>frequency")
        try:
            idx, token, freq = int(parts[0]), parts[1], int(parts[2])
        except ValueError:
            raise FormatError(
                f"{path}: line {line_num}: index and frequency must be integers") from None
        if idx != line_num - 2:
            raise FormatError(f"{path}: line {line_num}: indices out of order (got {idx})")
        if token in line_of:
            raise FormatError(
                f"{path}: lines {line_of[token]} and {line_num} both list token {token!r}")
        line_of[token] = line_num
        if idx == PAD_INDEX or idx == UNK_INDEX:
            expected = PAD_TOKEN if idx == PAD_INDEX else UNK_TOKEN
            if token != expected:
                raise FormatError(
                    f"{path}: line {line_num}: reserved index {idx} must be {expected}")
        elif freq < min_count:
            raise FormatError(
                f"{path}: line {line_num}: frequency {freq} below min_count {min_count}")
        else:
            frequencies[token] = freq
    tokens = list(frequencies)
    return Vocabulary(dict(zip(tokens, count(FIRST_TOKEN_INDEX))),
                      [PAD_TOKEN, UNK_TOKEN] + tokens, frequencies, min_count)


# --- encoded split: one binio container of kind "encoded", bound to the
# --- fingerprint of the vocabulary it was encoded with; field maxlen, int32
# --- tensors indices (N, maxlen) and labels (N,).

# the first bytes of the text split format that preceded the container
TEXT_SPLIT_HEADER = b"#senti-encoded"
_SENTIMENTS = tuple(Sentiment)


def save_encoded(examples, maxlen: int, path, binding: bytes) -> str:
    """Write a split as one container bound to `binding`, the fingerprint
    of the vocabulary it was encoded with; returns its SHA-256 hex."""
    indices, labels = stack(examples, maxlen)
    return binio.save(path, "encoded", binding, {"indices": indices, "labels": labels}, "i32",
                      {"maxlen": maxlen})


def load_encoded(path, vocab: Vocabulary = None):
    """Returns (examples, maxlen); the indices are rows of one (N, maxlen)
    int32 block. If `vocab` is given, the split must have been encoded with
    it, and every index must be one of its rows."""
    data = read_bytes(path)
    if data.startswith(TEXT_SPLIT_HEADER):
        raise FormatError(f"{path}: a text split from an older version; re-run preprocess")
    artifact = binio.load(path, {"encoded": (("maxlen",), ("indices", "labels"))}, data)
    maxlen = artifact.fields["maxlen"]
    indices, labels = artifact.tensors["indices"], artifact.tensors["labels"]
    if (indices.dtype != np.int32 or labels.dtype != np.int32
            or labels.ndim != 1 or indices.ndim != 2 or len(indices) != len(labels)):
        raise FormatError(f"{path}: expected field maxlen and int32 tensors indices "
                          f"(N, maxlen) and labels (N,)")
    if indices.shape[1] != maxlen:
        raise FormatError(f"{path}: expected {maxlen} indices per row (maxlen), "
                          f"got {indices.shape[1]}")
    if (labels.min(initial=0) < 0 or labels.max(initial=0) >= N_CLASSES
            or indices.min(initial=0) < 0):
        # the first bad row, its label checked before its indices, names what is wrong
        bad_label = (labels < 0) | (labels >= N_CLASSES)
        row = int(np.argmax(bad_label | (indices < 0).any(axis=1)))
        if bad_label[row]:
            raise FormatError(
                f"{path}: row {row + 1}: label '{labels[row]}' is not {CLASS_INDEX_LIST}")
        raise FormatError(f"{path}: row {row + 1}: negative token index {indices[row].min()}")
    if vocab is not None:
        if vocab.fingerprint() != artifact.binding:
            raise FormatError(f"{path}: split was encoded with a different vocabulary")
        top = int(indices.max(initial=0))
        if top >= len(vocab):
            raise DatasetError(
                f"{path}: token index {top} is outside the vocabulary of {len(vocab)} rows"
            )
    examples = list(map(EncodedExample, indices, map(_SENTIMENTS.__getitem__, labels.tolist())))
    return examples, maxlen
