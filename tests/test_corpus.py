import hashlib
import importlib
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (build_vocabulary_ref, clean_ref, detect_tokenizer_mode_ref,
                     encoded_container_ref, encode_ref, load_encoded_ref, load_vocabulary_ref,
                     save_encoded_ref, stack_ref)
from sentilstm import binio
from sentilstm.corpus import (CLASS_NAMES, N_CLASSES, EncodedExample, RawRecord, Sentiment,
                              Vocabulary, build_vocabulary,
                              clean_text, detect_tokenizer_mode, encode, encode_example,
                              encode_split, load_dataset, load_encoded, load_vocabulary,
                              parse_label, save_encoded, save_vocabulary, serialize_vocabulary,
                              stack, stratified_split, tokenize)
from sentilstm.errors import DatasetError, FormatError
from synthetic import write_csv


# every character besides "\n" and "\r" that str.splitlines ends a line on
OTHER_LINE_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestCleanText:
    def test_topic_mention_punct(self):
        assert clean_text("#WorldCup# @alice nice!") == "nice"

    def test_url_removed(self):
        assert clean_text("see https://example.com/x?y=1 now") == "see now"
        assert clean_text("go www.test.org today") == "go today"

    def test_url_needs_tail(self):
        # the scheme alone is not a URL; its punctuation is stripped instead
        assert clean_text("go http:// now") == "go http now"
        assert clean_text("see www.") == "see www"

    def test_near_miss_prefixes(self):
        # no word-boundary anchoring: the www. inside wwww.foo still matches
        assert clean_text("wwww.foo") == "w"
        assert clean_text("xhttp://a b") == "x b"

    def test_topic_spans(self):
        assert clean_text("a#x#y#b") == "a y b"
        assert clean_text("a ## b") == "a b"
        assert clean_text("lone # kept as punct") == "lone kept as punct"

    def test_mentions(self):
        assert clean_text("hi @bob_99 bye") == "hi bye"
        assert clean_text("a @ b") == "a b"
        assert clean_text("x@@ab y") == "x y"
        assert clean_text("ping @太郎 end") == "ping end"

    def test_fullwidth_punct(self):
        assert clean_text("你好！世界") == "你好 世界"
        assert clean_text("price ￥100") == "price 100"
        assert clean_text("ＡＢ stays") == "ＡＢ stays"

    def test_idempotent(self):
        raw = "Wow!! #fun# visit www.x.io @me :-)"
        once = clean_text(raw)
        assert clean_text(once) == once

    def test_empty_results(self):
        assert clean_text("") == ""
        assert clean_text("!!! ... ???") == ""
        assert clean_text("#all topic#") == ""

    @given(st.text(alphabet="ab #@.!?:/_你好wht,", max_size=60))
    @settings(max_examples=300)
    def test_matches_reference_scanner(self, raw):
        assert clean_text(raw) == clean_ref(raw)

    @given(st.text(max_size=60))
    @settings(max_examples=300)
    def test_matches_reference_scanner_any_unicode(self, raw):
        assert clean_text(raw) == clean_ref(raw)

    @given(st.text(max_size=80))
    @settings(max_examples=200)
    def test_idempotent_property(self, raw):
        once = clean_text(raw)
        assert clean_text(once) == once


class TestTokenize:
    def test_whitespace(self):
        assert tokenize("a bb ccc") == ["a", "bb", "ccc"]
        assert tokenize("") == []

    def test_presegmented(self):
        assert tokenize("我 喜欢 它", "presegmented") == ["我", "喜欢", "它"]

    def test_character(self):
        assert tokenize("我喜欢 它", "character") == ["我", "喜", "欢", "它"]

    @given(st.text(max_size=40))
    @settings(max_examples=200)
    def test_character_drops_every_space(self, text):
        assert tokenize(text, "character") == [ch for ch in text if not ch.isspace()]

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            tokenize("x", "words")


class TestDetectTokenizerMode:
    def test_cjk_dominant(self):
        assert detect_tokenizer_mode(["这个电影很好看", "糟糕 bad"]) == "character"

    def test_latin_dominant(self):
        assert detect_tokenizer_mode(["mostly english text", "好"]) == "whitespace"

    def test_no_letters(self):
        assert detect_tokenizer_mode(["123 456", ""]) == "whitespace"
        assert detect_tokenizer_mode([]) == "whitespace"

    def test_takes_a_generator(self):
        texts = ["这个电影很好看", "ok"]
        assert detect_tokenizer_mode(t for t in texts) == "character"

    @pytest.mark.parametrize("texts, mode", [
        (["中a"], "whitespace"),  # exactly half is not a majority
        (["中文a"], "character"),
        (["\u3400\u3400a"], "character"),
        (["\u4dbf\u4dbfa"], "character"),
        (["\u4e00\u4e00a"], "character"),
        (["\u9fff\u9fffa"], "character"),
        (["\u33ff\u33ffa"], "whitespace"),  # a symbol, not a letter
        (["\u4dc0\u4dc0a"], "whitespace"),  # a symbol, not a letter
        (["\ua000\ua000a"], "whitespace"),  # a letter outside both blocks
        (["\u9fffa", "\u4e00"], "character"),
        (["ａｂ中"], "whitespace"),
        (["𠀀𠀁中"], "whitespace"),
    ])
    def test_block_edges_and_ties(self, texts, mode):
        assert detect_tokenizer_mode(texts) == detect_tokenizer_mode_ref(texts) == mode

    @given(st.lists(st.text(alphabet=st.one_of(
        st.characters(),
        st.characters(min_codepoint=0x3400, max_codepoint=0x4DBF),
        st.characters(min_codepoint=0x4E00, max_codepoint=0x9FFF),
        st.characters(min_codepoint=0xFF01, max_codepoint=0xFFEE),
        st.characters(min_codepoint=0x10000, categories=("Lu", "Ll", "Lo")),
    ), max_size=30), max_size=5))
    @settings(max_examples=300)
    def test_matches_reference_scanner(self, texts):
        assert detect_tokenizer_mode(texts) == detect_tokenizer_mode_ref(texts)


class TestVocabulary:
    def test_ordering_and_indices(self):
        corpus = [["b", "a", "a"], ["b", "c"]]
        vocab = build_vocabulary(corpus, min_count=1)
        # a and b tie at 2, break lexicographically; c has 1
        assert vocab.index_to_token == ["<pad>", "<unk>", "a", "b", "c"]
        assert vocab.index("a") == 2
        assert vocab.index("zzz") == 1
        assert len(vocab) == 5
        assert vocab.n_tokens == 3

    def test_min_count_filters(self):
        corpus = [["x"] * 3 + ["y"] * 2 + ["z"]]
        vocab = build_vocabulary(corpus, min_count=2)
        assert "z" not in vocab.token_to_index
        assert vocab.n_tokens == 2

    def test_min_count_validation(self):
        with pytest.raises(ValueError):
            build_vocabulary([], min_count=0)

    @given(st.lists(st.lists(st.sampled_from(["a", "b", "B", "c", "zz", "é", "中", "a1"]),
                             max_size=8), max_size=8), st.integers(1, 4))
    @settings(max_examples=200)
    def test_matches_reference_builder(self, corpus, min_count):
        vocab = build_vocabulary(iter(corpus), min_count)
        assert (vocab.index_to_token, vocab.frequencies) == build_vocabulary_ref(corpus, min_count)
        assert list(vocab.frequencies) == vocab.index_to_token[2:]

    def test_roundtrip(self, tmp_path):
        vocab = build_vocabulary([["a", "a", "b", "b", "b"]], min_count=2)
        path = tmp_path / "vocab.tsv"
        save_vocabulary(vocab, path)
        loaded = load_vocabulary(path)
        assert loaded.index_to_token == vocab.index_to_token
        assert loaded.frequencies == vocab.frequencies
        assert loaded.min_count == vocab.min_count
        assert loaded.fingerprint() == vocab.fingerprint()

    @pytest.mark.parametrize("source", ["built", "loaded"])
    def test_fingerprint_is_computed_once(self, source, tmp_path, monkeypatch):
        vocab = build_vocabulary([["a", "b", "a"]], min_count=1)
        if source == "loaded":
            save_vocabulary(vocab, tmp_path / "vocab.tsv")
            vocab = load_vocabulary(tmp_path / "vocab.tsv")
        calls = []
        monkeypatch.setattr("sentilstm.corpus.serialize_vocabulary",
                            lambda v: calls.append(v) or serialize_vocabulary(v))
        first, second = vocab.fingerprint(), vocab.fingerprint()
        assert calls == [vocab]
        assert first == second == hashlib.sha256(serialize_vocabulary(vocab).encode()).digest()

    def test_fingerprint_changes_with_content(self):
        v1 = build_vocabulary([["a", "b"]], min_count=1)
        v2 = build_vocabulary([["a", "c"]], min_count=1)
        assert v1.fingerprint() != v2.fingerprint()

    def test_serialized_form(self):
        vocab = build_vocabulary([["hi", "hi"]], min_count=1)
        text = serialize_vocabulary(vocab)
        assert text.splitlines() == [
            "#senti-vocab v1 min_count=1",
            "0\t<pad>\t0",
            "1\t<unk>\t0",
            "2\thi\t2",
        ]

    def test_load_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("#something else\n")
        with pytest.raises(FormatError):
            load_vocabulary(path)

    def test_load_rejects_low_frequency(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("#senti-vocab v1 min_count=5\n0\t<pad>\t0\n1\t<unk>\t0\n2\tx\t3\n")
        with pytest.raises(FormatError):
            load_vocabulary(path)

    def test_load_rejects_out_of_order(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("#senti-vocab v1 min_count=1\n0\t<pad>\t0\n1\t<unk>\t0\n3\tx\t1\n")
        with pytest.raises(FormatError):
            load_vocabulary(path)

    @pytest.mark.parametrize("rows, lines", [
        ("2\tx\t1\n3\ty\t1\n4\tx\t1\n", "lines 4 and 6"),
        ("2\t<unk>\t1\n", "lines 3 and 4"),
    ])
    def test_load_rejects_repeated_token(self, tmp_path, rows, lines):
        path = tmp_path / "bad.tsv"
        path.write_text("#senti-vocab v1 min_count=1\n0\t<pad>\t0\n1\t<unk>\t0\n" + rows)
        with pytest.raises(FormatError, match=f"{lines} both list token"):
            load_vocabulary(path)

    @pytest.mark.parametrize("rows, line", [
        ("2\tx\t1\n3\ty\t1\tz\n", 5),  # a field too many on the last line
        # one field short, then one too many: every column still parses
        ("2\n9\t5\t3\tbar\t7\n", 4),
    ])
    def test_load_names_a_line_with_a_wrong_field_count(self, rows, line):
        data = ("#senti-vocab v1 min_count=1\n0\t<pad>\t0\n1\t<unk>\t0\n" + rows).encode()
        with pytest.raises(FormatError) as caught:
            load_vocabulary("vocab.tsv", data)
        assert str(caught.value) == (
            f"vocab.tsv: line {line}: expected index<TAB>token<TAB>frequency")

    def test_load_from_bytes_matches_file(self, tmp_path):
        vocab = build_vocabulary([["a", "a", "b"]], min_count=1)
        path = tmp_path / "vocab.tsv"
        save_vocabulary(vocab, path)
        loaded = load_vocabulary("named-in-errors.tsv", path.read_bytes())
        assert loaded.fingerprint() == load_vocabulary(path).fingerprint()
        with pytest.raises(FormatError, match="named-in-errors.tsv"):
            load_vocabulary("named-in-errors.tsv", b"\xff")

    def test_loaded_fingerprint_is_hash_of_canonical_bytes(self, tmp_path):
        vocab = build_vocabulary([["b", "a", "a", "c", "c", "c"]], min_count=1)
        path = tmp_path / "vocab.tsv"
        save_vocabulary(vocab, path)
        loaded = load_vocabulary(path)
        assert loaded == vocab
        assert loaded.fingerprint() == hashlib.sha256(path.read_bytes()).digest()
        assert loaded.fingerprint() == hashlib.sha256(
            serialize_vocabulary(loaded).encode("utf-8")).digest()

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace("\n", "\r\n"),
        lambda text: text[:-1],
        lambda text: text.replace("\n2\t", "\n02\t"),
        lambda text: text.replace("\ta\t2", "\ta\t+2"),
        lambda text: text.replace("min_count=1", "min_count=01"),
    ])
    def test_accepted_non_canonical_file_keeps_the_reserialized_fingerprint(self, tmp_path,
                                                                            edit):
        vocab = build_vocabulary([["b", "a", "a"]], min_count=1)
        path = tmp_path / "vocab.tsv"
        path.write_bytes(edit(serialize_vocabulary(vocab)).encode("utf-8"))
        loaded = load_vocabulary(path)
        assert loaded == vocab
        assert loaded.fingerprint() == vocab.fingerprint()

    @pytest.mark.parametrize("char", OTHER_LINE_BREAKS)
    def test_only_newline_and_crlf_end_a_line(self, char):
        lines = serialize_vocabulary(build_vocabulary([["b", "a", "a"]], min_count=1)).split("\n")
        lines[1] += char + lines.pop(2)  # line 2 runs into line 3
        data = "\n".join(lines).encode("utf-8")
        message = "line 2: expected index<TAB>token<TAB>frequency"
        with pytest.raises(FormatError) as caught:
            load_vocabulary("vocab.tsv", data)
        assert str(caught.value) == f"vocab.tsv: {message}"
        with pytest.raises(ValueError, match=message):
            load_vocabulary_ref(data)

    _TOKENS = st.lists(st.text(st.characters(blacklist_categories=("Cs",)), min_size=1,
                               max_size=4).filter(lambda t: t == "".join(t.split())),
                       min_size=0, max_size=6, unique=True)

    @staticmethod
    @st.composite
    def _vocabulary_bytes(draw, tokens=_TOKENS):
        """A valid vocab.tsv, then up to three edits: a flipped byte, CRLF
        endings, a non-canonical index, no final newline, a repeated token,
        swapped reserved rows, a frequency below min_count or a frequency
        that str() would not write, or a line end that is neither "\\n" nor
        "\\r\\n"."""
        min_count = draw(st.integers(1, 3))
        lines = [f"#senti-vocab v1 min_count={min_count}", "0\t<pad>\t0", "1\t<unk>\t0"]
        for i, token in enumerate(draw(tokens), start=2):
            lines.append(f"{i}\t{token}\t{draw(st.integers(min_count, 12))}")
        text = "\n".join(lines) + "\n"
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(["flip", "crlf", "index", "no-newline", "repeat",
                                         "reserved", "low", "count", "break"]))
            lines = text.split("\n")
            row = draw(st.integers(1, max(1, len(lines) - 2)))
            parts = lines[row].split("\t")
            if kind == "flip":
                data = bytearray(text.encode("utf-8"))
                data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
                return bytes(data)
            if kind == "crlf":
                text = text.replace("\n", "\r\n")
            elif kind == "break":
                at = draw(st.sampled_from([i for i, ch in enumerate(text) if ch == "\n"]))
                text = text[:at] + draw(st.sampled_from(OTHER_LINE_BREAKS)) + text[at + 1:]
            elif kind == "no-newline":
                text = text.rstrip("\n")
            elif kind == "reserved":
                if len(lines) >= 3:  # an earlier "break" edit may have joined the lines
                    lines[1], lines[2] = lines[2], lines[1]
                    text = "\n".join(lines)
            elif len(parts) == 3:
                if kind == "index":  # forms int() reads, some of them another number
                    digits = parts[0]
                    parts[0] = draw(st.sampled_from([
                        "0" + digits, "+" + digits, " " + digits, digits + " ",
                        digits[:1] + "_" + digits[1:], digits + "_0",
                        "".join(chr(ord(d) + 0x630) for d in digits)]))  # Arabic-Indic
                elif kind == "repeat":
                    parts[1] = draw(st.sampled_from(["<pad>", "<unk>"]
                                                    + [line.split("\t")[1] for line in lines[1:]
                                                       if line.count("\t") == 2]))
                elif kind == "low":
                    parts[2] = str(draw(st.integers(0, min_count)))
                else:  # a count that int() reads and str() would not write
                    parts[2] = draw(st.sampled_from(["0", " ", "+", "_", "00"])) + parts[2]
                lines[row] = "\t".join(parts)
                text = "\n".join(lines)
        return text.encode("utf-8")

    @given(_vocabulary_bytes())
    @settings(max_examples=500)
    def test_accepts_and_refuses_what_the_reference_does(self, data):
        try:
            want = load_vocabulary_ref(data)
        except ValueError as exc:
            with pytest.raises(FormatError) as caught:
                load_vocabulary("vocab.tsv", data)
            assert str(caught.value) == f"vocab.tsv: {exc}"
            return
        got = load_vocabulary("vocab.tsv", data)
        reference = Vocabulary(*want)
        assert got == reference
        assert got.fingerprint() == reference.fingerprint()
        if data == serialize_vocabulary(got).encode("utf-8"):
            assert got.fingerprint() == hashlib.sha256(data).digest()


class TestEncode:
    def setup_method(self):
        self.vocab = build_vocabulary([["a", "b", "c"]], min_count=1)

    def test_basic(self):
        out = encode(["a", "c", "nope"], self.vocab, maxlen=5)
        assert out.dtype == np.int32
        assert out.tolist() == [2, 4, 1, 0, 0]

    def test_truncates_to_first_maxlen(self):
        out = encode(["a", "b", "c"], self.vocab, maxlen=2)
        assert out.tolist() == [2, 3]

    def test_maxlen_validation(self):
        with pytest.raises(ValueError):
            encode(["a"], self.vocab, maxlen=0)

    def test_encode_example_length(self):
        ex = encode_example(["a", "b"], Sentiment.positive, self.vocab, maxlen=4)
        assert ex.indices.tolist() == [2, 3, 0, 0]
        assert ex.label == Sentiment.positive
        long = encode_example(["a"] * 9, Sentiment.neutral, self.vocab, maxlen=4)
        assert long.indices.tolist() == [2] * 4

    _TOKENS = st.lists(st.sampled_from(["a", "b", "c", "zz", "<pad>", "<unk>", "Ａ", "中"]),
                       max_size=9)

    @given(st.lists(_TOKENS, max_size=6), st.integers(1, 10))
    @settings(max_examples=200)
    def test_matches_reference_encoder(self, token_lists, maxlen):
        pairs = [(Sentiment(i % 3), tokens) for i, tokens in enumerate(token_lists)]
        examples = encode_split(pairs, self.vocab, maxlen)
        assert len(examples) == len(pairs)
        for ex, (label, tokens) in zip(examples, pairs):
            want = encode_ref(tokens, self.vocab, maxlen)
            assert ex.indices.dtype == np.int32
            assert ex.indices.tolist() == want.tolist()
            assert ex.label == label
            assert encode(tokens, self.vocab, maxlen).tolist() == want.tolist()
            single = encode_example(tokens, label, self.vocab, maxlen)
            assert (single.indices.tolist(), single.label) == (want.tolist(), label)

    def test_split_rows_share_one_block(self):
        examples = encode_split([(Sentiment.negative, ["a"]), (Sentiment.positive, ["b", "c"])],
                                self.vocab, 3)
        assert examples[0].indices.base is not None
        assert examples[0].indices.base is examples[1].indices.base

    def test_split_validates_maxlen(self):
        with pytest.raises(ValueError):
            encode_split([(Sentiment.negative, ["a"])], self.vocab, 0)
        assert encode_split([], self.vocab, 4) == []


class TestStack:
    @given(st.lists(st.tuples(st.sampled_from(list(Sentiment)),
                              st.lists(st.integers(0, 2 ** 31 - 1), max_size=7)),
                    max_size=6), st.integers(0, 3))
    @settings(max_examples=200)
    def test_matches_row_by_row_reference(self, rows, extra):
        examples = [EncodedExample(np.array(indices, dtype=np.int32), label)
                    for label, indices in rows]
        longest = max([len(indices) for _, indices in rows], default=0)
        for width in (None, longest + extra):
            indices, labels = stack(examples, width)
            want_indices, want_labels = stack_ref(examples, width)
            np.testing.assert_array_equal(indices, want_indices.astype(np.int32), strict=True)
            np.testing.assert_array_equal(labels, want_labels, strict=True)

    def test_split_stacks_back_to_its_block(self):
        vocab = build_vocabulary([["a", "b", "c"]], min_count=1)
        examples = encode_split([(Sentiment.negative, ["a"]), (Sentiment.positive, ["b", "c"]),
                                 (Sentiment.neutral, [])], vocab, 3)
        indices, labels = stack(iter(examples))  # any iterable of examples
        np.testing.assert_array_equal(indices, examples[0].indices.base, strict=True)
        assert labels.tolist() == [0, 2, 1]

    def test_indices_keep_their_dtype(self):
        # int64 indices stay int64: one past int32 is not wrapped to a valid row
        indices, _ = stack([EncodedExample(np.array([2 ** 32 + 2, 3]), Sentiment.neutral),
                            EncodedExample(np.array([4]), Sentiment.positive)])
        assert indices.dtype == np.int64
        assert indices.tolist() == [[2 ** 32 + 2, 3], [4, 0]]

    def test_no_examples(self):
        assert stack([])[0].shape == (0, 0)
        indices, labels = stack([], 5)
        assert indices.shape == (0, 5) and labels.shape == (0,)


class TestLabels:
    def test_parse_names_and_digits(self):
        assert parse_label("negative") == Sentiment.negative == 0
        assert parse_label(" Neutral ") == Sentiment.neutral == 1
        assert parse_label("2") == Sentiment.positive

    def test_parse_rejects_unknown(self):
        with pytest.raises(DatasetError):
            parse_label("meh")
        with pytest.raises(DatasetError, match=r"^unknown label '3' "
                           r"\(expected 0/1/2 or negative/neutral/positive\)$"):
            parse_label("3")

    def test_one_label_set(self):
        # named once, by Sentiment; metrics and nnet reuse the same objects
        metrics, nnet = map(importlib.import_module, ("sentilstm.metrics", "sentilstm.nnet"))
        assert CLASS_NAMES == ("negative", "neutral", "positive") and N_CLASSES == 3
        assert metrics.CLASS_NAMES is CLASS_NAMES and metrics.N_CLASSES is N_CLASSES
        assert nnet.N_CLASSES is N_CLASSES


class TestDatasetIO:
    def test_roundtrip(self, tmp_path):
        records = [RawRecord("so good", Sentiment.positive),
                   RawRecord("it, has commas", Sentiment.negative),
                   RawRecord('a "quoted" word', Sentiment.neutral)]
        path = tmp_path / "d.csv"
        write_csv(path, [r.text for r in records], [int(r.label) for r in records])
        loaded = load_dataset(path)
        assert loaded == records

    def test_named_labels(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,text\npositive,yay\n0,boo\n", encoding="utf-8")
        loaded = load_dataset(path)
        assert [int(r.label) for r in loaded] == [2, 0]

    def test_header_only_gives_empty(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,text\n", encoding="utf-8")
        assert load_dataset(path) == []

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DatasetError):
            load_dataset(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("text,label\nyay,2\n", encoding="utf-8")
        with pytest.raises(DatasetError):
            load_dataset(path)

    def test_bad_row_mentions_row_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,text\n2,ok\nonlyonefield\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="row 3"):
            load_dataset(path)

    def test_bad_label_mentions_row_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,text\n5,what\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="row 2"):
            load_dataset(path)


class TestStratifiedSplit:
    @staticmethod
    def _records(n_neg, n_neu, n_pos):
        labels = ([Sentiment.negative] * n_neg + [Sentiment.neutral] * n_neu
                  + [Sentiment.positive] * n_pos)
        rng = np.random.default_rng(3)
        order = rng.permutation(len(labels))
        return [RawRecord(f"t{i}", labels[i]) for i in order]

    def test_expected_sizes(self):
        records = self._records(40, 20, 40)
        train, test = stratified_split(records, 0.2, seed=7)
        per_class = {}
        for rec in test:
            per_class[int(rec.label)] = per_class.get(int(rec.label), 0) + 1
        assert per_class == {0: 8, 1: 4, 2: 8}
        assert len(train) == 80

    def test_partition_preserves_order(self):
        records = self._records(10, 10, 10)
        train, test = stratified_split(records, 0.3, seed=1)
        texts = {r.text for r in records}
        assert {r.text for r in train} | {r.text for r in test} == texts
        assert not ({r.text for r in train} & {r.text for r in test})
        original_pos = {r.text: i for i, r in enumerate(records)}
        assert [original_pos[r.text] for r in train] == sorted(original_pos[r.text] for r in train)
        assert [original_pos[r.text] for r in test] == sorted(original_pos[r.text] for r in test)

    def test_deterministic(self):
        records = self._records(15, 15, 15)
        a = stratified_split(records, 0.25, seed=9)
        b = stratified_split(records, 0.25, seed=9)
        assert a == b
        c = stratified_split(records, 0.25, seed=10)
        assert a != c

    def test_both_sides_keep_every_class(self):
        records = self._records(2, 2, 2)
        train, test = stratified_split(records, 0.1, seed=0)
        assert {int(r.label) for r in train} == {0, 1, 2}
        assert {int(r.label) for r in test} == {0, 1, 2}

    def test_single_example_class_rejected(self):
        records = self._records(5, 5, 5)[:-1] + [RawRecord("solo", Sentiment.positive)]
        records = [r for r in records if int(r.label) != 2] + [RawRecord("solo", Sentiment.positive)]
        with pytest.raises(DatasetError):
            stratified_split(records, 0.2, seed=0)

    def test_fraction_validation(self):
        records = self._records(3, 3, 3)
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                stratified_split(records, bad, seed=0)


class TestEncodedIO:
    VOCAB = build_vocabulary([["a", "b"]], min_count=1)

    def _save(self, path, indices, labels, maxlen=3, dtype="i32", fields=None):
        """A split container written field by field, so that a test can
        make any one of them wrong."""
        binio.save(path, "encoded", self.VOCAB.fingerprint(),
                   {"indices": np.array(indices), "labels": np.array(labels)}, dtype,
                   {"maxlen": maxlen} if fields is None else fields)

    def test_roundtrip(self, tmp_path):
        examples = [encode_example(["a"], Sentiment.negative, self.VOCAB, 3),
                    encode_example(["b", "a", "b"], Sentiment.positive, self.VOCAB, 3),
                    encode_example(["x", "b"], Sentiment.neutral, self.VOCAB, 3)]
        path = tmp_path / "enc.tsv"
        digest = save_encoded(examples, 3, path, self.VOCAB.fingerprint())
        assert digest == binio.sha256_file(path)
        loaded, maxlen = load_encoded(path, self.VOCAB)
        assert maxlen == 3
        assert [(ex.indices.tolist(), ex.label) for ex in loaded] == \
            [(ex.indices.tolist(), ex.label) for ex in examples]
        assert all(type(ex.label) is Sentiment for ex in loaded)
        block = loaded[0].indices.base
        assert block.dtype == np.int32 and block.shape == (3, 3)
        assert all(ex.indices.base is block for ex in loaded)

    def test_empty_split_roundtrip(self, tmp_path):
        path = tmp_path / "enc.tsv"
        save_encoded([], 5, path, self.VOCAB.fingerprint())
        assert load_encoded(path, self.VOCAB) == ([], 5)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "enc.tsv"
        path.write_text("#wrong\n")
        with pytest.raises(FormatError):
            load_encoded(path)

    def test_rejects_wrong_width(self, tmp_path):
        path = tmp_path / "enc.tsv"
        self._save(path, [[2, 0]], [0])
        with pytest.raises(FormatError, match="maxlen"):
            load_encoded(path)

    def test_text_split_names_preprocess(self, tmp_path):
        path = tmp_path / "enc.tsv"
        path.write_text("#senti-encoded v1 maxlen=3\n0\t1\t2 0 0\n")
        with pytest.raises(FormatError, match="re-run preprocess"):
            load_encoded(path)

    @pytest.mark.parametrize("indices, labels, kwargs, message", [
        ([[2, 0, 0]], [0, 1], {}, "labels"),
        ([2, 0, 0], [0], {}, "indices"),
        ([[2, 0, 0]], 0, {}, "labels"),
        ([[2, 0, 0]], [0], {"fields": {}}, "maxlen"),
        ([[2, 0, 0]], [0], {"fields": {"maxlen": 3, "n": 1}}, "maxlen"),
        ([[2, 0, 0]], [0], {"dtype": "f32"}, "int32"),
    ], ids=["labels-count", "indices-1d", "labels-0d", "no-maxlen", "extra-field",
            "float-tensors"])
    def test_bad_container_is_format_error(self, tmp_path, indices, labels, kwargs, message):
        path = tmp_path / "enc.tsv"
        self._save(path, indices, labels, **kwargs)
        with pytest.raises(FormatError, match=message):
            load_encoded(path)

    @staticmethod
    def _valid_lines(n, maxlen=3):
        return [f"{i % 3}\t2\t{i % 7 + 2} 5{' 0' * (maxlen - 2)}" for i in range(n)]

    def _save_lines(self, path, lines, maxlen=3):
        """A split whose rows are given as lines of the text format that
        preceded the container, label<TAB>length<TAB>indices; the length
        is not stored."""
        rows = [line.split("\t") for line in lines]
        self._save(path, [list(map(int, row[2].split())) for row in rows],
                   [int(row[0]) for row in rows], maxlen)

    @pytest.mark.parametrize("line, message", [
        ("7\t1\t2 0 0", "label '7'"),
        ("-1\t1\t2 0 0", "label '-1'"),
        ("0\t1\t2 -1 0", "negative token index"),
    ])
    def test_bad_field_is_format_error_with_line(self, tmp_path, line, message):
        path = tmp_path / "enc.tsv"
        self._save_lines(path, ["0\t1\t2 0 0", line])
        with pytest.raises(FormatError, match=f"row 2: .*{message}"):
            load_encoded(path)

    @pytest.mark.parametrize("width", [2, 4])
    def test_last_line_off_by_one_width(self, tmp_path, width):
        # every row of a container has the block's width, so rows one index
        # short or long are refused as a whole
        path = tmp_path / "enc.tsv"
        self._save_lines(path, self._valid_lines(51, maxlen=width), maxlen=3)
        with pytest.raises(FormatError,
                           match=rf"expected 3 indices per row \(maxlen\), got {width}$"):
            load_encoded(path)

    def test_fifty_good_lines_load_as_one_block(self, tmp_path):
        path = tmp_path / "enc.tsv"
        self._save_lines(path, self._valid_lines(50))
        examples, maxlen = load_encoded(path)
        assert maxlen == 3
        assert [ex.indices.tolist() for ex in examples] == \
            [[i % 7 + 2, 5, 0] for i in range(50)]
        assert [int(ex.label) for ex in examples] == [i % 3 for i in range(50)]
        assert all(ex.indices.dtype == np.int32 for ex in examples)
        assert examples[0].indices.base is examples[-1].indices.base

    @pytest.mark.parametrize("line, message", [
        ("7\t1\t2 0 0", "label '7'"),
        ("0\t1\t2 -1 0", "negative token index"),
    ])
    def test_bad_middle_line_of_fifty_is_named(self, tmp_path, line, message):
        # the bad row is row 26; a later row is bad too, and is not the one named
        lines = self._valid_lines(50)
        lines[25] = line
        lines[40] = "9\t1\t2 0 0"
        path = tmp_path / "enc.tsv"
        self._save_lines(path, lines)
        with pytest.raises(FormatError, match=f"row 26: .*{message}"):
            load_encoded(path)

    @staticmethod
    @st.composite
    def _container(draw):
        """The fields and tensors of a split container, mostly valid; about
        one row in five has an odd label or index, and about one container
        in three has a wrong layout."""
        maxlen, n = draw(st.integers(0, 4)), draw(st.integers(0, 6))
        labels = [draw(st.integers(0, 2)) for _ in range(n)]
        indices = [[draw(st.integers(0, 40)) for _ in range(maxlen)] for _ in range(n)]
        for row in range(n):
            if draw(st.integers(0, 4)) == 0:
                if draw(st.booleans()) or not maxlen:
                    labels[row] = draw(st.sampled_from([-2 ** 31, -1, 3, 7, 2 ** 31 - 1]))
                else:
                    indices[row][draw(st.integers(0, maxlen - 1))] = \
                        draw(st.sampled_from([-2 ** 31, -40, -1]))
        fields = {"maxlen": maxlen}
        tensors = {"indices": np.array(indices, dtype=np.int64).reshape(n, maxlen),
                   "labels": np.array(labels, dtype=np.int64)}
        dtype = "i32"
        layout = draw(st.sampled_from(["valid"] * 12 + ["short", "long", "no-maxlen",
                                                        "extra-field", "labels-count",
                                                        "f32", "swapped"]))
        if layout == "short":
            fields["maxlen"] = maxlen + 1
        elif layout == "long" and maxlen:
            fields["maxlen"] = maxlen - 1
        elif layout == "no-maxlen":
            fields = {}
        elif layout == "extra-field":
            fields["n"] = n
        elif layout == "labels-count":
            tensors["labels"] = tensors["labels"][:-1] if n else np.array([0])
        elif layout == "f32":
            dtype = "f32"
        elif layout == "swapped":
            tensors = {"labels": tensors["labels"], "indices": tensors["indices"]}
        return fields, tensors, dtype

    @given(_container())
    @settings(max_examples=400)
    def test_accepts_and_refuses_what_the_reference_does(self, container):
        data = encoded_container_ref(self.VOCAB.fingerprint(), *container)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "enc.tsv"
            path.write_bytes(data)
            try:
                binding, want_maxlen, want = load_encoded_ref(data)
            except ValueError as exc:
                with pytest.raises(FormatError) as caught:
                    load_encoded(path)
                assert str(caught.value) == f"{path}: {exc}"
                return
            examples, maxlen = load_encoded(path)
        assert binding == self.VOCAB.fingerprint()
        assert (maxlen, [(int(ex.label), ex.indices.tolist()) for ex in examples]) == \
            (want_maxlen, want)

    @given(st.lists(st.tuples(st.integers(0, 2),
                              st.lists(st.integers(0, 2 ** 31 - 1), min_size=3, max_size=3)),
                    max_size=6))
    @settings(max_examples=200)
    def test_writes_the_bytes_of_the_reference_writer(self, rows):
        examples = [EncodedExample(np.array(indices, dtype=np.int32), Sentiment(label))
                    for label, indices in rows]
        examples += encode_split([(Sentiment.neutral, ["b", "x", "a", "a"]),
                                  (Sentiment.positive, ["a"])], self.VOCAB, 3)
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got.tsv", Path(tmp) / "want.tsv"
            digest = save_encoded(examples, 3, got, self.VOCAB.fingerprint())
            save_encoded_ref(examples, 3, want, self.VOCAB.fingerprint())
            assert got.read_bytes() == want.read_bytes()
            assert digest == hashlib.sha256(want.read_bytes()).hexdigest()

    @pytest.mark.parametrize("indices, label", [
        ([2 ** 32 + 2, 3, 0], 1), ([2, 3, 0], 2 ** 32 + 1), ([2 ** 31, 3, 0], 1),
        ([-2 ** 31 - 1, 3, 0], 1), ([2, 3, 0], -2 ** 31 - 1)],
        ids=["index-2**32+2", "label-2**32+1", "index-2**31", "index-below", "label-below"])
    def test_value_outside_int32_refused_before_writing(self, tmp_path, indices, label):
        # an int32 cast would wrap 2**32 + 2 to 2, a valid row
        example = EncodedExample(np.array(indices, dtype=np.int64), label)
        with pytest.raises(FormatError, match="^refusing to save out-of-range tensor "):
            save_encoded([example], 3, tmp_path / "enc.tsv", self.VOCAB.fingerprint())
        assert list(tmp_path.iterdir()) == []

    def test_binding_and_range_checked_against_the_vocabulary(self, tmp_path):
        path = tmp_path / "enc.tsv"
        other = build_vocabulary([["a", "c"]], min_count=1)
        self._save(path, [[2, 3, 0]], [1])
        assert load_encoded(path, self.VOCAB)[0][0].indices.tolist() == [2, 3, 0]
        with pytest.raises(FormatError, match="different vocabulary"):
            load_encoded(path, other)
        self._save(path, [[2, 4, 0]], [1])  # one past the last row
        with pytest.raises(DatasetError, match="token index 4 is outside"):
            load_encoded(path, self.VOCAB)
        assert load_encoded(path)[1] == 3  # no vocabulary: no range to check


class TestAtomicWrites:
    def test_digest_is_of_the_bytes_written(self, tmp_path):
        path = tmp_path / "f.bin"
        assert binio.write_atomic(path, b"abc") == hashlib.sha256(b"abc").hexdigest()
        assert path.read_bytes() == b"abc"
        vocab = build_vocabulary([["a", "a", "b"]], min_count=1)
        digest = save_vocabulary(vocab, tmp_path / "vocab.tsv")
        assert digest == binio.sha256_file(tmp_path / "vocab.tsv")

    def test_failed_rename_keeps_the_previous_files(self, tmp_path, monkeypatch):
        vocab = build_vocabulary([["a", "a", "b"]], min_count=1)
        vocab_path, split_path = tmp_path / "vocab.tsv", tmp_path / "train.tsv"
        save_vocabulary(vocab, vocab_path)
        save_encoded(encode_split([(Sentiment.negative, ["a", "b"])], vocab, 3), 3, split_path,
                     vocab.fingerprint())
        before = {path: path.read_bytes() for path in (vocab_path, split_path)}

        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        other = build_vocabulary([["c", "d", "e"]], min_count=1)
        with pytest.raises(OSError, match="rename failed"):
            save_vocabulary(other, vocab_path)
        with pytest.raises(OSError, match="rename failed"):
            save_encoded(encode_split([(Sentiment.positive, ["e"])] * 4, other, 5), 5, split_path,
                         other.fingerprint())
        monkeypatch.undo()
        assert {path: path.read_bytes() for path in before} == before
        assert sorted(os.listdir(tmp_path)) == ["train.tsv", "vocab.tsv"]
