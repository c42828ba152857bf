"""Every binary artifact, the encoded splits included, is tamper-evident:
one flipped byte or one cut anywhere in the file, or a valid file of
another kind, is refused with FormatError by its loader and with one
`error:` line by the CLI. So is a well-formed container whose field or
tensor names are renamed, missing, extra or out of order. A checkpoint's
`vocab.tsv` with a flipped byte, a cut, two digits swapped or another line
break, its manifest digest repaired, gives the untampered answer or one
`error:` line."""

import contextlib
import importlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentilstm import binio
from sentilstm.baselines import (count_features, load_baseline, logreg_fit,
                                 naive_bayes_fit, save_baseline)
from sentilstm.cli import main
from sentilstm.corpus import build_vocabulary, encode_example, load_encoded, save_encoded
from sentilstm.embedding import load_embeddings, random_embedding
from sentilstm.errors import FormatError
from sentilstm.nnet import init_lstm_params, init_rnn_params
from sentilstm.train import load_model, save_checkpoint

from synthetic import keyword_corpus, write_csv

train_mod = importlib.import_module("sentilstm.train")

# artifact path (relative to the fixture root) -> the loader that reads it
LOADERS = {
    "lstm/model.bin": load_model,
    "rnn/model.bin": load_model,
    "lstm/embeddings.bin": load_embeddings,
    "naive_bayes.bin": load_baseline,
    "logreg.bin": load_baseline,
    "prep/train.tsv": load_encoded,
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """An LSTM and an RNN checkpoint, both baselines and an encoded split,
    built from a small keyword corpus, plus that corpus as a CSV for
    `evaluate`."""
    root = tmp_path_factory.mktemp("artifacts")
    texts, labels = keyword_corpus(n_per_class=6)
    write_csv(root / "data.csv", texts, labels)
    tokens = [t.split() for t in texts]
    vocab = build_vocabulary(tokens, min_count=1)
    embedding = random_embedding(vocab, dim=4, seed=1)
    for name, params in (("lstm", init_lstm_params(3, 4, seed=2)),
                         ("rnn", init_rnn_params(3, 4, seed=3))):
        save_checkpoint(root / name, params, embedding, vocab, maxlen=6,
                        tokenizer_mode="whitespace")
    examples = [encode_example(t, label, vocab, 6) for t, label in zip(tokens, labels)]
    (root / "prep").mkdir()
    save_encoded(examples, 6, root / "prep" / "train.tsv", vocab.fingerprint())
    counts = count_features([ex.indices for ex in examples], vocab.n_tokens)
    save_baseline(naive_bayes_fit(counts, labels), root / "naive_bayes.bin", vocab.fingerprint())
    save_baseline(logreg_fit(counts, np.array(labels)), root / "logreg.bin", vocab.fingerprint())
    return root


def _evaluate(checkpoint, data):
    """(exit code, stdout, stderr lines) of an in-process `evaluate`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["evaluate", "--checkpoint", str(checkpoint), "--data", str(data), "--quiet"])
    return rc, out.getvalue(), err.getvalue().splitlines()


def _evaluate_stderr(checkpoint, data):
    rc, _, err = _evaluate(checkpoint, data)
    return rc, err


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(LOADERS)), data=st.data())
def test_tampered_or_foreign_artifact_refused(artifacts, name, data):
    load = LOADERS[name]
    original = (artifacts / name).read_bytes()
    offset = data.draw(st.integers(0, len(original) - 1), label="offset")
    if data.draw(st.booleans(), label="truncate"):
        tampered = original[:offset]
    else:
        tampered = bytearray(original)
        tampered[offset] ^= data.draw(st.integers(1, 255), label="xor")
    foreign = data.draw(st.sampled_from(
        [other for other, loader in LOADERS.items() if loader is not load]), label="foreign")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / Path(name).name
        path.write_bytes(bytes(tampered))
        with pytest.raises(FormatError):
            load(path)
        with pytest.raises(FormatError):
            load(artifacts / foreign)

        if load is load_encoded:  # evaluated as --data: through the CLI as well
            rc, err = _evaluate_stderr(artifacts / "lstm", path)
            assert rc == 1
            assert len(err) == 1 and err[0].startswith("error: "), err
        elif "/" in name:  # part of a checkpoint: through the CLI as well
            checkpoint = Path(tmp) / "ckpt"
            shutil.copytree(artifacts / Path(name).parent, checkpoint)
            (checkpoint / path.name).write_bytes(bytes(tampered))
            # repair the manifest digest, so the container's own checks are
            # what refuses the file
            manifest = json.loads((checkpoint / "manifest.json").read_text())
            manifest["checksums"][path.name] = binio.sha256_file(checkpoint / path.name)
            (checkpoint / "manifest.json").write_text(json.dumps(manifest))
            rc, err = _evaluate_stderr(checkpoint, artifacts / "data.csv")
            assert rc == 1
            assert len(err) == 1 and err[0].startswith("error: "), err


# artifact path -> its (field count, tensor count), for the layout changes that apply
COUNTS = {"lstm/model.bin": (1, 10), "rnn/model.bin": (1, 4), "lstm/embeddings.bin": (0, 1),
          "naive_bayes.bin": (0, 2), "logreg.bin": (0, 3), "prep/train.tsv": (1, 2)}
# a layout change of a list of (name, value) entries, and the fewest entries it needs
LAYOUT_CHANGES = {
    "renamed": (lambda items: [(items[0][0] + "_", items[0][1])] + items[1:], 1),
    "missing": (lambda items: items[:-1], 1),
    "extra": (lambda items: items + [("extra", items[-1][1] if items else 1)], 0),
    "reordered": (lambda items: items[::-1], 2),
}
DTYPES = {"lstm": "f32", "rnn": "f32", "embedding": "f32", "naive-bayes": "f64",
          "logreg": "f64", "encoded": "i32"}


def _relaid(source, target, part, change):
    """Write the container at `source` to `target` with its "fields" or
    "tensors" changed by `change`; returns the message its loader refuses
    it with, after the path."""
    reader = binio.Reader(binio.strip_crc(memoryview(source.read_bytes())))
    reader.take(len(binio.MAGIC) + 4)  # the magic and the version
    kind, binding = reader.text(), bytes(reader.take(32))
    layout = {"fields": reader.named(reader.u32), "tensors": reader.named(reader.tensor)}
    relaid = dict(layout, **{part: dict(LAYOUT_CHANGES[change][0](list(layout[part].items())))})
    binio.save(target, kind, binding, relaid["tensors"], DTYPES[kind], relaid["fields"])
    return (f"{kind} fields {list(relaid['fields'])} and tensors {list(relaid['tensors'])} "
            f"are not {list(layout['fields'])} and {list(layout['tensors'])}")


@pytest.mark.parametrize("name, part, change", [
    (name, part, change) for name, counts in COUNTS.items()
    for part, count in zip(("fields", "tensors"), counts)
    for change, (_, fewest) in LAYOUT_CHANGES.items() if count >= fewest])
def test_other_layout_refused_with_one_message(artifacts, tmp_path, capsys, name, part, change):
    """By its loader, with the container's message; through the CLI (a
    split by `train`, a checkpoint file by `predict`), as one `error:` line."""
    path = tmp_path / Path(name).name
    message = _relaid(artifacts / name, path, part, change)
    with pytest.raises(FormatError) as caught:
        LOADERS[name](path)
    assert str(caught.value) == f"{path}: {message}"

    if LOADERS[name] is load_encoded:
        prep = tmp_path / "prep"
        assert main(["preprocess", "--data", str(artifacts / "data.csv"), "--output-dir",
                     str(prep), "--min-count", "1", "--maxlen", "6", "--quiet"]) == 0
        path = prep / "train.tsv"
        message = _relaid(path, path, part, change)
        argv = ["train", "--input-dir", str(prep), "--random-init", "--dim", "4"]
    elif "/" in name:
        checkpoint = tmp_path / "ckpt"
        shutil.copytree(artifacts / Path(name).parent, checkpoint)
        shutil.copy(path, checkpoint / path.name)
        path = checkpoint / path.name
        manifest = json.loads((checkpoint / "manifest.json").read_text())
        manifest["checksums"][path.name] = binio.sha256_file(path)
        (checkpoint / "manifest.json").write_text(json.dumps(manifest))
        argv = ["predict", "--checkpoint", str(checkpoint), "good day"]
    else:  # a baseline: no command reads one
        return
    capsys.readouterr()
    assert main(argv + ["--output-dir", str(tmp_path / "out"), "--quiet"]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: {message}"]


@st.composite
def _tampered_vocabulary(draw, text):
    r"""`text` with a flipped byte, a cut, two digits swapped, or a "\r\n",
    "\v", "\x85" or "\u2028" put in at a position or in place of a "\n"."""
    kind = draw(st.sampled_from(["flip", "truncate", "digits", "break"]), label="kind")
    data = text.encode("utf-8")
    if kind == "flip":
        flipped = bytearray(data)
        flipped[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
        return bytes(flipped)
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if kind == "digits":
        at = [i for i, ch in enumerate(text) if ch.isdigit()]
        i, j = sorted(draw(st.lists(st.sampled_from(at), min_size=2, max_size=2, unique=True)))
        return (text[:i] + text[j] + text[i + 1:j] + text[i] + text[j + 1:]).encode("utf-8")
    at = draw(st.integers(0, len(text)), label="at")
    end = at + 1 if at < len(text) and text[at] == "\n" and draw(st.booleans()) else at
    return (text[:at] + draw(st.sampled_from(["\r\n", "\v", "\x85", "\u2028"]))
            + text[end:]).encode("utf-8")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_tampered_vocabulary_is_the_same_answer_or_one_error_line(artifacts, data):
    """A checkpoint's vocab.tsv edited, its manifest digest repaired: each of
    two evaluates in one process (a parse, then its reuse) prints what the
    untampered checkpoint prints, or exits 1 with one `error:` line."""
    original = (artifacts / "lstm" / "vocab.tsv").read_text(encoding="utf-8")
    untampered = _evaluate(artifacts / "lstm", artifacts / "data.csv")
    tampered = data.draw(_tampered_vocabulary(original), label="vocab.tsv")

    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = Path(tmp) / "ckpt"
        shutil.copytree(artifacts / "lstm", checkpoint)
        (checkpoint / "vocab.tsv").write_bytes(tampered)
        manifest = json.loads((checkpoint / "manifest.json").read_text())
        manifest["checksums"]["vocab.tsv"] = binio.sha256_file(checkpoint / "vocab.tsv")
        (checkpoint / "manifest.json").write_text(json.dumps(manifest))
        train_mod._parsed.clear()  # the first evaluate parses this checkpoint
        for _ in range(2):
            rc, out, err = _evaluate(checkpoint, artifacts / "data.csv")
            if rc == 0:
                assert (rc, out, err) == untampered
            else:
                assert rc == 1 and out == ""
                assert len(err) == 1 and err[0].startswith("error: "), err


def test_untampered_artifacts_load(artifacts):
    for name, load in LOADERS.items():
        load(artifacts / name)
    for name in ("lstm", "rnn"):
        assert _evaluate_stderr(artifacts / name, artifacts / "data.csv") == (0, [])
        assert _evaluate_stderr(artifacts / name, artifacts / "prep" / "train.tsv") == (0, [])
