"""End-to-end CLI tests: option precedence, every subcommand against a real
temp-directory pipeline, and the documented error paths."""

import argparse
import codecs
import dataclasses
import hashlib
import io
import json
import logging
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sentilstm
from sentilstm import binio, cli
from sentilstm.baselines import LogRegConfig
from sentilstm.cli import (OPTIONS, OUTPUT_DIR_ENV, RunConfig, build_parser, main,
                           merge_config)
from sentilstm.corpus import load_encoded, load_vocabulary
from sentilstm.embedding import (EmbeddingConfig, EmbeddingMatrix, load_embeddings,
                                 random_embedding, save_embeddings)
from sentilstm.errors import OptionError, SentiError
from sentilstm.nnet import init_lstm_params
from sentilstm.train import (TrainConfig, load_checkpoint, load_model, save_checkpoint,
                             save_model)

from synthetic import keyword_corpus, write_csv
from test_train import repair_digest


def namespace(**kwargs):
    return argparse.Namespace(**kwargs)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)


# ---------------------------------------------------------------------------
# option precedence


class TestMergeConfig:
    def test_defaults(self):
        cfg = merge_config(namespace())
        assert cfg == RunConfig()
        assert cfg.maxlen == 100
        assert cfg.min_count == 10
        assert cfg.hidden == 50
        assert cfg.epochs == 4
        assert cfg.dim == 100
        assert cfg.window == 7
        assert cfg.iterations == 10
        assert cfg.explicit == frozenset()

    def test_flags_recorded_as_explicit(self):
        cfg = merge_config(namespace(maxlen=40, seed=9))
        assert cfg.maxlen == 40
        assert cfg.seed == 9
        assert cfg.explicit == {"maxlen", "seed"}

    def test_config_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({"maxlen": 60, "hidden": 12}))
        cfg = merge_config(namespace(config=str(path)))
        assert cfg.maxlen == 60
        assert cfg.hidden == 12

    def test_flags_beat_config_file(self, tmp_path):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({"maxlen": 60}))
        cfg = merge_config(namespace(config=str(path), maxlen=25))
        assert cfg.maxlen == 25

    def test_env_beats_config_for_output_dir(self, tmp_path, monkeypatch):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({"output_dir": "from-config"}))
        monkeypatch.setenv(OUTPUT_DIR_ENV, "from-env")
        cfg = merge_config(namespace(config=str(path)))
        assert cfg.output_dir == "from-env"

    def test_flag_beats_env_for_output_dir(self, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, "from-env")
        cfg = merge_config(namespace(output_dir="from-flag"))
        assert cfg.output_dir == "from-flag"

    def test_env_ignored_when_unset(self):
        assert merge_config(namespace()).output_dir == "senti-out"

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({"hidden_units": 8}))
        from sentilstm.errors import SentiError
        with pytest.raises(SentiError, match="hidden_units"):
            merge_config(namespace(config=str(path)))

    def test_missing_config_file(self):
        from sentilstm.errors import SentiError
        with pytest.raises(SentiError, match="not found"):
            merge_config(namespace(config="/nonexistent/conf.json"))

    def test_invalid_json_config(self, tmp_path):
        path = tmp_path / "conf.json"
        path.write_text("{not json")
        from sentilstm.errors import SentiError
        with pytest.raises(SentiError, match="invalid JSON"):
            merge_config(namespace(config=str(path)))

    def test_non_object_config(self, tmp_path):
        path = tmp_path / "conf.json"
        path.write_text("[1, 2]")
        from sentilstm.errors import SentiError
        with pytest.raises(SentiError, match="JSON object"):
            merge_config(namespace(config=str(path)))

    def test_invalid_value_surfaces_as_senti_error(self, tmp_path):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({"maxlen": 0}))
        from sentilstm.errors import SentiError
        with pytest.raises(SentiError, match="maxlen"):
            merge_config(namespace(config=str(path)))

    def test_documented_boundaries_accepted(self):
        cfg = merge_config(namespace(clip_norm=0.0, negatives=0, seed=0))
        assert (cfg.clip_norm, cfg.negatives, cfg.seed) == (0.0, 0, 0)
        assert cfg.learning_rate is None


# a valid --config file that sets every option away from its default
VALID_CONFIG = {
    "maxlen": 40, "min_count": 2, "tokenizer": "whitespace", "test_fraction": 0.25,
    "dim": 8, "window": 3, "iterations": 2, "negatives": 0, "embedding_lr": 0.05,
    "hidden": 6, "model": "rnn", "epochs": 1, "batch_size": 4, "optimizer": "sgd",
    "learning_rate": 0.1, "clip_norm": 0.0, "averaging": "micro", "seed": 0,
    "output_dir": "out",
}
OTHER_JSON_TYPES = (None, True, False, 0, -3, 2.5, 10 ** 400, "", "x", [], [1], {}, {"a": 1})
NOT_UTF8 = (b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xfe\xff")
JSON_LITERALS = ("NaN", "-NaN", "Infinity", "-Infinity", "1e999", "-1e999",
                 "9" * 4301, "-" + "1" * 5000, "1" * 400, "1" * 400 + ".0")


@st.composite
def fuzzed_config(draw):
    """The bytes of VALID_CONFIG with one to three value mutations, then
    (half the time) byte flips and bytes that are not UTF-8."""
    config = dict(VALID_CONFIG)
    literals = {}  # placeholder string -> the JSON text that replaces it
    tail = []  # extra `"key": value` members: duplicate keys
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(sorted(config)))
        kind = draw(st.sampled_from(("type", "literal", "nesting", "duplicate")))
        if kind == "type":
            config[key] = draw(st.sampled_from(OTHER_JSON_TYPES))
        elif kind == "literal":
            literals[f"@{key}@"] = draw(st.sampled_from(JSON_LITERALS))
            config[key] = f"@{key}@"
        elif kind == "nesting":
            depth = draw(st.sampled_from((1, 2, 50, 5000, 100_000)))
            closed = draw(st.booleans())
            literals[f"@{key}@"] = "[" * depth + ("0" + "]" * depth if closed else "")
            config[key] = f"@{key}@"
        else:
            value = draw(st.sampled_from(OTHER_JSON_TYPES + (VALID_CONFIG[key],)))
            tail.append(f"{json.dumps(key)}: {json.dumps(value)}")
    text = json.dumps(config)
    for placeholder, literal in literals.items():
        text = text.replace(json.dumps(placeholder), literal)
    if tail:
        text = text[:-1] + ", " + ", ".join(tail) + "}"
    raw = bytearray(text.encode("utf-8"))
    if not draw(st.booleans()):  # half the files keep their bytes
        return bytes(raw)
    for _ in range(draw(st.integers(0, 3))):  # byte flips
        at = draw(st.integers(0, len(raw) - 1))
        raw[at] ^= draw(st.integers(1, 255))
    for _ in range(draw(st.integers(0, 2))):  # bytes that are not UTF-8
        at = draw(st.integers(0, len(raw)))
        raw[at:at] = draw(st.sampled_from(NOT_UTF8))
    return bytes(raw)


class TestConfigFuzz:
    """merge_config alone, in process: a fuzzed --config file gives a
    RunConfig or a SentiError, never another exception. No pipeline runs, so
    no fuzzed size is ever allocated."""

    def test_valid_config_is_read(self, tmp_path):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(VALID_CONFIG))
        cfg = merge_config(namespace(config=str(path)))
        assert {name: getattr(cfg, name) for name in OPTIONS} == VALID_CONFIG

    @settings(max_examples=500, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(raw=fuzzed_config())
    def test_fuzzed_config_is_run_config_or_senti_error(self, raw, tmp_path):
        path = tmp_path / "conf.json"
        path.write_bytes(raw)
        try:
            cfg = merge_config(namespace(config=str(path)))
        except SentiError:
            return
        assert isinstance(cfg, RunConfig)


# ---------------------------------------------------------------------------
# pipeline fixtures


@pytest.fixture(scope="module")
def corpus_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.csv"
    texts, labels = keyword_corpus(n_per_class=10)
    write_csv(path, texts, labels)
    return str(path)


@pytest.fixture(scope="module")
def preprocessed(tmp_path_factory, corpus_csv):
    out = str(tmp_path_factory.mktemp("prep"))
    rc = main(["preprocess", "--data", corpus_csv, "--output-dir", out,
               "--min-count", "1", "--maxlen", "8", "--quiet"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory, preprocessed):
    out = str(tmp_path_factory.mktemp("ckpt"))
    rc = main(["train", "--input-dir", preprocessed, "--random-init",
               "--dim", "6", "--hidden", "8", "--epochs", "2",
               "--output-dir", out, "--quiet"])
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# preprocess


# Fixed corpora whose preprocess outputs are pinned by SHA-256 digest: URLs,
# @user, #topic#, full-width punctuation, one row that cleans to nothing.
GOLDEN_CORPORA = {
    "latin": [
        (2, "Loved it!!! see https://example.com/a?b=1 #FilmNight# @bob_99"),
        (2, "great acting, great story :-) www.movies.org/x"),
        (2, "Wonderful… truly the best！ @ann"),
        (2, "best day ever ＃tag＃ love it"),
        (0, "terrible plot; awful pacing -- never again"),
        (0, "worst film @critic said so #fail#"),
        (0, "bad bad BAD. http://t.co/xyz"),
        (0, "awful（really）awful"),
        (1, "it was a film, it had actors"),
        (1, "okay I guess ... www.x.io"),
        (1, "normal day, normal table report"),
        (1, "“quoted” neutral text ￥100"),
        (1, "!!! ... ???"),
    ],
    "cjk": [
        (2, "这部电影太好看了！推荐 http://t.cn/abc"),
        (2, "#好片# 演员很棒，剧情很好"),
        (2, "喜欢喜欢！@小明 一起看"),
        (2, "非常精彩。。。值得一看"),
        (0, "太糟糕了，浪费时间！"),
        (0, "难看 @用户 别去看 www.bad.cn"),
        (0, "剧情很烂？？？#差评#"),
        (0, "讨厌这种电影（真的）"),
        (1, "一般般吧，还行"),
        (1, "电影是昨天看的。"),
        (1, "没什么感觉 ok"),
        (1, "普通的故事，普通的演员 ￥35"),
        (1, "！！！"),
    ],
}
GOLDEN_ARGS = ["--min-count", "1", "--maxlen", "8", "--test-fraction", "0.25", "--quiet"]
# meta.json and vocab.tsv recorded from the per-character front end these
# files were first written by; the splits from the first container writer
GOLDEN_DIGESTS = {
    "latin": {
        "meta.json": "a0e74558daee98ded13fd0069c7bb9031d1b4794e36e0e7707c5d1b4394c5aa7",
        "test.tsv": "2bb53dbbe0a911c5be9e349e0a99a04d3c041557ed62eb4cc7df1be621d12f97",
        "train.tsv": "1d8c707f3a2eefc877bda0872888ecb85b7cb250a0e74038a488391366a3d9bb",
        "vocab.tsv": "1f0ec9361c0b804f49fa88cad097e95c47641ac039da8f5aea4648a753ef31df",
    },
    "cjk": {
        "meta.json": "b1a2198e880b247ff2bbfc60c9e849fd5ce523773f2957baca72b6e858919ff6",
        "test.tsv": "2ac3f4b7579736e0c637ffa3b02358e228a76608b4a37a43b7832c01a95c4c07",
        "train.tsv": "a559eb8fa7bcdce0b2f9e4029152ed83b28ff76853a441bdec3fc4a9c9b3aafa",
        "vocab.tsv": "93666deccf0c9d93bd476c01929937583cc8fa6acfc2018f819b815906bd8e3c",
    },
}


class TestPreprocess:
    @pytest.mark.parametrize("name, tokenizer", [("latin", "whitespace"), ("cjk", "character")])
    def test_golden_digests(self, tmp_path, name, tokenizer):
        labels, texts = zip(*GOLDEN_CORPORA[name])
        write_csv(tmp_path / "corpus.csv", texts, labels)
        out = tmp_path / "prep"
        assert main(["preprocess", "--data", str(tmp_path / "corpus.csv"),
                     "--output-dir", str(out)] + GOLDEN_ARGS) == 0
        assert json.loads((out / "meta.json").read_text())["tokenizer"] == tokenizer
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in sorted(out.iterdir())}
        assert digests == GOLDEN_DIGESTS[name]

    def test_byte_order_mark_is_read_past(self, tmp_path, corpus_csv, trained_checkpoint,
                                         capsys):
        # Excel's "CSV UTF-8" export starts with one
        trees, reports = {}, {}
        for name, mark in (("plain", b""), ("bom", codecs.BOM_UTF8)):
            data = tmp_path / name / "corpus.csv"
            data.parent.mkdir()
            data.write_bytes(mark + Path(corpus_csv).read_bytes())
            out = tmp_path / name / "prep"
            assert main(["preprocess", "--data", str(data), "--output-dir", str(out),
                         "--min-count", "1", "--maxlen", "8", "--quiet"]) == 0
            trees[name] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
            capsys.readouterr()
            assert main(["evaluate", "--checkpoint", trained_checkpoint, "--data", str(data),
                         "--format", "json", "--quiet"]) == 0
            reports[name] = capsys.readouterr().out
        assert trees["bom"] == trees["plain"]
        assert reports["bom"] == reports["plain"]

    def test_artifacts_and_meta(self, preprocessed):
        import os
        for name in ("vocab.tsv", "train.tsv", "test.tsv", "meta.json"):
            assert os.path.exists(os.path.join(preprocessed, name))
        with open(os.path.join(preprocessed, "meta.json")) as f:
            meta = json.load(f)
        assert meta["format"] == "senti-preprocess"
        assert meta["n_train"] + meta["n_test"] == 30
        assert meta["n_dropped_empty"] == 0
        assert meta["maxlen"] == 8
        assert meta["tokenizer"] == "whitespace"
        assert meta["vocab_size"] > 0
        assert sum(meta["train_class_counts"].values()) == meta["n_train"]
        assert sum(meta["test_class_counts"].values()) == meta["n_test"]

    def test_class_counts_are_those_of_the_splits(self, tmp_path):
        texts, labels = keyword_corpus(n_per_class=10)
        keep = [i for i, label in enumerate(labels) if label != 0 or i < 4]  # 4, 10, 10 rows
        write_csv(tmp_path / "corpus.csv", [texts[i] for i in keep], [labels[i] for i in keep])
        out = tmp_path / "prep"
        assert main(["preprocess", "--data", str(tmp_path / "corpus.csv"),
                     "--output-dir", str(out), "--min-count", "1", "--quiet"]) == 0
        meta = json.loads((out / "meta.json").read_text())
        for split in ("train", "test"):
            names = [ex.label.name for ex in load_encoded(out / f"{split}.tsv")[0]]
            assert meta[f"{split}_class_counts"] == {
                name: names.count(name) for name in ("negative", "neutral", "positive")}
        assert meta["train_class_counts"]["negative"] < meta["train_class_counts"]["positive"]

    def test_stdout_summary(self, corpus_csv, tmp_path, capsys):
        out = str(tmp_path / "prep")
        rc = main(["preprocess", "--data", corpus_csv, "--output-dir", out,
                   "--min-count", "1", "--quiet"])
        assert rc == 0
        assert "train" in capsys.readouterr().out

    def test_empty_texts_dropped_and_counted(self, tmp_path):
        path = tmp_path / "corpus.csv"
        texts, labels = keyword_corpus(n_per_class=5)
        texts.append("!!!")  # cleans to nothing
        labels.append(1)
        write_csv(path, texts, labels)
        out = str(tmp_path / "prep")
        rc = main(["preprocess", "--data", str(path), "--output-dir", out,
                   "--min-count", "1", "--quiet"])
        assert rc == 0
        with open(tmp_path / "prep" / "meta.json") as f:
            assert json.load(f)["n_dropped_empty"] == 1

    def test_all_empty_fails(self, tmp_path, capsys):
        path = tmp_path / "corpus.csv"
        write_csv(path, ["!!!", "..."], [0, 1])
        rc = main(["preprocess", "--data", str(path),
                   "--output-dir", str(tmp_path / "prep"), "--quiet"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_data_file(self, tmp_path, capsys):
        rc = main(["preprocess", "--data", str(tmp_path / "nope.csv"),
                   "--output-dir", str(tmp_path / "prep"), "--quiet"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_min_count_too_high(self, corpus_csv, tmp_path, capsys):
        rc = main(["preprocess", "--data", corpus_csv, "--min-count", "999",
                   "--output-dir", str(tmp_path / "prep"), "--quiet"])
        assert rc == 1
        assert "min-count" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train-embeddings


class TestTrainEmbeddings:
    def test_writes_next_to_inputs_by_default(self, tmp_path, corpus_csv):
        prep = str(tmp_path / "prep")
        assert main(["preprocess", "--data", corpus_csv, "--output-dir", prep,
                     "--min-count", "1", "--maxlen", "8", "--quiet"]) == 0
        rc = main(["train-embeddings", "--input-dir", prep, "--dim", "6",
                   "--iterations", "1", "--window", "2", "--quiet"])
        assert rc == 0
        vocab = load_vocabulary(tmp_path / "prep" / "vocab.tsv")
        matrix = load_embeddings(tmp_path / "prep" / "embeddings.bin", vocab=vocab)
        assert matrix.dim == 6
        assert matrix.n_rows == len(vocab)

    def test_explicit_output_dir(self, tmp_path, preprocessed):
        out = str(tmp_path / "emb")
        rc = main(["train-embeddings", "--input-dir", preprocessed, "--dim", "4",
                   "--iterations", "1", "--window", "2",
                   "--output-dir", out, "--quiet"])
        assert rc == 0
        assert (tmp_path / "emb" / "embeddings.bin").exists()

    def test_requires_preprocess_dir(self, tmp_path, capsys):
        rc = main(["train-embeddings", "--input-dir", str(tmp_path), "--quiet"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train


class TestTrain:
    def test_checkpoint_contents(self, trained_checkpoint):
        import os
        for name in ("model.bin", "embeddings.bin", "vocab.tsv",
                     "manifest.json", "train_report.json"):
            assert os.path.exists(os.path.join(trained_checkpoint, name))
        params, embedding, vocab, manifest = load_checkpoint(trained_checkpoint)
        assert manifest["kind"] == "lstm"
        assert manifest["hidden"] == 8
        assert manifest["extra"]["epochs"] == 2
        assert params.input_dim == 6
        with open(os.path.join(trained_checkpoint, "train_report.json")) as f:
            report = json.load(f)
        assert len(report["epoch_losses"]) == 2
        assert report["total_steps"] >= 2

    def test_rnn_model_flag(self, tmp_path, preprocessed):
        out = str(tmp_path / "ckpt")
        rc = main(["train", "--input-dir", preprocessed, "--random-init",
                   "--model", "rnn", "--dim", "5", "--hidden", "4",
                   "--epochs", "1", "--output-dir", out, "--quiet"])
        assert rc == 0
        _, _, _, manifest = load_checkpoint(out)
        assert manifest["kind"] == "rnn"

    def test_pretrained_embeddings_used(self, tmp_path, corpus_csv):
        prep = str(tmp_path / "prep")
        assert main(["preprocess", "--data", corpus_csv, "--output-dir", prep,
                     "--min-count", "1", "--maxlen", "8", "--quiet"]) == 0
        assert main(["train-embeddings", "--input-dir", prep, "--dim", "5",
                     "--iterations", "1", "--window", "2", "--quiet"]) == 0
        out = str(tmp_path / "ckpt")
        rc = main(["train", "--input-dir", prep, "--hidden", "4",
                   "--epochs", "1", "--output-dir", out, "--quiet"])
        assert rc == 0
        pretrained = load_embeddings(tmp_path / "prep" / "embeddings.bin")
        _, embedding, _, _ = load_checkpoint(out)
        assert embedding.dim == pretrained.dim

    def test_missing_embeddings_explained(self, tmp_path, preprocessed, capsys):
        rc = main(["train", "--input-dir", preprocessed,
                   "--output-dir", str(tmp_path / "ckpt"), "--quiet"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "train-embeddings" in err and "--random-init" in err

    @pytest.mark.parametrize("command", ["train-embeddings", "train", "predict", "evaluate"])
    @pytest.mark.parametrize("payload", ["[]", "[1]", '"x"', "null"])
    def test_non_object_manifest_is_one_error_line(self, command, payload, tmp_path,
                                                   preprocessed, trained_checkpoint, capsys):
        # valid JSON that is not an object, as meta.json or as manifest.json
        prep, ckpt = tmp_path / "prep", tmp_path / "ckpt"
        shutil.copytree(preprocessed, prep)
        shutil.copytree(trained_checkpoint, ckpt)
        (prep / "meta.json").write_text(payload)
        (ckpt / "manifest.json").write_text(payload)
        argv = {"train-embeddings": ["--input-dir", str(prep), "--dim", "4"],
                "train": ["--input-dir", str(prep), "--random-init", "--dim", "4"],
                "predict": ["--checkpoint", str(ckpt), "good day"],
                "evaluate": ["--checkpoint", str(ckpt), "--data", str(prep / "test.tsv")]}[command]
        capsys.readouterr()
        assert main([command] + argv + ["--output-dir", str(tmp_path / "out"), "--quiet"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "JSON object" in err[0]

    @pytest.mark.parametrize("command", ["train", "predict", "evaluate"])
    @pytest.mark.parametrize("tokenizer", [None, "bogus", ["whitespace"]],
                             ids=["missing", "bogus", "list"])
    def test_bad_tokenizer_in_manifest_is_one_error_line(self, command, tokenizer, tmp_path,
                                                         preprocessed, trained_checkpoint,
                                                         capsys):
        # right format and version, but no tokenizer key (None) or no mode
        prep, ckpt = tmp_path / "prep", tmp_path / "ckpt"
        shutil.copytree(preprocessed, prep)
        shutil.copytree(trained_checkpoint, ckpt)
        for path in (prep / "meta.json", ckpt / "manifest.json"):
            payload = json.loads(path.read_text())
            if tokenizer is None:
                del payload["tokenizer"]
            else:
                payload["tokenizer"] = tokenizer
            path.write_text(json.dumps(payload))
        argv = {"train": ["--input-dir", str(prep), "--random-init", "--dim", "4"],
                "predict": ["--checkpoint", str(ckpt), "good day"],
                "evaluate": ["--checkpoint", str(ckpt), "--data", str(prep / "test.tsv")]}[command]
        capsys.readouterr()
        assert main([command] + argv + ["--output-dir", str(tmp_path / "out"), "--quiet"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "tokenizer" in err[0]

    @pytest.mark.parametrize("command", ["train", "predict", "evaluate"])
    @pytest.mark.parametrize("version", [True, 1.0, 2], ids=["true", "float", "two"])
    def test_bad_version_in_manifest_is_one_error_line(self, command, version, tmp_path,
                                                       preprocessed, trained_checkpoint,
                                                       capsys):
        # true and 1.0 both equal 1 in Python; only the int 1 is version 1
        prep, ckpt = tmp_path / "prep", tmp_path / "ckpt"
        shutil.copytree(preprocessed, prep)
        shutil.copytree(trained_checkpoint, ckpt)
        for path in (prep / "meta.json", ckpt / "manifest.json"):
            payload = json.loads(path.read_text())
            payload["version"] = version
            path.write_text(json.dumps(payload))
        argv = {"train": ["--input-dir", str(prep), "--random-init", "--dim", "4"],
                "predict": ["--checkpoint", str(ckpt), "good day"],
                "evaluate": ["--checkpoint", str(ckpt), "--data", str(prep / "test.tsv")]}[command]
        capsys.readouterr()
        assert main([command] + argv + ["--output-dir", str(tmp_path / "out"), "--quiet"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert f"version {version}" in err[0]

    @pytest.mark.parametrize("command", ["train-embeddings", "train", "evaluate"])
    @pytest.mark.parametrize("bad", ["label", "index"])
    def test_bad_encoded_split_is_one_error_line(self, command, bad, tmp_path, preprocessed,
                                                 trained_checkpoint, capsys):
        # a well-formed container bound to the right vocabulary, with one bad value
        prep = tmp_path / "prep"
        shutil.copytree(preprocessed, prep)
        split = prep / "train.tsv"
        vocab = load_vocabulary(prep / "vocab.tsv")
        examples, maxlen = load_encoded(split, vocab)
        indices = np.array([ex.indices for ex in examples])
        labels = np.array([ex.label for ex in examples])
        if bad == "label":
            labels[0] = 7
        else:  # one past the last vocabulary row
            indices[0, 0] = len(vocab)
        binio.save(split, "encoded", vocab.fingerprint(),
                   {"indices": indices, "labels": labels}, "i32", {"maxlen": maxlen})
        argv = {"train-embeddings": ["--input-dir", str(prep), "--dim", "4"],
                "train": ["--input-dir", str(prep), "--random-init", "--dim", "4"],
                "evaluate": ["--checkpoint", trained_checkpoint, "--data", str(split)]}[command]
        capsys.readouterr()
        assert main([command] + argv + ["--output-dir", str(tmp_path / "out"), "--quiet"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err

    @pytest.mark.parametrize("command", ["train-embeddings", "train", "evaluate"])
    @pytest.mark.parametrize("case", ["other-vocabulary", "text-split"])
    def test_foreign_split_is_one_error_line(self, command, case, tmp_path, corpus_csv,
                                             preprocessed, trained_checkpoint, capsys):
        prep = tmp_path / "prep"
        shutil.copytree(preprocessed, prep)
        split = prep / "train.tsv"
        if case == "other-vocabulary":
            # another run keeps fewer tokens, so every index it wrote is a
            # row of this run's vocabulary too; only the binding tells them apart
            other = tmp_path / "other"
            assert main(["preprocess", "--data", corpus_csv, "--output-dir", str(other),
                         "--min-count", "4", "--maxlen", "8", "--quiet"]) == 0
            n_rows = len(load_vocabulary(prep / "vocab.tsv"))
            assert len(load_vocabulary(other / "vocab.tsv")) < n_rows
            shutil.copy(other / "train.tsv", split)
            expected = "different vocabulary"
        else:
            split.write_text("#senti-encoded v1 maxlen=8\n0\t1\t2 0 0 0 0 0 0 0\n")
            expected = "re-run preprocess"
        argv = {"train-embeddings": ["--input-dir", str(prep), "--dim", "4"],
                "train": ["--input-dir", str(prep), "--random-init", "--dim", "4"],
                "evaluate": ["--checkpoint", trained_checkpoint, "--data", str(split)]}[command]
        capsys.readouterr()
        assert main([command] + argv + ["--output-dir", str(tmp_path / "out"), "--quiet"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {split}: "), err
        assert expected in err[0]


# ---------------------------------------------------------------------------
# evaluate


class TestEvaluate:
    def test_text_report_on_encoded_split(self, trained_checkpoint, preprocessed,
                                          capsys):
        import os
        rc = main(["evaluate", "--checkpoint", trained_checkpoint,
                   "--data", os.path.join(preprocessed, "train.tsv"), "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "accuracy:" in out
        assert "macro" in out

    def test_json_report_on_csv(self, trained_checkpoint, tmp_path, capsys, caplog):
        path = tmp_path / "corpus.csv"
        texts, labels = keyword_corpus(n_per_class=10)
        write_csv(path, texts + ["!!! ..."], labels + [1])  # the last cleans to nothing
        caplog.set_level(logging.INFO, logger="sentilstm.cli")
        rc = main(["evaluate", "--checkpoint", trained_checkpoint,
                   "--data", str(path), "--format", "json",
                   "--averaging", "weighted", "--quiet"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["averaging"] == "weighted"
        assert 0.0 <= payload["accuracy"] <= 1.0
        assert len(payload["confusion_matrix"]) == 3
        assert sum(map(sum, payload["confusion_matrix"])) == len(texts)
        assert "dropped 1 record(s)" in caplog.text

    def test_maxlen_mismatch_rejected(self, trained_checkpoint, tmp_path,
                                      corpus_csv, capsys):
        import os
        other = str(tmp_path / "prep50")
        assert main(["preprocess", "--data", corpus_csv, "--output-dir", other,
                     "--min-count", "1", "--maxlen", "50", "--quiet"]) == 0
        rc = main(["evaluate", "--checkpoint", trained_checkpoint,
                   "--data", os.path.join(other, "train.tsv"), "--quiet"])
        assert rc == 1
        assert "maxlen" in capsys.readouterr().err

    def test_bad_checkpoint(self, tmp_path, corpus_csv, capsys):
        rc = main(["evaluate", "--checkpoint", str(tmp_path),
                   "--data", corpus_csv, "--quiet"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# predict


class TestPredict:
    def test_text_argument(self, trained_checkpoint, capsys):
        rc = main(["predict", "--checkpoint", trained_checkpoint,
                   "great wonderful day", "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "prediction:" in out
        for name in ("negative", "neutral", "positive"):
            assert name in out

    def test_stdin_fallback(self, trained_checkpoint, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("terrible awful day"))
        rc = main(["predict", "--checkpoint", trained_checkpoint, "--quiet"])
        assert rc == 0
        assert "prediction:" in capsys.readouterr().out

    def test_json_format(self, trained_checkpoint, capsys):
        rc = main(["predict", "--checkpoint", trained_checkpoint,
                   "love the best day", "--format", "json", "--quiet"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["prediction"] in ("negative", "neutral", "positive")
        probs = payload["probabilities"]
        assert set(probs) == {"negative", "neutral", "positive"}
        assert sum(probs.values()) == pytest.approx(1.0, abs=2e-4)

    def test_zero_model_uniform_probabilities(self, tmp_path, preprocessed,
                                              capsys):
        # an untrained (all-zero) model must emit exactly uniform scores
        vocab = load_vocabulary(preprocessed + "/vocab.tsv")
        embedding = random_embedding(vocab, dim=4, seed=0)
        params = init_lstm_params(3, 4, seed=0)
        for tensor in params.tensors().values():
            tensor[...] = 0.0
        ckpt = str(tmp_path / "zero")
        save_checkpoint(ckpt, params, embedding, vocab, maxlen=8,
                        tokenizer_mode="whitespace")
        rc = main(["predict", "--checkpoint", ckpt, "any words at all",
                   "--format", "json", "--quiet"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["probabilities"] == {
            "negative": 0.3333, "neutral": 0.3333, "positive": 0.3333}

    def test_empty_after_cleaning_rejected(self, trained_checkpoint, capsys):
        rc = main(["predict", "--checkpoint", trained_checkpoint, "!!!", "--quiet"])
        assert rc == 1
        assert "empty after cleaning" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["model.bin", "embeddings.bin", "vocab.tsv"])
    def test_repeated_calls_print_the_same_until_a_file_is_tampered(self, name,
                                                                   trained_checkpoint,
                                                                   tmp_path, capsys):
        # the second call reuses the first one's parse; a changed file is
        # still caught by its manifest digest
        ckpt = tmp_path / "ckpt"
        shutil.copytree(trained_checkpoint, ckpt)
        argv = ["predict", "--checkpoint", str(ckpt), "great wonderful day", "--quiet"]
        capsys.readouterr()
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and outputs[0].out.startswith("prediction:")
        data = bytearray((ckpt / name).read_bytes())
        data[len(data) // 2] ^= 0x01
        (ckpt / name).write_bytes(bytes(data))
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [
            f"error: {ckpt}: {name} does not match its manifest checksum"]

    @pytest.mark.parametrize("char", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                                      "\u2028", "\u2029"])
    def test_vocabulary_line_end_other_than_newline_is_one_error_line(self, char,
                                                                      trained_checkpoint,
                                                                      tmp_path, capsys):
        # with its manifest digest repaired, only the vocabulary reader sees the change
        ckpt = tmp_path / "ckpt"
        shutil.copytree(trained_checkpoint, ckpt)
        lines = (ckpt / "vocab.tsv").read_text(encoding="utf-8").split("\n")
        lines[3] += char + lines.pop(4)  # line 4 runs into line 5
        (ckpt / "vocab.tsv").write_bytes("\n".join(lines).encode("utf-8"))
        manifest = json.loads((ckpt / "manifest.json").read_text())
        manifest["checksums"]["vocab.tsv"] = hashlib.sha256(
            (ckpt / "vocab.tsv").read_bytes()).hexdigest()
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["predict", "--checkpoint", str(ckpt), "good day", "--quiet"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [
            f"error: {ckpt / 'vocab.tsv'}: line 4: expected index<TAB>token<TAB>frequency"]

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    @pytest.mark.parametrize("key, value", [
        ("kind", "rnn"), ("hidden", 7), ("input_dim", 3), ("classes", 9), ("maxlen", 8.0),
    ])
    def test_manifest_model_field_is_one_error_line(self, command, key, value,
                                                    trained_checkpoint, corpus_csv,
                                                    tmp_path, capsys):
        # checked on every call, also after a call that parsed the checkpoint
        ckpt = tmp_path / "ckpt"
        shutil.copytree(trained_checkpoint, ckpt)
        argv = {"predict": ["predict", "--checkpoint", str(ckpt), "good day", "--quiet"],
                "evaluate": ["evaluate", "--checkpoint", str(ckpt), "--data", corpus_csv,
                             "--quiet"]}[command]
        assert main(argv) == 0
        manifest = json.loads((ckpt / "manifest.json").read_text())
        manifest[key] = value
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [
            f"error: {ckpt}: manifest {key} disagrees with model file"]

    @pytest.mark.parametrize("classes", [2, 5])
    def test_head_of_another_class_count_is_one_error_line(self, classes, trained_checkpoint,
                                                           corpus_csv, tmp_path, capsys):
        # with the manifest's classes and digest repaired, a 2-class head used
        # to print two probabilities and exit 0, and a 5-class head to end in
        # a traceback
        ckpt = tmp_path / "ckpt"
        shutil.copytree(trained_checkpoint, ckpt)
        model = ckpt / "model.bin"
        params, maxlen, binding = load_model(model)
        params.head_W = np.zeros((classes, params.hidden))
        params.head_b = np.zeros(classes)
        save_model(params, model, binding, maxlen)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        manifest["classes"] = classes
        manifest["checksums"]["model.bin"] = hashlib.sha256(model.read_bytes()).hexdigest()
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        for argv in (["predict", "--checkpoint", str(ckpt), "good day", "--quiet"],
                     ["evaluate", "--checkpoint", str(ckpt), "--data", corpus_csv, "--quiet"]):
            assert main(argv) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.splitlines() == [
                f"error: {model}: head_W shape ({classes}, {params.hidden}) "
                f"!= (3, {params.hidden})"]

    @pytest.mark.parametrize("flags, message", [
        (["--config", "{tmp}/none.json"], "config file not found: {tmp}/none.json"),
        (["--seed", "-5"], "seed must be >= 0, got -5"),
        (["--output-dir", ""], "output_dir must not be empty"),
    ])
    def test_bad_option_is_one_error_line(self, flags, message, trained_checkpoint, tmp_path,
                                          capsys):
        flags = [flag.format(tmp=tmp_path) for flag in flags]
        capsys.readouterr()
        assert main(["predict", "--checkpoint", trained_checkpoint, "good day", "--quiet"]
                    + flags) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == ["error: " + message.format(tmp=tmp_path)]


# ---------------------------------------------------------------------------
# compare


class TestCompare:
    def test_table_and_artifacts(self, tmp_path, corpus_csv, capsys):
        import os
        out = str(tmp_path / "cmp")
        rc = main(["compare", "--data", corpus_csv, "--output-dir", out,
                   "--min-count", "1", "--maxlen", "8", "--random-init",
                   "--dim", "6", "--hidden", "8", "--epochs", "2", "--quiet"])
        assert rc == 0
        table = capsys.readouterr().out
        rows = [l for l in table.splitlines()
                if l.strip().startswith(("lstm", "rnn", "naive-bayes", "logreg"))]
        assert [r.split()[0] for r in rows] == ["lstm", "rnn", "naive-bayes", "logreg"]
        assert "Accuracy" in table

        for name in ("lstm", "rnn"):
            sub = os.path.join(out, name)
            params, _, _, manifest = load_checkpoint(sub)
            assert manifest["kind"] == name
        for name in ("naive_bayes.bin", "logreg.bin", "manifest.json"):
            assert os.path.exists(os.path.join(out, "baselines", name))
        with open(os.path.join(out, "compare.json")) as f:
            payload = json.load(f)
        assert set(payload["models"]) == {"lstm", "rnn", "naive-bayes", "logreg"}
        for report in payload["models"].values():
            assert 0.0 <= report["accuracy"] <= 1.0

    def test_json_format(self, tmp_path, corpus_csv, capsys):
        out = str(tmp_path / "cmp")
        rc = main(["compare", "--data", corpus_csv, "--output-dir", out,
                   "--min-count", "1", "--maxlen", "8", "--random-init",
                   "--dim", "5", "--hidden", "6", "--epochs", "1",
                   "--format", "json", "--quiet"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["models"]) == {"lstm", "rnn", "naive-bayes", "logreg"}
        assert payload["seed"] == 1

    def test_vocabulary_matches_preprocess(self, tmp_path, corpus_csv):
        flags = ["--data", corpus_csv, "--min-count", "2", "--seed", "4", "--quiet"]
        assert main(["preprocess", "--output-dir", str(tmp_path / "prep")] + flags) == 0
        assert main(["compare", "--output-dir", str(tmp_path / "cmp"), "--random-init",
                     "--dim", "4", "--hidden", "4", "--epochs", "1", "--maxlen", "8"]
                    + flags) == 0
        assert ((tmp_path / "cmp" / "lstm" / "vocab.tsv").read_bytes()
                == (tmp_path / "prep" / "vocab.tsv").read_bytes())

    def test_baseline_manifest_checksums(self, tmp_path, corpus_csv):
        import os
        from sentilstm.binio import sha256_file
        out = str(tmp_path / "cmp")
        assert main(["compare", "--data", corpus_csv, "--output-dir", out,
                     "--min-count", "1", "--maxlen", "8", "--random-init",
                     "--dim", "5", "--hidden", "6", "--epochs", "1",
                     "--quiet"]) == 0
        with open(os.path.join(out, "baselines", "manifest.json")) as f:
            manifest = json.load(f)
        assert manifest["format"] == "senti-baselines"
        for entry in manifest["models"].values():
            path = os.path.join(out, "baselines", entry["file"])
            assert sha256_file(path) == entry["checksum"]


# ---------------------------------------------------------------------------
# cold start: only compare imports the baselines, and scipy with them


def run_python(args):
    """A fresh interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(sentilstm.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)


class TestColdStart:
    def test_cli_import_loads_no_scipy(self):
        proc = run_python(["-c", "import sys, sentilstm.cli\n"
                                 "cold = 'scipy' in sys.modules\n"
                                 "from sentilstm import logreg_fit\n"
                                 "print(cold, 'scipy' in sys.modules)"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]

    def test_predict_loads_no_scipy(self, trained_checkpoint):
        proc = run_python(["-X", "importtime", "-m", "sentilstm.cli", "predict",
                           "--checkpoint", trained_checkpoint, "great wonderful day", "--quiet"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("prediction:")
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "sentilstm.train" in imported
        assert [m for m in imported if m.split(".")[0] == "scipy"] == []

    def test_compare_in_fresh_process_matches_in_process(self, tmp_path, corpus_csv):
        flags = ["--data", corpus_csv, "--min-count", "1", "--maxlen", "8", "--random-init",
                 "--dim", "5", "--hidden", "6", "--epochs", "1", "--quiet"]
        assert main(["compare", "--output-dir", str(tmp_path / "here")] + flags) == 0
        proc = run_python(["-m", "sentilstm.cli", "compare",
                           "--output-dir", str(tmp_path / "fresh")] + flags)
        assert proc.returncode == 0, proc.stderr
        files = sorted(os.listdir(tmp_path / "here" / "baselines"))
        assert files == sorted(os.listdir(tmp_path / "fresh" / "baselines"))
        for rel in ["compare.json"] + [f"baselines/{name}" for name in files]:
            assert (tmp_path / "fresh" / rel).read_bytes() == (tmp_path / "here" / rel).read_bytes()

    def test_baseline_names_reexported(self):
        from sentilstm import baselines
        assert sentilstm.logreg_fit is baselines.logreg_fit
        for name in sentilstm._BASELINE_NAMES:
            assert getattr(sentilstm, name) is getattr(baselines, name)
        with pytest.raises(AttributeError, match="no_such_name"):
            sentilstm.no_such_name


# ---------------------------------------------------------------------------
# one parser per process

COUNT_PARSERS = """
import argparse, sys
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
import sentilstm.cli as cli
counts = [len(built)]
for _ in range(2):
    cli.main(["predict", "--checkpoint", sys.argv[1], "good day", "--quiet"])
    counts.append(len(built))
cli.build_parser()
print(*counts, len(built) - counts[-1])
"""


class TestParserReuse:
    def test_import_builds_no_parser_and_main_builds_one(self, trained_checkpoint):
        proc = run_python(["-c", COUNT_PARSERS, trained_checkpoint])
        assert proc.returncode == 0, proc.stderr
        at_import, first, second, one_parser = map(int, proc.stdout.splitlines()[-1].split())
        assert at_import == 0
        assert first == second == one_parser > 0

    def test_calls_in_one_process_match_fresh_processes(self, trained_checkpoint, corpus_csv,
                                                        capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # the usage message wraps at the terminal width
        checkpoint = ["--checkpoint", trained_checkpoint]
        for argv in (["predict"] + checkpoint + ["--format", "json", "love the best day"],
                     ["predict"] + checkpoint + ["terrible awful day"],
                     ["evaluate"] + checkpoint + ["--data", corpus_csv, "--averaging", "micro"],
                     ["predict"] + checkpoint + ["--no-such-flag", "good day"],
                     ["predict"] + checkpoint + ["great wonderful day"]):
            argv += ["--quiet"]
            capsys.readouterr()
            try:
                status = main(argv)
            except SystemExit as exc:
                status = exc.code
            out, err = capsys.readouterr()
            fresh = run_python(["-m", "sentilstm.cli"] + argv)
            assert (status, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
            assert out if status == 0 else status == 2 and "--no-such-flag" in err


class TestLogLevel:
    # each call logs through one stderr handler at its own --quiet level
    CALLS = ("import sys\n"
             "from sentilstm.cli import main\n"
             "data, out, *flags = sys.argv[1:]\n"
             "for n, flag in enumerate(flags):\n"
             "    print(f'--- call {n}', file=sys.stderr, flush=True)\n"
             "    quiet = ['--quiet'] if flag == 'quiet' else []\n"
             "    assert main(['preprocess', '--data', data, '--output-dir', f'{out}/{n}',\n"
             "                 '--min-count', '1'] + quiet) == 0\n")

    @pytest.mark.parametrize("flags", [("quiet", "loud"), ("loud", "quiet")])
    def test_each_call_in_one_process_keeps_its_own_quiet(self, tmp_path, corpus_csv, flags):
        proc = run_python(["-c", self.CALLS, corpus_csv, str(tmp_path)] + list(flags))
        assert proc.returncode == 0, proc.stderr
        calls = proc.stderr.split("--- call ")[1:]
        assert len(calls) == 2
        for flag, err in zip(flags, calls):
            info = [line for line in err.splitlines() if line.startswith("INFO sentilstm.")]
            assert bool(info) == (flag == "loud"), (flags, err)


# ---------------------------------------------------------------------------
# one option table


class TestOptionTable:
    # every option string each subcommand accepted before its flags were
    # generated from RunConfig
    EXPECTED = {
        "preprocess": "--config --data --help --maxlen --min-count --output-dir "
                      "--quiet --seed --test-fraction --tokenizer -h",
        "train-embeddings": "--config --dim --embedding-lr --help --input-dir "
                            "--iterations --negatives --output-dir --quiet --seed "
                            "--window -h",
        "train": "--batch-size --clip-norm --config --dim --embeddings --epochs "
                 "--help --hidden --input-dir --learning-rate --model --optimizer "
                 "--output-dir --quiet --random-init --seed -h",
        "evaluate": "--averaging --checkpoint --config --data --format --help "
                    "--output-dir --quiet --seed -h",
        "predict": "--checkpoint --config --format --help --output-dir --quiet "
                   "--seed -h",
        "compare": "--averaging --batch-size --clip-norm --config --data --dim "
                   "--embedding-lr --epochs --format --help --hidden --iterations "
                   "--learning-rate --maxlen --min-count --negatives --optimizer "
                   "--output-dir --quiet --random-init --seed --test-fraction "
                   "--tokenizer --window -h",
    }

    def test_option_strings_per_subcommand(self):
        parser = build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        assert set(subparsers.choices) == set(self.EXPECTED)
        for name, sub in subparsers.choices.items():
            flags = {s for action in sub._actions for s in action.option_strings}
            assert flags == set(self.EXPECTED[name].split()), name

    @pytest.mark.parametrize("argv, config, name", [
        (["train", "--batch-size", "0"], None, "batch_size"),
        (["train", "--epochs", "0"], None, "epochs"),
        (["train"], {"epochs": "3"}, "epochs"),
        (["preprocess"], {"maxlen": "40"}, "maxlen"),
        (["train", "--dim", "0"], None, "dim"),
        (["train", "--hidden", "0"], None, "hidden"),
        (["train", "--clip-norm", "-1"], None, "clip_norm"),
        (["train", "--learning-rate", "0"], None, "learning_rate"),
        (["train"], {"clip_norm": True}, "clip_norm"),
        (["train-embeddings", "--window", "0"], None, "window"),
        (["train-embeddings", "--negatives", "-1"], None, "negatives"),
        (["train-embeddings", "--embedding-lr", "0"], None, "embedding_lr"),
        (["train-embeddings", "--seed", "-1"], None, "seed"),
        (["preprocess", "--min-count", "0"], None, "min_count"),
        (["preprocess", "--test-fraction", "1.0"], None, "test_fraction"),
        (["preprocess", "--test-fraction", "nan"], None, "test_fraction"),
        (["preprocess"], {"tokenizer": "words"}, "tokenizer"),
        (["evaluate"], {"averaging": 1}, "averaging"),
        (["preprocess", "--output-dir", ""], None, "output_dir"),
        (["train-embeddings", "--embedding-lr", "inf"], None, "embedding_lr"),
        (["train", "--learning-rate", "inf"], None, "learning_rate"),
        (["train", "--clip-norm", "inf"], None, "clip_norm"),
        (["train", "--clip-norm=-inf"], None, "clip_norm"),
        (["preprocess"], {"test_fraction": float("-inf")}, "test_fraction"),
        (["train-embeddings"], {"embedding_lr": float("inf")}, "embedding_lr"),
    ])
    def test_invalid_option_is_one_error_line(self, argv, config, name, tmp_path,
                                              preprocessed, trained_checkpoint,
                                              corpus_csv, capsys):
        inputs = {"preprocess": ["--data", corpus_csv],
                  "train-embeddings": ["--input-dir", preprocessed],
                  "train": ["--input-dir", preprocessed, "--random-init"],
                  "evaluate": ["--checkpoint", trained_checkpoint, "--data", corpus_csv]}
        # the case's own flags come last, so they win over this --output-dir
        argv = (argv[:1] + inputs[argv[0]] + ["--output-dir", str(tmp_path / "out"), "--quiet"]
                + argv[1:])
        if config is not None:
            path = tmp_path / "conf.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        capsys.readouterr()
        assert main(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {name} "), lines
        assert not (tmp_path / "out").exists()


# (RunConfig field, stage config, stage field, a value out of range)
SHARED_OPTIONS = [
    ("dim", EmbeddingConfig, "dim", 0),
    ("window", EmbeddingConfig, "window", 0),
    ("window", EmbeddingConfig, "window", 2 ** 63),
    ("iterations", EmbeddingConfig, "iterations", 0),
    ("negatives", EmbeddingConfig, "negatives", -1),
    ("embedding_lr", EmbeddingConfig, "learning_rate", 0.0),
    ("epochs", TrainConfig, "epochs", 0),
    ("batch_size", TrainConfig, "batch_size", 0),
    ("optimizer", TrainConfig, "optimizer", "rmsprop"),
    ("learning_rate", TrainConfig, "learning_rate", -0.5),
    ("clip_norm", TrainConfig, "clip_norm", -1.0),
    ("seed", TrainConfig, "seed", -5),
    ("min_count", EmbeddingConfig, "min_count", 0),
]


class TestSharedOptions:
    """An option a stage config has is declared once, by that stage config."""

    @pytest.mark.parametrize("name, stage, field, bad", SHARED_OPTIONS)
    def test_run_option_is_the_stage_field(self, name, stage, field, bad):
        run_field = OPTIONS[name]
        stage_field = {f.name: f for f in dataclasses.fields(stage)}[field]
        assert run_field.type is stage_field.type
        assert run_field.default == stage_field.default
        assert dict(run_field.metadata) == dict(stage_field.metadata)  # help, choices, bounds

    @pytest.mark.parametrize("name, stage, field, bad", SHARED_OPTIONS)
    def test_same_message_from_cli_and_stage(self, name, stage, field, bad):
        with pytest.raises(SentiError) as from_cli:
            merge_config(namespace(**{name: bad}))
        with pytest.raises(ValueError) as from_stage:
            stage(**{field: bad})
        assert str(from_cli.value) == str(from_stage.value).replace(field, name, 1)
        assert str(from_cli.value).startswith(f"{name} must be ")

    def test_learning_rate_help_names_each_default(self):
        assert OPTIONS["learning_rate"].metadata["help"] == (
            "classifier learning rate (default 0.001 for adam, 0.1 for sgd)")

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_every_stage_field_reaches_its_stage(self, source, corpus_csv, tmp_path,
                                                 monkeypatch):
        # a value away from the default for every field of both stage configs, by
        # RunConfig name; compare is the one subcommand that takes them all
        values = {"dim": 6, "window": 3, "min_count": 2, "iterations": 2, "negatives": 0,
                  "embedding_lr": 0.05, "epochs": 2, "batch_size": 5, "optimizer": "sgd",
                  "learning_rate": 0.2, "clip_norm": 0.0, "seed": 3}
        want = {EmbeddingConfig: EmbeddingConfig(dim=6, window=3, min_count=2, iterations=2,
                                                 negatives=0, learning_rate=0.05, seed=3),
                TrainConfig: TrainConfig(epochs=2, batch_size=5, optimizer="sgd",
                                         learning_rate=0.2, clip_norm=0.0, seed=3)}
        for config in want.values():
            assert all(getattr(config, f.name) != f.default for f in dataclasses.fields(config))
        got = {}

        class Reached(Exception):
            pass

        def skipgram(indices, config, vocab):
            got[EmbeddingConfig] = config
            return random_embedding(vocab, config.dim, seed=0)

        def train(examples, params, embedding, config):
            got[TrainConfig] = config
            raise Reached

        monkeypatch.setattr(cli, "train_skipgram", skipgram)
        monkeypatch.setattr(cli, "train", train)
        argv = ["compare", "--data", corpus_csv, "--output-dir", str(tmp_path / "out"), "--quiet"]
        if source == "flag":
            for name, value in values.items():
                argv += ["--" + name.replace("_", "-"), str(value)]
        else:
            path = tmp_path / "conf.json"
            path.write_text(json.dumps(values))
            argv += ["--config", str(path)]
        with pytest.raises(Reached):
            main(argv)
        assert got == want


class TestStageConfigs:
    @pytest.mark.parametrize("stage, kwargs", [
        (TrainConfig, {"epochs": 0}), (TrainConfig, {"batch_size": 0}),
        (TrainConfig, {"optimizer": "rmsprop"}), (TrainConfig, {"learning_rate": 0.0}),
        (TrainConfig, {"learning_rate": -1.0}), (TrainConfig, {"clip_norm": None}),
        (TrainConfig, {"clip_norm": -1.0}), (TrainConfig, {"epochs": True}),
        (TrainConfig, {"epochs": 2.0}), (TrainConfig, {"learning_rate": float("inf")}),
        (TrainConfig, {"learning_rate": float("nan")}), (TrainConfig, {"seed": -1}),
        (TrainConfig, {"learning_rate": 10 ** 400}),
        (EmbeddingConfig, {"dim": 0}), (EmbeddingConfig, {"window": 0}),
        (EmbeddingConfig, {"min_count": 0}), (EmbeddingConfig, {"iterations": 0}),
        (EmbeddingConfig, {"negatives": -1}), (EmbeddingConfig, {"learning_rate": 0.0}),
        (EmbeddingConfig, {"dim": np.bool_(True)}), (EmbeddingConfig, {"dim": "8"}),
        (LogRegConfig, {"iterations": 0}), (LogRegConfig, {"learning_rate": 0.0}),
        (LogRegConfig, {"l2": -1e-3}), (LogRegConfig, {"l2": False}),
    ])
    def test_refused_as_option_error(self, stage, kwargs):
        with pytest.raises(OptionError, match=f"^{next(iter(kwargs))} must "):
            stage(**kwargs)

    @pytest.mark.parametrize("stage, kwargs", [
        (TrainConfig, {"epochs": np.int64(2), "batch_size": np.int32(3),
                       "learning_rate": np.float32(0.01), "clip_norm": np.float64(1.0),
                       "seed": np.uint8(7)}),
        (TrainConfig, {"learning_rate": 1, "clip_norm": 0}),
        (EmbeddingConfig, {"dim": np.int16(4), "negatives": np.int64(0),
                           "learning_rate": np.float16(0.5)}),
        (LogRegConfig, {"iterations": np.int64(5), "l2": 0}),
    ])
    def test_numpy_scalars_accepted(self, stage, kwargs):
        config = stage(**kwargs)
        assert all(getattr(config, key) is value for key, value in kwargs.items())

    @pytest.mark.parametrize("kwargs, message", [
        ({"epochs": -10 ** 5000}, "epochs must be >= 1, got a negative int"),
        ({"learning_rate": 10 ** 5000}, "learning_rate must be finite, got an int"),
    ])
    def test_int_too_long_to_print_is_option_error(self, kwargs, message):
        # Python refuses to turn an int of over 4,300 digits (its default limit) into a string
        with pytest.raises(OptionError) as caught:
            TrainConfig(**kwargs)
        limit = sys.get_int_max_str_digits()
        assert str(caught.value) == f"{message} of more than {limit} digits"

    def test_option_error_is_value_error_and_senti_error(self):
        assert issubclass(OptionError, ValueError) and issubclass(OptionError, SentiError)


# ---------------------------------------------------------------------------
# top-level behavior


class TestMain:
    def test_unknown_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_required_flag_exits(self):
        with pytest.raises(SystemExit):
            main(["preprocess"])

    def test_senti_errors_are_caught(self, tmp_path, capsys):
        rc = main(["preprocess", "--data", str(tmp_path / "no.csv"), "--quiet"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") or "error:" in err

    @pytest.mark.parametrize("case", [
        "config-not-utf8", "config-directory", "csv-not-utf8", "csv-field-too-long",
        "evaluate-data-directory", "evaluate-data-first-line-not-utf8",
        "predict-checkpoint-file", "train-embeddings-directory",
        "vocab-index-not-int", "vocab-frequency-not-int", "vocab-not-utf8", "split-not-utf8",
    ])
    def test_unreadable_input_is_one_error_line(self, case, tmp_path, preprocessed,
                                                trained_checkpoint, corpus_csv, capsys):
        bad = tmp_path / "bad"
        prep = tmp_path / "prep"
        shutil.copytree(preprocessed, prep)
        vocab_lines = (prep / "vocab.tsv").read_text().splitlines()
        if case == "config-not-utf8":
            bad.write_bytes(b'{"seed": "\xff"}')
            argv = ["preprocess", "--data", corpus_csv, "--config", str(bad)]
        elif case == "config-directory":
            bad.mkdir()
            argv = ["preprocess", "--data", corpus_csv, "--config", str(bad)]
        elif case == "csv-not-utf8":
            bad.write_bytes(b"label,text\n2,caf\xe9 good\n")
            argv = ["preprocess", "--data", str(bad)]
        elif case == "csv-field-too-long":
            bad.write_bytes(b"label,text\n2," + b"a" * 131073 + b"\n")
            argv = ["preprocess", "--data", str(bad)]
        elif case == "evaluate-data-directory":
            bad.mkdir()
            argv = ["evaluate", "--checkpoint", trained_checkpoint, "--data", str(bad)]
        elif case == "evaluate-data-first-line-not-utf8":
            bad.write_bytes(b"label,text\xff\n2,good\n")
            argv = ["evaluate", "--checkpoint", trained_checkpoint, "--data", str(bad)]
        elif case == "predict-checkpoint-file":
            bad.write_text("not a checkpoint")
            argv = ["predict", "--checkpoint", str(bad), "good day"]
        elif case == "train-embeddings-directory":
            bad.mkdir()
            argv = ["train", "--input-dir", str(prep), "--embeddings", str(bad)]
        elif case.startswith("vocab-"):
            bad = prep / "vocab.tsv"
            if case == "vocab-index-not-int":
                vocab_lines[2] = "x\t<unk>\t0"
            elif case == "vocab-frequency-not-int":
                vocab_lines[3] = vocab_lines[3].rsplit("\t", 1)[0] + "\tzz"
            text = "\n".join(vocab_lines) + "\n"
            bad.write_bytes(text.encode() + (b"\xff\n" if case == "vocab-not-utf8" else b""))
            argv = ["train-embeddings", "--input-dir", str(prep), "--dim", "4"]
        else:  # an encoded split with a non-UTF-8 line appended
            bad = prep / "train.tsv"
            bad.write_bytes(bad.read_bytes() + b"\xff\n")
            argv = ["train", "--input-dir", str(prep), "--random-init", "--dim", "4"]
        capsys.readouterr()
        assert main(argv + ["--output-dir", str(tmp_path / "out"), "--quiet"]) == 1
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert str(bad) in lines[0]
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["train-embeddings", "train"])
    def test_repeated_vocabulary_token_is_one_error_line(self, command, tmp_path,
                                                         preprocessed, capsys):
        prep = tmp_path / "prep"
        shutil.copytree(preprocessed, prep)
        vocab = prep / "vocab.tsv"
        lines = vocab.read_text().splitlines()
        index, _, freq = lines[4].split("\t")
        lines[4] = "\t".join([index, lines[3].split("\t")[1], freq])  # line 5 repeats line 4
        vocab.write_text("\n".join(lines) + "\n")
        argv = [command, "--input-dir", str(prep), "--dim", "4",
                "--output-dir", str(tmp_path / "out"), "--quiet"]
        capsys.readouterr()
        assert main(argv + (["--random-init"] if command == "train" else [])) == 1
        token = lines[3].split("\t")[1]
        assert capsys.readouterr().err.splitlines() == [
            f"error: {vocab}: lines 4 and 5 both list token {token!r}"]

    @pytest.mark.parametrize("where", ["config", "manifest"])
    def test_deeply_nested_json_is_one_error_line(self, where, tmp_path, trained_checkpoint,
                                                  corpus_csv, capsys):
        nested = "[" * 100_000
        if where == "config":
            bad = tmp_path / "conf.json"
            bad.write_text(nested)
            argv = ["preprocess", "--data", corpus_csv, "--config", str(bad),
                    "--output-dir", str(tmp_path / "out")]
        else:
            checkpoint = tmp_path / "ckpt"
            shutil.copytree(trained_checkpoint, checkpoint)
            bad = checkpoint / "manifest.json"
            bad.write_text(nested)
            argv = ["evaluate", "--checkpoint", str(checkpoint), "--data", corpus_csv]
        capsys.readouterr()
        assert main(argv + ["--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [err.splitlines()[0]]
        assert err.startswith(f"error: {bad}: invalid JSON (")

    def test_unallocatable_size_is_one_error_line(self, tmp_path, corpus_csv, capsys):
        # numpy refuses this request at once (petabytes) and allocates nothing
        argv = ["preprocess", "--data", corpus_csv, "--maxlen", "100000000000000",
                "--output-dir", str(tmp_path / "out"), "--quiet"]
        capsys.readouterr()
        assert main(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: Unable to allocate"), lines
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, size", [
        ("preprocess", ["--maxlen", "1000000000000000000"]),
        ("train", ["--random-init", "--hidden", "10000000000"]),
        ("train", ["--random-init", "--dim", "1000000000000000000"]),
        ("train-embeddings", ["--dim", "1000000000000000000"]),
        ("train-embeddings", ["--negatives", "1000000000000000000"]),
    ])
    def test_size_past_int64_is_one_error_line(self, tmp_path, corpus_csv, preprocessed,
                                               command, size, capsys):
        # byte counts past int64, which numpy refuses with a ValueError: the
        # sizes are checked first, and nothing is allocated or written
        out = str(tmp_path / "out")
        source = ["--data", corpus_csv] if command == "preprocess" else ["--input-dir", preprocessed]
        argv = [command] + source + size
        capsys.readouterr()
        assert main(argv + ["--output-dir", out, "--quiet"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("error: Unable to allocate an array of shape (")
        assert lines[0].endswith("): its byte count overflows int64")
        assert not os.path.exists(out)

    def test_window_numpy_cannot_draw_is_one_error_line(self, tmp_path, preprocessed, capsys):
        # the widest window numpy draws widths for still runs
        argv = ["train-embeddings", "--input-dir", preprocessed, "--dim", "4", "--iterations",
                "1", "--output-dir", str(tmp_path / "out"), "--quiet", "--window"]
        assert main(argv + ["9223372036854775807"]) == 0
        shutil.rmtree(tmp_path / "out")
        capsys.readouterr()
        assert main(argv + ["9223372036854775808"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [
            "error: window must be < 9223372036854775808, got 9223372036854775808"]
        assert not (tmp_path / "out").exists()


def one_error_line(argv, capsys):
    """The stderr line of a `main(argv)` that fails with one error and no output."""
    capsys.readouterr()
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1, err
    return err.rstrip("\n")


class TestMismatchedArtifacts:
    """Files each valid and bound to one another, but of sizes that disagree."""

    def test_embeddings_of_fewer_rows_than_the_vocabulary_in_train(self, tmp_path,
                                                                    preprocessed, capsys):
        prep = tmp_path / "prep"
        shutil.copytree(preprocessed, prep)
        vocab = load_vocabulary(prep / "vocab.tsv")
        assert len(vocab) > 10
        rows = random_embedding(vocab, 6, seed=0).rows[:10]
        save_embeddings(EmbeddingMatrix(rows, vocab.fingerprint()), prep / "embeddings.bin")
        argv = ["train", "--input-dir", str(prep), "--output-dir", str(tmp_path / "out"),
                "--quiet"]
        assert one_error_line(argv, capsys) == (
            f"error: {prep / 'embeddings.bin'}: 10 rows for a vocabulary of {len(vocab)}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_embeddings_of_fewer_rows_than_the_vocabulary_in_a_checkpoint(
            self, command, tmp_path, trained_checkpoint, corpus_csv, capsys):
        # the model bound to the cut matrix and the manifest digests repaired
        ckpt = tmp_path / "ckpt"
        shutil.copytree(trained_checkpoint, ckpt)
        full = load_embeddings(ckpt / "embeddings.bin")
        cut = EmbeddingMatrix(full.rows[:10], full.vocab_fingerprint)
        save_embeddings(cut, ckpt / "embeddings.bin")
        params, maxlen, _ = load_model(ckpt / "model.bin")
        save_model(params, ckpt / "model.bin", cut.fingerprint(), maxlen)
        repair_digest(ckpt, "embeddings.bin")
        repair_digest(ckpt, "model.bin")
        argv = {"evaluate": ["evaluate", "--checkpoint", str(ckpt), "--data", corpus_csv],
                "predict": ["predict", "--checkpoint", str(ckpt), "good day"]}[command]
        assert one_error_line(argv + ["--quiet"], capsys) == (
            f"error: {ckpt / 'embeddings.bin'}: 10 rows for a vocabulary of {full.n_rows}")

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_model_input_wider_than_the_embeddings(self, command, tmp_path, trained_checkpoint,
                                                   corpus_csv, capsys):
        # bound to the checkpoint's embeddings, with the manifest's input_dim
        # and digest repaired
        ckpt = tmp_path / "ckpt"
        shutil.copytree(trained_checkpoint, ckpt)
        params, maxlen, binding = load_model(ckpt / "model.bin")
        wide = init_lstm_params(params.hidden, params.input_dim + 1, seed=0)
        save_model(wide, ckpt / "model.bin", binding, maxlen)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        manifest["input_dim"] = wide.input_dim
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        repair_digest(ckpt, "model.bin")
        argv = {"evaluate": ["evaluate", "--checkpoint", str(ckpt), "--data", corpus_csv],
                "predict": ["predict", "--checkpoint", str(ckpt), "good day"]}[command]
        assert one_error_line(argv + ["--quiet"], capsys) == (
            f"error: embedding dim {params.input_dim} does not match model input dim "
            f"{wide.input_dim}")
