"""Spans around the calls into each sentilstm module, for the traced run.

A function is wrapped in the namespace of the module that calls it: cli.py
and train.py import most functions by name, so patching the defining module
alone would miss those calls. Spans stay in memory until the run ends.
"""

import importlib
import json
import os
import statistics
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []    # [name, start, end, parent index, value]
        self.counts = {}
        self.active = False
        self._stack = []
        self._patches = []

    def span(self, module, attr, name, value=None):
        """Record a span per call of module.attr; value(args, result) is
        stored on the span."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = original(*args, **kwargs)
                if value is not None:
                    record[4] = value(args, result)
                return result
            finally:
                self._stack.pop()
                record[2] = time.perf_counter()

        self._patch(module, attr, original, wrapper)

    def count(self, module, attr, name):
        """Count calls of module.attr without a span (for very hot calls)."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[name] = self.counts.get(name, 0) + 1
            return original(*args, **kwargs)

        self._patch(module, attr, original, wrapper)

    def _patch(self, module, attr, original, wrapper):
        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def restore(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def reset(self):
        self.spans = []
        self.counts = {}

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, value in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "value": value}) + "\n")


def _nonpad(args, _result):
    return int(np.count_nonzero(np.asarray(args[2])))


def _clip(args, norm):
    clip_norm = args[1] if len(args) > 1 else None
    return [float(norm), clip_norm is not None and norm > clip_norm]


def _file_size(args, _result):
    return os.path.getsize(args[0])


def _length(_args, result):
    return len(result)


def install(tracer):
    """Wrap every boundary the per-layer metrics read."""
    cli = importlib.import_module("sentilstm.cli")
    # `import sentilstm.train as m` would bind the re-exported function
    train = importlib.import_module("sentilstm.train")
    embedding = importlib.import_module("sentilstm.embedding")
    corpus = importlib.import_module("sentilstm.corpus")
    baselines = importlib.import_module("sentilstm.baselines")
    binio = importlib.import_module("sentilstm.binio")

    for stage in ("preprocess", "train_embeddings", "train", "evaluate", "predict"):
        tracer.span(cli, f"cmd_{stage}", f"cli.{stage}")

    for caller in (cli, train):
        tracer.span(caller, "forward", "nnet.forward", _nonpad)
        tracer.span(caller, "load_embeddings", "embedding.load")
    tracer.span(cli, "save_embeddings", "embedding.save")
    tracer.span(train, "save_embeddings", "embedding.save")
    tracer.span(train, "backward", "nnet.backward")
    tracer.span(cli, "train", "train.train")
    tracer.span(train, "clip_grads", "train.clip", _clip)
    # the optimizer step has no public function; the class method is the boundary
    tracer.span(train._Optimizer, "step", "train.optimizer")
    tracer.count(train, "adam_update", "train.adam_update")
    for name in ("save_checkpoint", "load_checkpoint", "predict_dataset"):
        tracer.span(cli, name, f"train.{name}")
    for caller in (cli, train):
        tracer.span(caller, "confusion", "metrics.confusion")
        tracer.span(caller, "metrics", "metrics.metrics")

    tracer.span(cli, "train_skipgram", "embedding.train_skipgram")
    # a generator does its work when consumed; build the list inside the span
    pairs = embedding.generate_pairs
    tracer._patch(embedding, "generate_pairs", pairs,
                  lambda *args, **kwargs: list(pairs(*args, **kwargs)))
    tracer.span(embedding, "generate_pairs", "embedding.generate_pairs", _length)
    tracer.span(embedding, "sgns_gradient", "embedding.sgns_gradient")

    tracer.span(corpus, "load_dataset", "corpus.load_dataset", _length)
    tracer.span(corpus, "clean_text", "corpus.clean_text")
    tracer.span(corpus, "build_vocabulary", "corpus.build_vocabulary")
    tracer.span(corpus, "encode_example", "corpus.encode")
    tracer.span(corpus, "save_encoded", "corpus.save_encoded")
    tracer.span(corpus, "load_encoded", "corpus.load_encoded")

    tracer.span(baselines, "count_features", "baselines.count_features")
    tracer.span(baselines, "tfidf_fit", "baselines.tfidf")
    tracer.span(baselines, "tfidf_transform", "baselines.tfidf")
    tracer.span(baselines, "naive_bayes_fit", "baselines.naive_bayes_fit")
    tracer.span(baselines, "logreg_fit", "baselines.logreg_fit")

    tracer.span(binio, "sha256_file", "binio.sha256_file", _file_size)
    tracer.span(binio, "strip_crc", "binio.crc")
    tracer.span(binio, "append_crc", "binio.crc")


def _total(spans, name):
    return sum(s[2] - s[1] for s in spans if s[0] == name)


def _calls(spans, name):
    return sum(1 for s in spans if s[0] == name)


def _self_time(spans, name):
    own = {i: s[2] - s[1] for i, s in enumerate(spans) if s[0] == name}
    children = sum(s[2] - s[1] for s in spans if s[3] in own)
    return sum(own.values()) - children


def _inside(spans, outer, inner):
    """Spans named `inner` that run inside a span named `outer`."""
    windows = [(s[1], s[2]) for s in spans if s[0] == outer]
    return [s for s in spans if s[0] == inner and any(a <= s[1] and s[2] <= b for a, b in windows)]


def layer_metrics(spans, counts):
    """Per-layer metrics of one traced unit of work, as {name: (value, unit)}."""
    steps = _calls(spans, "train.optimizer")
    clips = [s[4] for s in spans if s[0] == "train.clip"]
    rows_read = sum(s[4] for s in _inside(spans, "cli.preprocess", "corpus.load_dataset"))
    cleans = len(_inside(spans, "cli.preprocess", "corpus.clean_text"))
    out = {
        "nnet.forward_calls": (_calls(spans, "nnet.forward"), "count"),
        "nnet.forward_s": (_total(spans, "nnet.forward"), "s"),
        "nnet.backward_s": (_total(spans, "nnet.backward"), "s"),
        "nnet.tokens": (sum(s[4] for s in spans if s[0] == "nnet.forward"), "tokens"),
        "train.steps": (steps, "count"),
        "train.self_s": (_self_time(spans, "train.train"), "s"),
        "train.optimizer_s": (_total(spans, "train.optimizer"), "s"),
        "train.adam_calls_per_step": (counts.get("train.adam_update", 0) / steps if steps else 0.0,
                                      "calls/step"),
        "train.clip_s": (_total(spans, "train.clip"), "s"),
        "train.clip_rate": (sum(c for _, c in clips) / len(clips) if clips else 0.0, "fraction"),
        "train.grad_norm_p50": (statistics.median(n for n, _ in clips) if clips else 0.0, "l2"),
        "train.save_checkpoint_s": (_total(spans, "train.save_checkpoint"), "s"),
        "train.load_checkpoint_s": (_total(spans, "train.load_checkpoint"), "s"),
        "train.predict_dataset_s": (_total(spans, "train.predict_dataset"), "s"),
        "embedding.train_skipgram_s": (_total(spans, "embedding.train_skipgram"), "s"),
        "embedding.pairs": (sum(s[4] for s in spans if s[0] == "embedding.generate_pairs"), "pairs"),
        "embedding.generate_pairs_s": (_total(spans, "embedding.generate_pairs"), "s"),
        "embedding.sgns_gradient_calls": (_calls(spans, "embedding.sgns_gradient"), "count"),
        "embedding.sgns_gradient_s": (_total(spans, "embedding.sgns_gradient"), "s"),
        "embedding.save_s": (_total(spans, "embedding.save"), "s"),
        "embedding.load_s": (_total(spans, "embedding.load"), "s"),
        "corpus.load_dataset_s": (_total(spans, "corpus.load_dataset"), "s"),
        "corpus.clean_text_s": (_total(spans, "corpus.clean_text"), "s"),
        "corpus.clean_text_calls": (_calls(spans, "corpus.clean_text"), "count"),
        "corpus.clean_calls_per_record": (cleans / rows_read if rows_read else 0.0, "calls/row"),
        "corpus.build_vocabulary_s": (_total(spans, "corpus.build_vocabulary"), "s"),
        "corpus.encode_s": (_total(spans, "corpus.encode"), "s"),
        "corpus.save_encoded_s": (_total(spans, "corpus.save_encoded"), "s"),
        "corpus.load_encoded_s": (_total(spans, "corpus.load_encoded"), "s"),
        "baselines.count_features_s": (_total(spans, "baselines.count_features"), "s"),
        "baselines.tfidf_s": (_total(spans, "baselines.tfidf"), "s"),
        "baselines.naive_bayes_fit_s": (_total(spans, "baselines.naive_bayes_fit"), "s"),
        "baselines.logreg_fit_s": (_total(spans, "baselines.logreg_fit"), "s"),
        "binio.sha256_file_s": (_total(spans, "binio.sha256_file"), "s"),
        "binio.bytes_hashed": (sum(s[4] for s in spans if s[0] == "binio.sha256_file"), "bytes"),
        "binio.crc_s": (_total(spans, "binio.crc"), "s"),
        "metrics.confusion_s": (_total(spans, "metrics.confusion"), "s"),
        "metrics.metrics_s": (_total(spans, "metrics.metrics"), "s"),
    }
    for stage in ("preprocess", "train_embeddings", "train", "evaluate", "predict"):
        out[f"cli.{stage}_s"] = (_total(spans, f"cli.{stage}"), "s")
    return out
