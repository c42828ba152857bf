"""The benchmark workloads and the metrics they report.

Every workload is a closed loop in one client process: one operation at a
time, each the public CLI (`sentilstm.cli.main`, or a fresh interpreter for
a cold `predict`) or the public API (the bag-of-words baselines, which have
no CLI command of their own). The program sees only the generated CSV files.

A pass is a build part (preprocess, train-embeddings, train LSTM, train
RNN, baselines fit) and a serve part (evaluate both models on a raw CSV,
cold and warm `predict`); the timed loop repeats passes. Set-up only writes
the generated inputs; it is repeated before every pass.

Every time sample is scaled to the reference speed of the machine (see
pace.py) by the reference-loop times taken just before, during (in-process
operations only) and just after its group of operations; the info line
keeps the unscaled samples too. The traced run scales nothing and runs no
reference loop.
"""

import contextlib
import dataclasses
import gc
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import checks
import corpora
import pace
import synthetic
import tracing
import sentilstm.baselines as bl
import sentilstm.cli as cli
import sentilstm.corpus as corpus
import sentilstm.embedding as embedding
from sentilstm.train import load_checkpoint, predict_dataset

PREDICT_TEXTS = 40         # distinct texts the predict loops cycle through
MARGIN_FLOOR = 0.2         # embedding_margin must stay above this (the gap C6 asks for)
SETUP_REPS = 3             # set-ups before each pass
SGNS_ITERATIONS = 1
RNN_EPOCHS = 1             # the RNN is timed, not relied on for accuracy
MODELS = ("lstm", "rnn")
SHORT_OP_REPS = 3          # preprocess and baselines take tens of ms: more samples per pass
WARM_GROUP = 5             # warm predicts timed between two reference loops
PREP_FILES = ("vocab.tsv", "train.tsv", "test.tsv", "embeddings.bin")
CHECKPOINT_FILES = ("model.bin", "embeddings.bin", "vocab.tsv")


@dataclasses.dataclass(frozen=True)
class Spec:
    corpus: str           # "long-range" or "zipf"
    train_rows: int       # rows of the CSV that preprocess splits 80/20
    eval_rows: int        # rows of the raw CSV that evaluate scores
    maxlen: int
    min_count: int
    dim: int              # embedding width (skip-gram and --random-init)
    window: int
    embedding_lr: float
    random_init: bool     # train on random embeddings, not the skip-gram ones
    learning_rate: float
    batch_size: int
    lstm_epochs: int
    cold_predicts: int    # per pass
    warm_predicts: int    # per pass


SPECS = {
    # Order-sensitive sequences of T=48 with no padding over 7 tokens: nearly
    # all time is the per-token recurrence; skip-gram and baselines are probes.
    "longrange-train": Spec(
        corpus="long-range", train_rows=500, eval_rows=200, maxlen=48, min_count=1,
        dim=24, window=2, embedding_lr=0.025, random_init=True,
        learning_rate=0.05, batch_size=2,
        lstm_epochs=1, cold_predicts=5, warm_predicts=40),
    # Social-media-like text: cleaning, a vocabulary of about 1600 words,
    # skip-gram pretraining, padded batches with about 110 distinct
    # embedding rows per batch. Batch 16: at batch 32 one epoch left some
    # seeds near 0.94 test accuracy, and the spread over seeds near its bound.
    "zipf-build": Spec(
        corpus="zipf", train_rows=1000, eval_rows=300, maxlen=32, min_count=1,
        dim=32, window=5, embedding_lr=0.3,
        random_init=False, learning_rate=0.05, batch_size=16,
        lstm_epochs=1, cold_predicts=5, warm_predicts=40),
}

# Full training sets (a smaller skip-gram run would not reach the margin
# floor), fewer epochs, evaluate rows and predicts.
TINY = dict(eval_rows=30, lstm_epochs=1, cold_predicts=1, warm_predicts=WARM_GROUP)


def spec_for(workload, scale):
    spec = SPECS[workload]
    return dataclasses.replace(spec, **TINY) if scale == "tiny" else spec


class StageFailed(Exception):
    """An operation raised or exited non-zero; the pass cannot go on."""


class Ops:
    """Counts operations and the ones that failed (raised, exited non-zero,
    or produced output a check rejects)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    @contextlib.contextmanager
    def op(self, name):
        self.attempted += 1
        problems = []
        try:
            yield problems
        except Exception as exc:  # the run reports the failure and stops the pass
            self.failed += 1
            self.problems.append(f"{name}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            raise StageFailed(name) from exc
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {p}" for p in problems)


def run_cli(argv):
    """One in-process CLI call; returns (seconds, stdout)."""
    out = io.StringIO()
    # Start with no garbage left by earlier operations, as a fresh process
    # would: a collection landing inside a 30 ms `preprocess` moves it by a third.
    gc.collect()
    started = pace.clock()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv[:1] + ["--quiet"] + argv[1:])
    elapsed = pace.clock() - started
    if status != 0:
        raise RuntimeError(f"sentilstm {argv[0]} exited with {status}")
    return elapsed, out.getvalue()


def expected_pairs(n_tokens, window):
    """Expected skip-gram pairs of one sequence of n kept tokens when each
    center draws its width uniformly from [1, window]. Computed here, not
    counted from the program, so it stays a fixed unit of work."""
    p = np.arange(n_tokens)
    widths = np.arange(1, window + 1)[:, None]
    return float((np.minimum(widths, p) + np.minimum(widths, n_tokens - 1 - p)).sum() / window)


def group_margin(rows, vocab, groups):
    """Mean cosine within planted groups minus mean cosine across them."""
    ids = [[vocab.token_to_index[w] for w in g if w in vocab.token_to_index] for g in groups]
    unit = rows / np.maximum(np.linalg.norm(rows, axis=1, keepdims=True), 1e-12)
    within, across = [], []
    for a, ga in enumerate(ids):
        for b, gb in enumerate(ids):
            for i in ga:
                for j in gb:
                    if a == b and i < j:
                        within.append(float(unit[i] @ unit[j]))
                    elif a < b:
                        across.append(float(unit[i] @ unit[j]))
    return statistics.fmean(within) - statistics.fmean(across)


class Workload:
    def __init__(self, spec, seed, work_dir, root, ops, tracer, paced=True):
        self.spec = spec
        self.seed = seed
        self.ops = ops
        self.tracer = tracer
        self.root = root
        self.train_csv = os.path.join(work_dir, "train.csv")
        self.eval_csv = os.path.join(work_dir, "eval.csv")
        self.prep_dir = os.path.join(work_dir, "prep")
        self.checkpoints = {m: os.path.join(work_dir, m) for m in MODELS}
        self.samples = {}         # metric -> values, times at the reference speed
        self.raw_samples = {}     # metric -> the same values from unscaled times
        self.pending = None       # time samples of the open group
        self.pace = pace.Pace() if paced else None
        self.pass_times = []      # wall time of each finished pass
        self.inputs = {}
        self.digests = {}
        self.reference = None
        self.cursor = 0

    def add(self, metric, value):
        self.samples.setdefault(metric, []).append(value)

    def timed(self, metric, seconds, work=None, factor=1.0):
        """A time sample of the open group: stored as work / seconds when
        work is given, else as seconds * factor."""
        self.pending.append((metric, seconds, work, factor))

    @contextlib.contextmanager
    def group(self, in_process=True):
        """Time samples taken inside are scaled by the reference-loop times
        measured just before, during (when the group runs in this process)
        and just after the group."""
        self.pending = []
        if self.pace is None:
            yield
            return
        loops = [self.pace.now()]
        with self.pace.sampling(loops) if in_process else contextlib.nullcontext():
            yield
        loops.append(self.pace.take())
        scale = self.pace.scale(loops)
        for metric, seconds, work, factor in self.pending:
            for store, t in ((self.samples, seconds * scale), (self.raw_samples, seconds)):
                store.setdefault(metric, []).append(work / t if work is not None else t * factor)
        self.pending = None

    @contextlib.contextmanager
    def own_work(self):
        """The benchmark's own reads and reference computations are not spans."""
        was, self.tracer.active = self.tracer.active, False
        try:
            yield
        finally:
            self.tracer.active = was

    # -- inputs ---------------------------------------------------------

    def generate(self):
        s = self.spec
        if s.corpus == "long-range":
            # the end hint always names the label, so one short training
            # reaches a stable accuracy; that accuracy needs only the last
            # three tokens, not long-range state
            tr_x, tr_y, ev_x, ev_y = synthetic.long_range_corpus(
                n_train=s.train_rows, n_test=s.eval_rows, length=s.maxlen, seed=self.seed,
                end_agreement=1.0)
            self.groups = [synthetic.MARKERS, synthetic.END_HINTS]
        else:
            texts, labels, self.groups = corpora.zipf_corpus(s.train_rows + s.eval_rows, self.seed)
            tr_x, tr_y = texts[:s.train_rows], labels[:s.train_rows]
            ev_x, ev_y = texts[s.train_rows:], labels[s.train_rows:]
        synthetic.write_csv(self.train_csv, tr_x, tr_y)
        synthetic.write_csv(self.eval_csv, ev_x, ev_y)
        self.eval_labels = ev_y
        self.predict_texts = ev_x[:PREDICT_TEXTS]

    def _describe_split(self):
        """Input sizes, from the encoded train split the program wrote."""
        with self.own_work():
            examples, _ = corpus.load_encoded(os.path.join(self.prep_dir, "train.tsv"))
            vocab = corpus.load_vocabulary(os.path.join(self.prep_dir, "vocab.tsv"))
        kept = [int(np.count_nonzero(ex.indices > 1)) for ex in examples]
        self.train_sequences = [ex.indices for ex in examples]
        self.train_labels = np.array([int(ex.label) for ex in examples], dtype=np.int64)
        nonpad = int(sum(np.count_nonzero(ex.indices) for ex in examples))
        self.inputs = {
            "csv_rows": self.spec.train_rows,
            "eval_rows": self.spec.eval_rows,
            "train_examples": len(examples),
            "nonpad_tokens": nonpad,
            "pad_share": 1.0 - nonpad / (len(examples) * self.spec.maxlen),
            "vocab_size": vocab.n_tokens,
            "sgns_pairs": SGNS_ITERATIONS * sum(
                expected_pairs(n, self.spec.window) for n in kept),
        }

    # -- build ----------------------------------------------------------

    def _same_as_before(self, key, digests, problems):
        if key in self.digests:
            problems += checks.check_same_digests(self.digests[key], digests)
        else:
            self.digests[key] = digests

    def build(self):
        for _ in range(SHORT_OP_REPS):
            with self.group():
                self._preprocess()
        if not self.inputs:
            self._describe_split()
        with self.group():
            self._train_embeddings()
        for model in MODELS:
            with self.group():
                self._train(model)
        for _ in range(SHORT_OP_REPS):
            with self.group():
                self._fit_baselines()

    def _preprocess(self):
        s = self.spec
        with self.ops.op("preprocess") as problems:
            t, _ = run_cli(["preprocess", "--data", self.train_csv, "--output-dir", self.prep_dir,
                            "--maxlen", str(s.maxlen), "--min-count", str(s.min_count)])
            with open(os.path.join(self.prep_dir, "meta.json"), encoding="utf-8") as f:
                meta = json.load(f)
            if meta["n_train"] + meta["n_test"] != s.train_rows:
                problems.append(f"{meta['n_train']} + {meta['n_test']} examples "
                                f"from {s.train_rows} rows")
        self.timed("preprocess_rows_per_s", t, s.train_rows)

    def _train_embeddings(self):
        s = self.spec
        with self.ops.op("train-embeddings") as problems:
            t, _ = run_cli(["train-embeddings", "--input-dir", self.prep_dir, "--dim", str(s.dim),
                            "--window", str(s.window), "--iterations", str(SGNS_ITERATIONS),
                            "--embedding-lr", str(s.embedding_lr)])
            with self.own_work():
                vocab = corpus.load_vocabulary(os.path.join(self.prep_dir, "vocab.tsv"))
                matrix = embedding.load_embeddings(os.path.join(self.prep_dir, "embeddings.bin"),
                                                   vocab=vocab)
            margin = group_margin(matrix.rows, vocab, self.groups)
            problems += checks.check_margin(margin, MARGIN_FLOOR)
            self._same_as_before("prep", checks.file_digests(self.prep_dir, PREP_FILES), problems)
        self.timed("sgns_pairs_per_s", t, self.inputs["sgns_pairs"])
        self.add("embedding_margin", margin)

    def _train(self, model):
        s = self.spec
        epochs = s.lstm_epochs if model == "lstm" else RNN_EPOCHS
        argv = ["train", "--input-dir", self.prep_dir, "--output-dir", self.checkpoints[model],
                "--model", model, "--epochs", str(epochs), "--learning-rate", str(s.learning_rate),
                "--batch-size", str(s.batch_size)]
        if s.random_init:
            argv += ["--random-init", "--dim", str(s.dim)]
        with self.ops.op(f"train {model}") as problems:
            t, _ = run_cli(argv)
            steps = epochs * math.ceil(self.inputs["train_examples"] / s.batch_size)
            problems += checks.check_train_report(
                os.path.join(self.checkpoints[model], "train_report.json"), steps)
            self._same_as_before(model, checks.file_digests(self.checkpoints[model],
                                                             CHECKPOINT_FILES), problems)
        self.timed(f"{model}_train_tokens_per_s", t, self.inputs["nonpad_tokens"] * epochs)

    def _fit_baselines(self):
        with self.ops.op("baselines fit") as problems:
            gc.collect()  # as in run_cli
            started = pace.clock()
            counts = bl.count_features(self.train_sequences, self.inputs["vocab_size"])
            nb = bl.naive_bayes_fit(counts, self.train_labels)
            lr = bl.logreg_fit(counts, self.train_labels)
            t = pace.clock() - started
            for name, arr in (("naive bayes", nb.log_likelihood), ("logreg", lr.W)):
                if not np.all(np.isfinite(arr)):
                    problems.append(f"{name} has non-finite weights")
        self.timed("baseline_fit_s", t)

    # -- serve ----------------------------------------------------------

    def _reference_labels(self):
        """The batch path's label for each predict text, from the LSTM
        checkpoint, encoded the way the CLI encodes one text."""
        with self.own_work():
            params, emb, vocab, manifest = load_checkpoint(self.checkpoints["lstm"])
            examples = [corpus.encode_example(
                corpus.tokenize(corpus.clean_text(text), manifest["tokenizer"]),
                corpus.Sentiment.neutral, vocab, manifest["maxlen"])
                for text in self.predict_texts]
            return {text: int(label) for text, label
                    in zip(self.predict_texts, predict_dataset(params, emb, examples))}

    def _next_text(self):
        text = self.predict_texts[self.cursor % len(self.predict_texts)]
        self.cursor += 1
        return text

    def serve(self):
        s = self.spec
        with self.group():
            seconds = 0.0
            for model in MODELS:
                seconds += self._evaluate(model)
            self.timed("eval_examples_per_s", seconds, len(MODELS) * s.eval_rows)

        if self.reference is None:
            self.reference = self._reference_labels()
        for _ in range(s.cold_predicts):
            # the handler's loop would run beside the child process
            with self.group(in_process=False):
                self._predict_cold()
        for _ in range(0, s.warm_predicts, WARM_GROUP):
            with self.group():
                for _ in range(WARM_GROUP):
                    self._predict_warm()

    def _evaluate(self, model):
        with self.ops.op(f"evaluate {model}") as problems:
            t, out = run_cli(["evaluate", "--checkpoint", self.checkpoints[model],
                              "--data", self.eval_csv, "--format", "json"])
            problems += checks.check_evaluate(out, self.eval_labels)
        if model == "lstm":
            self.add("test_accuracy", json.loads(out)["accuracy"])
        return t

    def _predict_cold(self):
        text = self._next_text()
        with self.ops.op("predict (new process)") as problems:
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "sentilstm.cli", "predict", "--quiet",
                 "--checkpoint", self.checkpoints["lstm"], "--format", "json", text],
                capture_output=True, text=True, cwd=self.root, timeout=120)
            t = time.perf_counter() - started
            if proc.returncode != 0:
                raise RuntimeError(f"exited with {proc.returncode}: {proc.stderr.strip()}")
            problems += checks.check_predict(proc.stdout, self.reference[text])
        self.timed("predict_cold_ms", t, factor=1000.0)

    def _predict_warm(self):
        text = self._next_text()
        with self.ops.op("predict (in process)") as problems:
            t, out = run_cli(["predict", "--checkpoint", self.checkpoints["lstm"],
                              "--format", "json", text])
            problems += checks.check_predict(out, self.reference[text])
        self.timed("predict_warm_ms", t, factor=1000.0)


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB",
    "lstm_train_tokens_per_s": "tokens/s", "rnn_train_tokens_per_s": "tokens/s",
    "eval_examples_per_s": "examples/s", "test_accuracy": "fraction",
    "preprocess_rows_per_s": "rows/s", "sgns_pairs_per_s": "pairs/s",
    "embedding_margin": "cosine", "baseline_fit_s": "s",
    "predict_cold_ms_p50": "ms", "predict_cold_ms_p90": "ms",
    "predict_warm_ms_p50": "ms", "predict_warm_ms_p90": "ms",
}


def end_to_end(workload):
    """Per-run values: the median of each metric's samples over the run, and
    p50 and p90 of all predict latencies of the run. Times are at the
    reference speed (pace.py)."""
    values = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    for name, samples in workload.samples.items():
        if name.startswith("predict_"):
            values[f"{name}_p50"] = statistics.median(samples)
            values[f"{name}_p90"] = _p90(samples)
        else:
            values[name] = statistics.median(samples)
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items() if name in values}


def import_ms(root, reps=3):
    """A fresh interpreter importing sentilstm.cli, timed inside that interpreter."""
    code = ("import time; t = time.perf_counter(); import sentilstm.cli; "
            "print(1000.0 * (time.perf_counter() - t))")
    times = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              cwd=root, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run(workload_name, seed, seconds, trace, work_dir, root, trace_out=None, scale="full"):
    """Run one workload; returns (ops, metrics {name: (value, unit)}, info)."""
    spec = spec_for(workload_name, scale)
    ops = Ops()
    w = Workload(spec, seed, work_dir, root, ops, tracing.Tracer(), paced=not trace)
    info = {"passes": 0}
    metrics = {}
    try:
        if not trace:
            deadline = time.perf_counter() + seconds
            while info["passes"] == 0 or time.perf_counter() < deadline:
                pass_started = time.perf_counter()
                # the same seed writes the same files: set-up samples spread
                # over the run like the stage samples
                for _ in range(SETUP_REPS):
                    with w.group():
                        gc.collect()
                        started = pace.clock()
                        w.generate()
                        w.timed("setup_s", pace.clock() - started)
                w.build()
                w.serve()
                w.pass_times.append(time.perf_counter() - pass_started)
                info["passes"] += 1
            metrics = end_to_end(w)
        else:
            metrics = traced(w, seconds, info, root, trace_out)
    except StageFailed:
        pass
    finally:
        w.tracer.restore()
    info["inputs"] = w.inputs
    info["pass_s"] = [round(x, 3) for x in w.pass_times]
    info["samples"] = {name: [round(x, 6) for x in v] for name, v in sorted(w.samples.items())}
    info["unscaled_samples"] = {name: [round(x, 6) for x in v]
                                for name, v in sorted(w.raw_samples.items())}
    if w.pace is not None:
        info["pace_s"] = [round(loop, 5) for _, loop in w.pace.measurements]
        info["pace_loops_inside"] = w.pace.inside
    return ops, metrics, info


def traced(w, seconds, info, root, trace_out):
    """After one warm-up unit, alternate untraced and traced units (build +
    serve) for `seconds`; per-layer metrics are medians over the traced units."""
    tracing.install(w.tracer)
    w.generate()
    w.build()
    w.serve()
    plain, timed, per_unit = [], [], []
    deadline = time.perf_counter() + seconds
    while not timed or time.perf_counter() < deadline:
        for active in (False, True):
            w.tracer.reset()
            w.tracer.active = active
            started = time.perf_counter()
            w.build()
            w.serve()
            elapsed = time.perf_counter() - started
            w.tracer.active = False
            (timed if active else plain).append(elapsed)
        per_unit.append(tracing.layer_metrics(w.tracer.spans, w.tracer.counts))
        info["passes"] += 1
    if trace_out:
        w.tracer.dump(trace_out)
    metrics = {name: (statistics.median(u[name][0] for u in per_unit), unit)
               for name, (_, unit) in per_unit[0].items()}
    metrics["cli.import_ms"] = (import_ms(root), "ms")
    metrics["trace.unit_s"] = (statistics.median(plain), "s")
    metrics["trace.overhead_s"] = (statistics.median(timed) - statistics.median(plain), "s")
    return metrics
