"""Command-line entry points.

Subcommands mirror the pipeline stages: ``preprocess`` (clean, split, build
the vocabulary, encode), ``train-embeddings`` (skip-gram pretraining),
``train`` (classifier training to a checkpoint directory), ``evaluate``,
``predict``, and ``compare`` (train the recurrent models and the classical
baselines on one split and print a side-by-side table).

Option precedence is flags > --config JSON file > built-in defaults; the
SENTI_OUTPUT_DIR environment variable slots between the flag and the config
file for the output directory. Artifacts contain no timestamps, so a fixed
seed reproduces them byte for byte.
"""

import argparse
import collections
import dataclasses
import functools
import json
import logging
import os
import sys
from dataclasses import dataclass
from typing import NamedTuple

from . import binio, corpus
from .metrics import (AVERAGING_SCHEMES, CLASS_NAMES, confusion, format_report,
                      format_table, metrics, report_to_dict, report_to_json)
from .embedding import (EmbeddingConfig, load_embeddings, random_embedding,
                        save_embeddings, train_skipgram)
from .errors import DatasetError, SentiError, check_options, option
from .nnet import forward, init_lstm_params, init_rnn_params
# predict_dataset has no caller here; perfbench/tracing.py wraps cli.predict_dataset
from .train import (EMBEDDINGS_FILE, VOCAB_FILE, TrainConfig, evaluate_model,
                    load_checkpoint, predict_dataset, save_checkpoint, train)

log = logging.getLogger(__name__)

META_NAME = "meta.json"
TRAIN_SPLIT = "train.tsv"
TEST_SPLIT = "test.tsv"
REPORT_NAME = "train_report.json"

OUTPUT_DIR_ENV = "SENTI_OUTPUT_DIR"


def _like(config, name):
    """A RunConfig field declared as the stage config's field `name`."""
    f = config.__dataclass_fields__[name]
    return dataclasses.field(default=f.default, metadata=f.metadata)


@dataclass
class RunConfig:
    """Every tunable the CLI understands, with its default, help and valid
    range; a stage's option is its stage config's field. Field `foo_bar` is
    both the `--foo-bar` flag and the `foo_bar` key of a --config file."""

    maxlen: int = option(100, "tokens kept per text (truncate, then pad)", at_least=1)
    min_count: int = _like(EmbeddingConfig, "min_count")
    tokenizer: str = option("auto", "how cleaned text splits into tokens; auto picks "
                            "character mode when CJK scalars are over half of the letters",
                            choices=("auto",) + corpus.TOKENIZER_MODES)
    test_fraction: float = option(0.2, "share of each class held out for testing",
                                  above=0.0, below=1.0)

    dim: int = _like(EmbeddingConfig, "dim")
    window: int = _like(EmbeddingConfig, "window")
    iterations: int = _like(EmbeddingConfig, "iterations")
    negatives: int = _like(EmbeddingConfig, "negatives")
    embedding_lr: float = _like(EmbeddingConfig, "learning_rate")

    hidden: int = option(50, "recurrent hidden units", at_least=1)
    model: str = option("lstm", "recurrent cell", choices=("lstm", "rnn"))
    epochs: int = _like(TrainConfig, "epochs")
    batch_size: int = _like(TrainConfig, "batch_size")
    optimizer: str = _like(TrainConfig, "optimizer")
    learning_rate: float = _like(TrainConfig, "learning_rate")
    clip_norm: float = _like(TrainConfig, "clip_norm")

    averaging: str = option("macro", "headline average of the per-class scores",
                            choices=AVERAGING_SCHEMES)
    seed: int = _like(TrainConfig, "seed")
    output_dir: str = option("senti-out", "where artifacts are written", non_empty=True)

    # names that came from a flag, the environment, or a config file,
    # as opposed to the defaults above
    explicit: frozenset = frozenset()

    def __post_init__(self):
        check_options(self)


OPTIONS = {f.name: f for f in dataclasses.fields(RunConfig) if f.metadata}


def merge_config(args: argparse.Namespace) -> RunConfig:
    """flags > config file > env (output_dir only) > defaults."""
    values = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            loaded = binio.read_json(config_path)
        except FileNotFoundError:
            raise SentiError(f"config file not found: {config_path}") from None
        if not isinstance(loaded, dict):
            raise SentiError(f"{config_path}: config must be a JSON object")
        unknown = sorted(set(loaded) - set(OPTIONS))
        if unknown:
            raise SentiError(f"{config_path}: unknown config keys {unknown}")
        values.update(loaded)

    env_out = os.environ.get(OUTPUT_DIR_ENV)
    if env_out:
        values["output_dir"] = env_out

    for name in OPTIONS:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            values[name] = flag_value
    return RunConfig(**values, explicit=frozenset(values))


def _resolve_tokenizer(cfg: RunConfig, records) -> str:
    if cfg.tokenizer != "auto":
        return cfg.tokenizer
    mode = corpus.detect_tokenizer_mode(r.text for r in records)
    log.info("tokenizer auto-detected as %r", mode)
    return mode


def _stage_config(stage, cfg: RunConfig):
    """The TrainConfig or EmbeddingConfig of `cfg`: each field is read from the
    RunConfig field of its name, but the skip-gram learning_rate from embedding_lr."""
    renamed = {"learning_rate": "embedding_lr"} if stage is EmbeddingConfig else {}
    return stage(**{f.name: getattr(cfg, renamed.get(f.name, f.name))
                    for f in dataclasses.fields(stage)})


def _init_params(kind, cfg: RunConfig, input_dim):
    if kind == "lstm":
        return init_lstm_params(cfg.hidden, input_dim, seed=(cfg.seed, 5))
    return init_rnn_params(cfg.hidden, input_dim, seed=(cfg.seed, 7))


def _class_counts(examples):
    counts = collections.Counter(ex.label for ex in examples)
    return {name: counts[label] for label, name in enumerate(CLASS_NAMES)}


class _Tokenized(NamedTuple):
    label: corpus.Sentiment
    tokens: list


class Prepared(NamedTuple):
    mode: str
    vocab: corpus.Vocabulary
    train: list  # EncodedExample
    test: list
    n_dropped: int


def _tokenize_records(records, mode):
    """Clean and tokenize each record once, dropping those that clean to
    nothing (they cannot become a sequence). Returns (kept, n_dropped)."""
    tokenized = [_Tokenized(r.label, corpus.tokenize(corpus.clean_text(r.text), mode))
                 for r in records]
    kept = [t for t in tokenized if t.tokens]
    if not kept:
        raise DatasetError("no records with non-empty text after cleaning")
    n_dropped = len(records) - len(kept)
    if n_dropped:
        log.info("dropped %d record(s) with empty text after cleaning", n_dropped)
    return kept, n_dropped


def prepare(cfg: RunConfig, csv_path) -> Prepared:
    """The front of the pipeline: load the CSV, clean and tokenize each
    record once, split stratified, build the vocabulary from the train
    tokens, and encode both splits."""
    records = corpus.load_dataset(csv_path)
    if not records:
        raise DatasetError(f"{csv_path}: no records")
    mode = _resolve_tokenizer(cfg, records)
    kept, n_dropped = _tokenize_records(records, mode)
    train_split, test_split = corpus.stratified_split(kept, cfg.test_fraction,
                                                      seed=(cfg.seed, 11))
    vocab = corpus.build_vocabulary([t.tokens for t in train_split], cfg.min_count)
    if vocab.n_tokens == 0:
        raise DatasetError(
            f"no token reaches min_count={cfg.min_count}; lower --min-count or add data"
        )
    return Prepared(mode, vocab, corpus.encode_split(train_split, vocab, cfg.maxlen),
                    corpus.encode_split(test_split, vocab, cfg.maxlen), n_dropped)


def cmd_preprocess(args) -> int:
    cfg = merge_config(args)
    prep = prepare(cfg, args.data)
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    fingerprint = bytes.fromhex(corpus.save_vocabulary(prep.vocab, os.path.join(out, VOCAB_FILE)))
    corpus.save_encoded(prep.train, cfg.maxlen, os.path.join(out, TRAIN_SPLIT), fingerprint)
    corpus.save_encoded(prep.test, cfg.maxlen, os.path.join(out, TEST_SPLIT), fingerprint)
    binio.write_json(os.path.join(out, META_NAME), {
        "format": "senti-preprocess",
        "version": 1,
        "maxlen": cfg.maxlen,
        "min_count": cfg.min_count,
        "tokenizer": prep.mode,
        "seed": cfg.seed,
        "test_fraction": cfg.test_fraction,
        "n_train": len(prep.train),
        "n_test": len(prep.test),
        "n_dropped_empty": prep.n_dropped,
        "train_class_counts": _class_counts(prep.train),
        "test_class_counts": _class_counts(prep.test),
        "vocab_size": prep.vocab.n_tokens,
    })
    log.info("preprocess: %d train / %d test examples, %d vocabulary tokens -> %s",
             len(prep.train), len(prep.test), prep.vocab.n_tokens, out)
    print(f"wrote {out}: {len(prep.train)} train, {len(prep.test)} test, "
          f"{prep.vocab.n_tokens} tokens")
    return 0


def _load_meta(input_dir):
    try:
        return binio.read_json(os.path.join(input_dir, META_NAME), "senti-preprocess", 1,
                               {"tokenizer": corpus.TOKENIZER_MODES})
    except FileNotFoundError:
        raise SentiError(f"{input_dir}: not a preprocess directory (missing {META_NAME})") from None


def cmd_train_embeddings(args) -> int:
    cfg = merge_config(args)
    _load_meta(args.input_dir)
    vocab = corpus.load_vocabulary(os.path.join(args.input_dir, VOCAB_FILE))
    examples, _ = corpus.load_encoded(os.path.join(args.input_dir, TRAIN_SPLIT), vocab)
    matrix = train_skipgram(corpus.stack(examples)[0], _stage_config(EmbeddingConfig, cfg), vocab)
    # default to dropping the file next to its inputs
    out_dir = cfg.output_dir if "output_dir" in cfg.explicit else args.input_dir
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, EMBEDDINGS_FILE)
    save_embeddings(matrix, out_path)
    log.info("trained %dx%d embeddings -> %s", matrix.n_rows, matrix.dim, out_path)
    print(f"wrote {out_path} ({matrix.n_rows} rows x {matrix.dim})")
    return 0


def cmd_train(args) -> int:
    cfg = merge_config(args)
    meta = _load_meta(args.input_dir)
    vocab = corpus.load_vocabulary(os.path.join(args.input_dir, VOCAB_FILE))
    examples, maxlen = corpus.load_encoded(os.path.join(args.input_dir, TRAIN_SPLIT), vocab)

    if args.random_init:
        embedding = random_embedding(vocab, cfg.dim, seed=(cfg.seed, 4))
    else:
        emb_path = args.embeddings or os.path.join(args.input_dir, EMBEDDINGS_FILE)
        if not os.path.exists(emb_path):
            raise SentiError(
                f"no embeddings at {emb_path}; run train-embeddings first or pass --random-init"
            )
        embedding = load_embeddings(emb_path, vocab=vocab)

    params = _init_params(cfg.model, cfg, embedding.dim)
    tconf = _stage_config(TrainConfig, cfg)
    params, report = train(examples, params, embedding, tconf)

    out = cfg.output_dir
    save_checkpoint(out, params, embedding, vocab, maxlen, meta["tokenizer"],
                    extra={"optimizer": cfg.optimizer,
                           "learning_rate": tconf.resolved_learning_rate,
                           "epochs": cfg.epochs, "batch_size": cfg.batch_size,
                           "seed": cfg.seed})
    binio.write_json(os.path.join(out, REPORT_NAME), {
        "epoch_losses": report.epoch_losses,
        "epoch_accuracies": report.epoch_accuracies,
        "total_steps": report.total_steps,
    })
    log.info("checkpoint written to %s", out)
    print(f"wrote {out}: final loss {report.final_loss:.4f}, "
          f"accuracy {report.final_accuracy:.4f}")
    return 0


def _sniff_dataset(path):
    """Raw `label,text` CSV or an encoded split file (a container, or the
    text split that `load_encoded` refuses by name), by the first bytes."""
    try:
        with open(path, "rb") as f:
            head = f.read(len(corpus.TEXT_SPLIT_HEADER))
    except FileNotFoundError:
        raise SentiError(f"{path}: no such file") from None
    return "encoded" if head.startswith((binio.MAGIC, corpus.TEXT_SPLIT_HEADER)) else "csv"


def _examples_for_checkpoint(path, vocab, maxlen, mode):
    if _sniff_dataset(path) == "encoded":
        examples, file_maxlen = corpus.load_encoded(path, vocab)
        if file_maxlen != maxlen:
            raise SentiError(
                f"{path}: encoded with maxlen={file_maxlen}, checkpoint expects {maxlen}"
            )
        return examples
    kept, _ = _tokenize_records(corpus.load_dataset(path), mode)
    return corpus.encode_split(kept, vocab, maxlen)


def cmd_evaluate(args) -> int:
    cfg = merge_config(args)
    params, embedding, vocab, manifest = load_checkpoint(args.checkpoint)
    examples = _examples_for_checkpoint(
        args.data, vocab, manifest["maxlen"], manifest["tokenizer"]
    )
    report = evaluate_model(params, embedding, examples, averaging=cfg.averaging)
    if args.format == "json":
        print(report_to_json(report, report.confusion), end="")
    else:
        print(format_report(report, report.confusion), end="")
    return 0


def cmd_predict(args) -> int:
    merge_config(args)  # --config, --seed and --output-dir are checked, though unused
    params, embedding, vocab, manifest = load_checkpoint(args.checkpoint)
    text = args.text if args.text is not None else sys.stdin.read()
    tokens = corpus.tokenize(corpus.clean_text(text), manifest["tokenizer"])
    if not tokens:
        raise DatasetError("input text is empty after cleaning")
    indices = corpus.encode(tokens, vocab, manifest["maxlen"])
    trace = forward(params, embedding, indices, cache=False)
    label = CLASS_NAMES[trace.predicted]
    if args.format == "json":
        print(json.dumps({
            "prediction": label,
            "probabilities": {name: round(float(p), 4)
                              for name, p in zip(CLASS_NAMES, trace.probs)},
        }, sort_keys=True, indent=2))
    else:
        print(f"prediction: {label}")
        for name, p in zip(CLASS_NAMES, trace.probs):
            print(f"  {name}: {p:.4f}")
    return 0


def cmd_compare(args) -> int:
    from . import baselines as bl  # scipy loads here, not in the other subcommands
    cfg = merge_config(args)
    prep = prepare(cfg, args.data)
    vocab = prep.vocab
    train_indices, train_labels = corpus.stack(prep.train)
    test_indices, test_labels = corpus.stack(prep.test)

    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    reports = {}

    if args.random_init:
        pretrained = random_embedding(vocab, cfg.dim, seed=(cfg.seed, 4))
    else:
        pretrained = train_skipgram(train_indices, _stage_config(EmbeddingConfig, cfg), vocab)

    tconf = _stage_config(TrainConfig, cfg)

    for kind in ("lstm", "rnn"):
        embedding = pretrained.copy()
        params = _init_params(kind, cfg, embedding.dim)
        log.info("training %s classifier", kind)
        train(prep.train, params, embedding, tconf)
        reports[kind] = evaluate_model(params, embedding, prep.test,
                                       averaging=cfg.averaging)
        save_checkpoint(os.path.join(out, kind), params, embedding, vocab,
                        cfg.maxlen, prep.mode)

    train_counts = bl.count_features(train_indices, vocab.n_tokens)
    test_counts = bl.count_features(test_indices, vocab.n_tokens)

    baseline_dir = os.path.join(out, "baselines")
    os.makedirs(baseline_dir, exist_ok=True)

    files = {}
    for name, fit, predict, file in (
            ("naive-bayes", bl.naive_bayes_fit, bl.naive_bayes_predict, "naive_bayes.bin"),
            ("logreg", bl.logreg_fit, bl.logreg_predict, "logreg.bin")):
        model = fit(train_counts, train_labels)
        reports[name] = metrics(confusion(test_labels, predict(model, test_counts)),
                                averaging=cfg.averaging)
        checksum = bl.save_baseline(model, os.path.join(baseline_dir, file), vocab.fingerprint())
        files[name] = {"file": file, "checksum": checksum}
    binio.write_json(os.path.join(baseline_dir, "manifest.json"),
                     {"format": "senti-baselines", "version": 1, "models": files})

    payload = {
        "seed": cfg.seed,
        "averaging": cfg.averaging,
        "models": {name: report_to_dict(report) for name, report in reports.items()},
    }
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(format_table(reports), end="")
    binio.write_json(os.path.join(out, "compare.json"), payload)
    log.info("comparison artifacts written to %s", out)
    return 0


# The RunConfig fields each subcommand takes as flags, besides the
# --seed and --output-dir that every subcommand takes.
PREPROCESS_OPTIONS = ("maxlen", "min_count", "tokenizer", "test_fraction")
EMBEDDING_OPTIONS = ("dim", "window", "iterations", "negatives", "embedding_lr")
TRAIN_OPTIONS = ("model", "hidden", "dim", "epochs", "batch_size", "optimizer",
                 "learning_rate", "clip_norm")
# compare trains both models, so it has no --model
COMPARE_OPTIONS = tuple(
    name for name in PREPROCESS_OPTIONS + EMBEDDING_OPTIONS + TRAIN_OPTIONS if name != "model"
) + ("averaging",)


def _add_options(parser, names):
    for name in dict.fromkeys(names + ("seed", "output_dir")):
        f = OPTIONS[name]
        help_text = f.metadata["help"]
        if f.default is not None:
            help_text += f" (default {f.default})"
        parser.add_argument("--" + name.replace("_", "-"), dest=name, type=f.type,
                            choices=f.metadata["choices"], help=help_text)
    parser.add_argument("--config", help="JSON file of option defaults")
    parser.add_argument("--quiet", action="store_true", help="only warnings on stderr")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sentilstm",
        description="Three-class sentiment classification with a from-scratch LSTM.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="clean, split, build vocabulary, encode")
    p.add_argument("--data", required=True, help="label,text CSV")
    _add_options(p, PREPROCESS_OPTIONS)

    p = sub.add_parser("train-embeddings", help="skip-gram pretraining on the train split")
    p.add_argument("--input-dir", required=True, help="preprocess output directory")
    _add_options(p, EMBEDDING_OPTIONS)

    p = sub.add_parser("train", help="train the classifier into a checkpoint directory")
    p.add_argument("--input-dir", required=True, help="preprocess output directory")
    p.add_argument("--embeddings", help="embeddings file (default: input dir)")
    p.add_argument("--random-init", action="store_true",
                   help="random embeddings instead of a pretrained file")
    _add_options(p, TRAIN_OPTIONS)

    p = sub.add_parser("evaluate", help="score a checkpoint against a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="label,text CSV or encoded split")
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_options(p, ("averaging",))

    p = sub.add_parser("predict", help="classify one text (argument or stdin)")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("text", nargs="?", help="text to classify (default: read stdin)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_options(p, ())

    p = sub.add_parser("compare", help="train recurrent models and baselines, print a table")
    p.add_argument("--data", required=True, help="label,text CSV")
    p.add_argument("--random-init", action="store_true",
                   help="skip embedding pretraining")
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_options(p, COMPARE_OPTIONS)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reuses for every call in this process, built on the
    first call rather than at import."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # the handler goes in once per process (basicConfig does nothing while
    # the root logger has one); the level is set on every call, so each
    # call's --quiet holds for that call
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger().setLevel(
        logging.WARNING if getattr(args, "quiet", False) else logging.INFO)
    try:
        # looked up at call time: a wrapper put on a cmd_* function after the
        # parser was built is the one that runs
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    # OSError: a path that cannot be read; MemoryError: a size no allocation can hold
    except (SentiError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
