"""sentilstm: three-class text sentiment classification built from scratch.

The pipeline is corpus preparation (cleaning, tokenization, vocabulary,
integer encoding), skip-gram embedding pretraining with negative sampling,
an LSTM classifier with hand-derived backpropagation through time (plus a
vanilla RNN and classical bag-of-words baselines), and evaluation with
per-class and averaged precision/recall/F1.

Importing the package does not load scipy: the baseline names are re-exported
lazily, and the first use of one imports `sentilstm.baselines` and scipy.
"""

from .corpus import (PAD_INDEX, UNK_INDEX, EncodedExample, RawRecord,
                     Sentiment, Vocabulary, build_vocabulary, clean_text,
                     encode, encode_example, load_dataset, load_vocabulary,
                     save_vocabulary, stratified_split, tokenize)
from .embedding import (EmbeddingConfig, EmbeddingMatrix, load_embeddings,
                        random_embedding, save_embeddings, train_skipgram)
from .errors import DatasetError, FormatError, SentiError, TrainingError
from .metrics import (CLASS_NAMES, ConfusionMatrix3, MetricsReport, confusion,
                      format_report, format_table, metrics)
from .nnet import (LstmParams, RnnParams, backward, cross_entropy, forward,
                   init_lstm_params, init_rnn_params)
from .train import (TrainConfig, TrainReport, evaluate_model, load_checkpoint,
                    load_model, save_checkpoint, save_model, train)

__version__ = "0.1.0"

# scipy.sparse takes longer to import than the rest of the package together
_BASELINE_NAMES = (
    "LogRegConfig", "LogRegModel", "NaiveBayesModel", "count_features",
    "load_baseline", "logreg_fit", "logreg_predict", "naive_bayes_fit",
    "naive_bayes_predict", "save_baseline", "tfidf_fit", "tfidf_transform",
)


def __getattr__(name):
    if name in _BASELINE_NAMES:
        from . import baselines
        return getattr(baselines, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    *_BASELINE_NAMES,
    "PAD_INDEX", "UNK_INDEX", "EncodedExample", "RawRecord", "Sentiment",
    "Vocabulary", "build_vocabulary", "clean_text", "encode", "encode_example",
    "load_dataset", "load_vocabulary", "save_vocabulary", "stratified_split",
    "tokenize",
    "EmbeddingConfig", "EmbeddingMatrix", "load_embeddings", "random_embedding",
    "save_embeddings", "train_skipgram",
    "DatasetError", "FormatError", "SentiError", "TrainingError",
    "CLASS_NAMES", "ConfusionMatrix3", "MetricsReport", "confusion",
    "format_report", "format_table", "metrics",
    "LstmParams", "RnnParams", "backward", "cross_entropy", "forward",
    "init_lstm_params", "init_rnn_params",
    "TrainConfig", "TrainReport", "evaluate_model", "load_checkpoint",
    "load_model", "save_checkpoint", "save_model", "train",
]
