"""Confusion-matrix construction and three-class accuracy/precision/recall/F1.

Per-class scores are the one-vs-rest binary definitions, read off the
confusion matrix's diagonal, row sums and column sums; macro, micro, and
weighted aggregates are all computed, and a report always carries which
scheme is its headline and the confusion matrix it was computed from. Zero
denominators yield 0.0 and are flagged rather than producing NaN. The
classes are `corpus.Sentiment`'s, re-exported here as CLASS_NAMES and
N_CLASSES.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .corpus import CLASS_NAMES, N_CLASSES
from .errors import SentiError

AVERAGING_SCHEMES = ("macro", "micro", "weighted")
_METRIC_NAMES = ("precision", "recall", "f1")


@dataclass
class ConfusionMatrix3:
    """3x3 count matrix; rows are actual classes, columns predicted."""

    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (N_CLASSES, N_CLASSES):
            raise ValueError(
                f"confusion matrix must be {N_CLASSES}x{N_CLASSES}, got {self.counts.shape}")
        if (self.counts < 0).any():
            raise ValueError("confusion matrix entries must be nonnegative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion(actual, predicted) -> ConfusionMatrix3:
    actual = np.asarray(actual, dtype=np.int64)
    predicted = np.asarray(predicted, dtype=np.int64)
    if actual.shape != predicted.shape:
        raise ValueError(f"label sequences differ in length: {actual.shape} vs {predicted.shape}")
    for name, arr in (("actual", actual), ("predicted", predicted)):
        if arr.size and (arr.min() < 0 or arr.max() >= N_CLASSES):
            raise ValueError(f"{name} labels must be in [0, {N_CLASSES})")
    counts = np.bincount(N_CLASSES * actual + predicted, minlength=N_CLASSES ** 2)
    return ConfusionMatrix3(counts.reshape(N_CLASSES, N_CLASSES))


@dataclass
class MetricsReport:
    accuracy: float
    per_class_precision: list
    per_class_recall: list
    per_class_f1: list
    support: list
    macro_precision: float
    macro_recall: float
    macro_f1: float
    micro_precision: float
    micro_recall: float
    micro_f1: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    averaging: str = "macro"
    zero_division_flags: list = field(default_factory=list)
    confusion: ConfusionMatrix3 = field(default=None, repr=False, compare=False)

    @property
    def precision(self) -> float:
        return getattr(self, f"{self.averaging}_precision")

    @property
    def recall(self) -> float:
        return getattr(self, f"{self.averaging}_recall")

    @property
    def f1(self) -> float:
        return getattr(self, f"{self.averaging}_f1")


def metrics(cm: ConfusionMatrix3, averaging: str = "macro") -> MetricsReport:
    """Full metric report for one confusion matrix, in one pass over its
    diagonal (true positives), row sums (support) and column sums
    (predicted counts).

    accuracy = trace/total, which is also micro precision and recall (pooled
    false positives and false negatives both count total - trace); per-class
    precision = tp/predicted, recall = tp/support, F1 = 2pr/(p+r); macro =
    unweighted mean, weighted = support-weighted mean.
    """
    if averaging not in AVERAGING_SCHEMES:
        raise ValueError(f"unknown averaging scheme {averaging!r}")
    total = cm.total
    if total == 0:
        raise SentiError("cannot compute metrics for an empty confusion matrix")

    tp = np.diag(cm.counts)
    support = cm.counts.sum(axis=1)
    predicted = cm.counts.sum(axis=0)
    precision = np.divide(tp, predicted, out=np.zeros(N_CLASSES), where=predicted > 0)
    recall = np.divide(tp, support, out=np.zeros(N_CLASSES), where=support > 0)
    p_plus_r = precision + recall
    f1 = np.divide(2.0 * precision * recall, p_plus_r, out=np.zeros(N_CLASSES), where=p_plus_r > 0)
    # class by class, each class's precision, recall and f1 in that order
    denominators = zip(predicted.tolist(), support.tolist(), p_plus_r.tolist())
    flags = [f"{m}[{name}]" for name, dens in zip(CLASS_NAMES, denominators)
             for m, d in zip(_METRIC_NAMES, dens) if d == 0]

    accuracy = int(tp.sum()) / total
    p, r, f = precision.tolist(), recall.tolist(), f1.tolist()
    weights = support / total
    return MetricsReport(
        accuracy=accuracy,
        per_class_precision=p,
        per_class_recall=r,
        per_class_f1=f,
        support=support.tolist(),
        macro_precision=sum(p) / N_CLASSES,
        macro_recall=sum(r) / N_CLASSES,
        macro_f1=sum(f) / N_CLASSES,
        micro_precision=accuracy,
        micro_recall=accuracy,
        micro_f1=2.0 * accuracy * accuracy / (accuracy + accuracy) if accuracy > 0 else 0.0,
        weighted_precision=sum((weights * precision).tolist()),
        weighted_recall=sum((weights * recall).tolist()),
        weighted_f1=sum((weights * f1).tolist()),
        averaging=averaging,
        zero_division_flags=flags,
        confusion=cm,
    )


def _scheme(report: MetricsReport, scheme: str) -> tuple:
    """The report's (precision, recall, f1) under one averaging scheme."""
    return tuple(getattr(report, f"{scheme}_{m}") for m in _METRIC_NAMES)


def _per_class(report: MetricsReport):
    """(name, precision, recall, f1, support) for each class, in label order."""
    return zip(CLASS_NAMES, report.per_class_precision, report.per_class_recall,
               report.per_class_f1, report.support)


def report_to_dict(report: MetricsReport, cm: ConfusionMatrix3 = None) -> dict:
    out = {
        "averaging": report.averaging,
        "accuracy": report.accuracy,
        "precision": report.precision,
        "recall": report.recall,
        "f1": report.f1,
        "per_class": {
            name: {"precision": p, "recall": r, "f1": f, "support": s}
            for name, p, r, f, s in _per_class(report)
        },
        "aggregates": {
            scheme: dict(zip(_METRIC_NAMES, _scheme(report, scheme)))
            for scheme in AVERAGING_SCHEMES
        },
        "zero_division_flags": list(report.zero_division_flags),
    }
    if cm is not None:
        out["confusion_matrix"] = cm.counts.tolist()
    return out


def report_to_json(report: MetricsReport, cm: ConfusionMatrix3 = None) -> str:
    return json.dumps(report_to_dict(report, cm), indent=2, sort_keys=True) + "\n"


def _percent_row(name: str, values, last: str) -> list:
    return [name, *(f"{100.0 * v:.2f}" for v in values), last]


def _table(header: list, body: list) -> list:
    """Lines of an aligned text table: cells left-aligned in columns two
    spaces apart, trailing blanks cut, a rule of dashes under the header."""
    widths = [max(map(len, column)) for column in zip(header, *body)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in (header, *body)]
    return [lines[0], "  ".join("-" * w for w in widths), *lines[1:]]


def format_report(report: MetricsReport, cm: ConfusionMatrix3 = None) -> str:
    """Readable single-model breakdown: per-class rows, the three aggregate
    schemes, and (optionally) the confusion matrix."""
    body = [_percent_row(name, (p, r, f), str(s)) for name, p, r, f, s in _per_class(report)]
    body += [_percent_row(scheme, _scheme(report, scheme), "") for scheme in AVERAGING_SCHEMES]
    lines = [f"accuracy: {100.0 * report.accuracy:.2f}%  (headline averaging: {report.averaging})",
             *_table(["class", "precision (%)", "recall (%)", "f1 (%)", "support"], body)]
    if cm is not None:
        lines.append("confusion matrix (rows actual, columns predicted):")
        name_w = max(map(len, CLASS_NAMES))
        cell_w = max(name_w, *(len(str(v)) for v in cm.counts.ravel().tolist()))
        lines.append(" " * name_w + "  " + "  ".join(n.rjust(cell_w) for n in CLASS_NAMES))
        for name, row in zip(CLASS_NAMES, cm.counts.tolist()):
            lines.append(name.ljust(name_w) + "  " + "  ".join(str(v).rjust(cell_w) for v in row))
    if report.zero_division_flags:
        lines.append("zero divisions reported as 0.0: " + ", ".join(report.zero_division_flags))
    return "\n".join(lines) + "\n"


def format_table(rows: dict) -> str:
    """Aligned text table: model rows, Accuracy/Precision/Recall/F1 columns in percent.

    `rows` maps a model name to its MetricsReport; each P/R/F1 triple is
    labeled with the report's averaging scheme.
    """
    body = [_percent_row(name, (rep.accuracy, rep.precision, rep.recall, rep.f1), rep.averaging)
            for name, rep in rows.items()]
    header = ["Model", "Accuracy (%)", "Precision (%)", "Recall (%)", "F1 Score (%)", "Averaging"]
    return "\n".join(_table(header, body)) + "\n"
