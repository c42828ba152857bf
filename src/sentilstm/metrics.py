"""Confusion-matrix construction and three-class accuracy/precision/recall/F1.

Per-class scores come from the one-vs-rest reduction of the binary
definitions; macro, micro, and weighted aggregates are all computed, and a
report always carries which scheme is its headline and the confusion matrix
it was computed from. Zero denominators yield 0.0 and are flagged rather
than producing NaN.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import SentiError

N_CLASSES = 3
CLASS_NAMES = ("negative", "neutral", "positive")
AVERAGING_SCHEMES = ("macro", "micro", "weighted")


@dataclass
class ConfusionMatrix3:
    """3x3 count matrix; rows are actual classes, columns predicted."""

    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (N_CLASSES, N_CLASSES):
            raise ValueError(f"confusion matrix must be 3x3, got {self.counts.shape}")
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


def per_class_binary(cm: ConfusionMatrix3, k: int):
    """One-vs-rest (TP, FP, FN, TN) for class k."""
    counts = cm.counts
    tp = int(counts[k, k])
    fp = int(counts[:, k].sum() - counts[k, k])
    fn = int(counts[k, :].sum() - counts[k, k])
    tn = cm.total - tp - fp - fn
    return tp, fp, fn, tn


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


def _ratio(numerator, denominator, flags, name):
    if denominator == 0:
        flags.append(name)
        return 0.0
    return numerator / denominator


def metrics(cm: ConfusionMatrix3, averaging: str = "macro") -> MetricsReport:
    """Full metric report for one confusion matrix.

    accuracy = trace/total; per-class precision/recall/F1 from the
    one-vs-rest tuples; macro = unweighted mean, weighted = support-weighted
    mean, micro = pooled counts (identical to accuracy for single-label
    classification).
    """
    if averaging not in AVERAGING_SCHEMES:
        raise ValueError(f"unknown averaging scheme {averaging!r}")
    total = cm.total
    if total == 0:
        raise SentiError("cannot compute metrics for an empty confusion matrix")

    flags = []
    precisions, recalls, f1s, support = [], [], [], []
    pooled_tp = pooled_fp = pooled_fn = 0
    for k in range(N_CLASSES):
        tp, fp, fn, _ = per_class_binary(cm, k)
        p = _ratio(tp, tp + fp, flags, f"precision[{CLASS_NAMES[k]}]")
        r = _ratio(tp, tp + fn, flags, f"recall[{CLASS_NAMES[k]}]")
        f1 = _ratio(2.0 * p * r, p + r, flags, f"f1[{CLASS_NAMES[k]}]")
        precisions.append(p)
        recalls.append(r)
        f1s.append(f1)
        support.append(tp + fn)
        pooled_tp += tp
        pooled_fp += fp
        pooled_fn += fn

    accuracy = float(np.trace(cm.counts)) / total
    weights = [s / total for s in support]
    micro_p = pooled_tp / (pooled_tp + pooled_fp)
    micro_r = pooled_tp / (pooled_tp + pooled_fn)
    micro_f1 = 2.0 * micro_p * micro_r / (micro_p + micro_r) if micro_p + micro_r > 0 else 0.0
    if averaging == "micro":
        # single-label identity: pooled FP and FN both equal total - trace
        assert abs(micro_p - accuracy) < 1e-12 and abs(micro_r - accuracy) < 1e-12
    return MetricsReport(
        accuracy=accuracy,
        per_class_precision=precisions,
        per_class_recall=recalls,
        per_class_f1=f1s,
        support=support,
        macro_precision=sum(precisions) / N_CLASSES,
        macro_recall=sum(recalls) / N_CLASSES,
        macro_f1=sum(f1s) / N_CLASSES,
        micro_precision=micro_p,
        micro_recall=micro_r,
        micro_f1=micro_f1,
        weighted_precision=sum(w * p for w, p in zip(weights, precisions)),
        weighted_recall=sum(w * r for w, r in zip(weights, recalls)),
        weighted_f1=sum(w * f for w, f in zip(weights, f1s)),
        averaging=averaging,
        zero_division_flags=flags,
        confusion=cm,
    )


def report_to_dict(report: MetricsReport, cm: ConfusionMatrix3 = None) -> dict:
    out = {
        "averaging": report.averaging,
        "accuracy": report.accuracy,
        "precision": report.precision,
        "recall": report.recall,
        "f1": report.f1,
        "per_class": {
            CLASS_NAMES[k]: {
                "precision": report.per_class_precision[k],
                "recall": report.per_class_recall[k],
                "f1": report.per_class_f1[k],
                "support": report.support[k],
            }
            for k in range(N_CLASSES)
        },
        "aggregates": {
            scheme: {
                "precision": getattr(report, f"{scheme}_precision"),
                "recall": getattr(report, f"{scheme}_recall"),
                "f1": getattr(report, f"{scheme}_f1"),
            }
            for scheme in AVERAGING_SCHEMES
        },
        "zero_division_flags": list(report.zero_division_flags),
    }
    if cm is not None:
        out["confusion_matrix"] = cm.counts.tolist()
    return out


def report_to_json(report: MetricsReport, cm: ConfusionMatrix3 = None) -> str:
    return json.dumps(report_to_dict(report, cm), indent=2, sort_keys=True) + "\n"


def format_report(report: MetricsReport, cm: ConfusionMatrix3 = None) -> str:
    """Readable single-model breakdown: per-class rows, the three aggregate
    schemes, and (optionally) the confusion matrix."""
    header = ["class", "precision (%)", "recall (%)", "f1 (%)", "support"]
    body = [
        [
            CLASS_NAMES[k],
            f"{100.0 * report.per_class_precision[k]:.2f}",
            f"{100.0 * report.per_class_recall[k]:.2f}",
            f"{100.0 * report.per_class_f1[k]:.2f}",
            str(report.support[k]),
        ]
        for k in range(N_CLASSES)
    ]
    for scheme in AVERAGING_SCHEMES:
        body.append([
            scheme,
            f"{100.0 * getattr(report, f'{scheme}_precision'):.2f}",
            f"{100.0 * getattr(report, f'{scheme}_recall'):.2f}",
            f"{100.0 * getattr(report, f'{scheme}_f1'):.2f}",
            "",
        ])
    widths = [max(len(line[i]) for line in [header] + body) for i in range(len(header))]
    lines = [f"accuracy: {100.0 * report.accuracy:.2f}%  (headline averaging: {report.averaging})"]
    lines += ["  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
              for line in [header] + body]
    lines.insert(2, "  ".join("-" * w for w in widths))
    if cm is not None:
        lines.append("confusion matrix (rows actual, columns predicted):")
        name_w = max(len(n) for n in CLASS_NAMES)
        cell_w = max(len(str(int(v))) for v in cm.counts.ravel())
        cell_w = max(cell_w, max(len(n) for n in CLASS_NAMES))
        lines.append(" " * name_w + "  " + "  ".join(n.rjust(cell_w) for n in CLASS_NAMES))
        for k in range(N_CLASSES):
            row = "  ".join(str(int(v)).rjust(cell_w) for v in cm.counts[k])
            lines.append(CLASS_NAMES[k].ljust(name_w) + "  " + row)
    if report.zero_division_flags:
        lines.append("zero divisions reported as 0.0: " + ", ".join(report.zero_division_flags))
    return "\n".join(lines) + "\n"


def format_table(rows: dict) -> str:
    """Aligned text table: model rows, Accuracy/Precision/Recall/F1 columns in percent.

    `rows` maps a model name to its MetricsReport; each P/R/F1 triple is
    labeled with the report's averaging scheme.
    """
    header = ["Model", "Accuracy (%)", "Precision (%)", "Recall (%)", "F1 Score (%)", "Averaging"]
    body = [
        [
            name,
            f"{100.0 * rep.accuracy:.2f}",
            f"{100.0 * rep.precision:.2f}",
            f"{100.0 * rep.recall:.2f}",
            f"{100.0 * rep.f1:.2f}",
            rep.averaging,
        ]
        for name, rep in rows.items()
    ]
    widths = [max(len(line[i]) for line in [header] + body) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
             for line in [header] + body]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"
