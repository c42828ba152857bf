"""Output checks. Each returns a list of problems; an empty list means the
output is correct. The workloads count an operation as failed when any
check on its output reports a problem."""

import hashlib
import json
import math
import os

from oracles import metrics_ref

CLASS_NAMES = ("negative", "neutral", "positive")

# A JSON probability is rounded to 4 decimals, so three of them may sum to
# 1 +- 1.5e-4.
PROB_SUM_TOLERANCE = 2e-4


def check_evaluate(payload_text, true_labels):
    """`evaluate --format json` output against the labels of the scored
    file: the confusion matrix must cover every row with the true class
    totals, and accuracy and macro F1 must equal a brute-force
    recomputation from that matrix."""
    try:
        payload = json.loads(payload_text)
        counts = payload["confusion_matrix"]
        accuracy = payload["accuracy"]
        f1 = payload["f1"]
        averaging = payload["averaging"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparseable evaluate output ({exc})"]
    problems = []
    expected_rows = [sum(1 for y in true_labels if y == k) for k in range(3)]
    got_rows = [sum(row) for row in counts]
    if got_rows != expected_rows:
        problems.append(f"confusion rows sum to {got_rows}, the file has {expected_rows}")
    ref = metrics_ref(counts)
    if not math.isclose(accuracy, ref["accuracy"], rel_tol=1e-12, abs_tol=1e-12):
        problems.append(f"accuracy {accuracy} != {ref['accuracy']} from the confusion matrix")
    if averaging in ref and not math.isclose(f1, ref[averaging]["f1"], rel_tol=1e-12, abs_tol=1e-12):
        problems.append(f"{averaging} f1 {f1} != {ref[averaging]['f1']} from the confusion matrix")
    return problems


def check_predict(payload_text, expected_label):
    """`predict --format json` output: a known label equal to the batch
    path's label for the same text, probabilities in [0, 1] that sum to 1
    within rounding, and the label is their argmax."""
    try:
        payload = json.loads(payload_text)
        label = payload["prediction"]
        probs = [float(payload["probabilities"][name]) for name in CLASS_NAMES]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparseable predict output ({exc})"]
    problems = []
    if label not in CLASS_NAMES:
        return [f"unknown label {label!r}"]
    if label != CLASS_NAMES[expected_label]:
        problems.append(f"predict says {label}, the batch path says {CLASS_NAMES[expected_label]}")
    if any(not 0.0 <= p <= 1.0 for p in probs) or abs(sum(probs) - 1.0) > PROB_SUM_TOLERANCE:
        problems.append(f"probabilities {probs} are not a distribution")
    if probs[CLASS_NAMES.index(label)] < max(probs) - PROB_SUM_TOLERANCE:
        problems.append(f"label {label} is not the most probable class in {probs}")
    return problems


def check_train_report(path, expected_steps):
    """train_report.json: every epoch loss finite, the step count right."""
    try:
        with open(path, encoding="utf-8") as f:
            report = json.load(f)
        losses = [float(v) for v in report["epoch_losses"]]
        steps = report["total_steps"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable train report ({exc})"]
    problems = []
    if not losses or not all(math.isfinite(v) for v in losses):
        problems.append(f"non-finite epoch losses {losses}")
    if steps != expected_steps:
        problems.append(f"{steps} training steps, expected {expected_steps}")
    return problems


def check_margin(margin, floor):
    if not margin > floor:
        return [f"embedding margin {margin:.4f} is not above {floor}"]
    return []


def file_digests(directory, names):
    """SHA-256 of each named file, computed here rather than by the program."""
    out = {}
    for name in names:
        with open(os.path.join(directory, name), "rb") as f:
            out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


def check_same_digests(first, again):
    """Artifacts rebuilt from the same inputs and seed must not change."""
    return [f"{name} differs between repeated builds"
            for name in sorted(first) if first[name] != again.get(name)]
