import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import metrics_loop_ref, metrics_ref
from sentilstm.errors import SentiError
from sentilstm.metrics import (AVERAGING_SCHEMES, CLASS_NAMES, ConfusionMatrix3,
                               MetricsReport, confusion, format_report, format_table,
                               metrics, report_to_dict, report_to_json)


def cm_from(rows):
    return ConfusionMatrix3(np.array(rows, dtype=np.int64))


class TestConfusion:
    def test_counts_rows_actual_columns_predicted(self):
        cm = confusion([0, 0, 1, 2, 2], [0, 1, 1, 2, 0])
        assert cm.counts.tolist() == [[1, 1, 0], [0, 1, 0], [1, 0, 1]]
        assert cm.total == 5

    def test_shape_and_sign_validation(self):
        with pytest.raises(ValueError):
            ConfusionMatrix3(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            cm_from([[1, 0, 0], [0, -1, 0], [0, 0, 0]])

    def test_label_range_validation(self):
        with pytest.raises(ValueError):
            confusion([0, 3], [0, 0])
        with pytest.raises(ValueError):
            confusion([0, -1], [0, 0])
        with pytest.raises(ValueError):
            confusion([0, 0], [0, 1, 2])


class TestPerClassBinary:
    def test_textbook_binary_example(self):
        # class 2 one-vs-rest: TP=50, FP=5, FN=5, TN=40
        cm = cm_from([[40, 0, 5], [0, 0, 0], [5, 0, 50]])
        report = metrics(cm)
        assert abs(report.accuracy - 0.90) < 1e-12
        assert abs(report.per_class_precision[2] - 50 / 55) < 1e-12
        assert abs(report.per_class_recall[2] - 50 / 55) < 1e-12
        assert abs(report.per_class_f1[2] - 50 / 55) < 1e-12
        assert abs(report.per_class_precision[2] - 0.9091) < 5e-5

@st.composite
def confusion_matrices(draw):
    """3x3 counts, small or large, with whole rows and columns often zero."""
    high = draw(st.sampled_from([1, 3, 50, 10 ** 6]))
    counts = np.array(draw(st.lists(st.integers(0, high), min_size=9, max_size=9)),
                      dtype=np.int64).reshape(3, 3)
    counts[draw(st.lists(st.integers(0, 2), max_size=2)), :] = 0
    counts[:, draw(st.lists(st.integers(0, 2), max_size=2))] = 0
    if counts.sum() == 0:
        counts[draw(st.integers(0, 2)), draw(st.integers(0, 2))] = draw(st.integers(1, high))
    return cm_from(counts)


class TestExactOracle:
    @given(confusion_matrices(), st.sampled_from(AVERAGING_SCHEMES))
    @settings(max_examples=500, deadline=None)
    def test_report_and_its_text_equal_the_per_class_loop(self, cm, averaging):
        got = metrics(cm, averaging=averaging)
        want = MetricsReport(**metrics_loop_ref(cm.counts, averaging), confusion=cm)
        for f in dataclasses.fields(MetricsReport):
            if f.name != "confusion":
                assert getattr(got, f.name) == getattr(want, f.name), f.name
        assert repr(got) == repr(want)
        assert report_to_json(got, cm) == report_to_json(want, cm)
        assert format_report(got, cm) == format_report(want, cm)
        assert format_table({"model": got, "m": got}) == format_table({"model": want, "m": want})


class TestMetrics:
    def test_matches_brute_force_reference(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            counts = rng.integers(0, 50, size=(3, 3))
            if counts.sum() == 0:
                continue
            cm = cm_from(counts)
            got = metrics(cm)
            want = metrics_ref(counts)
            assert abs(got.accuracy - want["accuracy"]) < 1e-12
            for k in range(3):
                assert abs(got.per_class_precision[k] - want["per_class"][k]["precision"]) < 1e-12
                assert abs(got.per_class_recall[k] - want["per_class"][k]["recall"]) < 1e-12
                assert abs(got.per_class_f1[k] - want["per_class"][k]["f1"]) < 1e-12
                assert got.support[k] == want["per_class"][k]["support"]
            for scheme in AVERAGING_SCHEMES:
                for m in ("precision", "recall", "f1"):
                    assert abs(getattr(got, f"{scheme}_{m}") - want[scheme][m]) < 1e-12

    def test_micro_equals_accuracy(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            counts = rng.integers(0, 40, size=(3, 3))
            if counts.sum() == 0:
                continue
            report = metrics(cm_from(counts), averaging="micro")
            assert abs(report.micro_precision - report.accuracy) < 1e-12
            assert abs(report.micro_recall - report.accuracy) < 1e-12
            assert abs(report.micro_f1 - report.accuracy) < 1e-12

    def test_perfect_predictions(self):
        report = metrics(cm_from([[10, 0, 0], [0, 5, 0], [0, 0, 7]]))
        assert report.accuracy == 1.0
        assert report.macro_f1 == 1.0
        assert report.weighted_f1 == 1.0
        assert report.zero_division_flags == []

    def test_zero_division_flagged(self):
        # nothing is ever predicted as class 1 and class 1 never occurs:
        # precision, recall, and f1 for neutral are all 0/0 -> 0.0, flagged
        report = metrics(cm_from([[5, 0, 1], [0, 0, 0], [2, 0, 9]]))
        assert report.per_class_precision[1] == 0.0
        assert report.per_class_recall[1] == 0.0
        assert report.per_class_f1[1] == 0.0
        assert any("neutral" in flag for flag in report.zero_division_flags)

    def test_averaging_dispatch(self):
        cm = cm_from([[8, 1, 1], [2, 6, 2], [0, 3, 7]])
        for scheme in AVERAGING_SCHEMES:
            report = metrics(cm, averaging=scheme)
            assert report.averaging == scheme
            assert report.precision == getattr(report, f"{scheme}_precision")
            assert report.recall == getattr(report, f"{scheme}_recall")
            assert report.f1 == getattr(report, f"{scheme}_f1")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            metrics(cm_from([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), averaging="median")

    def test_empty_matrix_rejected(self):
        with pytest.raises(SentiError):
            metrics(cm_from([[0, 0, 0], [0, 0, 0], [0, 0, 0]]))


class TestReportOutput:
    def setup_method(self):
        self.cm = cm_from([[8, 1, 1], [2, 6, 2], [0, 3, 7]])
        self.report = metrics(self.cm)

    def test_dict_structure(self):
        d = report_to_dict(self.report, self.cm)
        assert d["averaging"] == "macro"
        assert set(d["per_class"]) == set(CLASS_NAMES)
        assert set(d["aggregates"]) == set(AVERAGING_SCHEMES)
        assert d["confusion_matrix"] == self.cm.counts.tolist()
        assert d["precision"] == self.report.macro_precision

    def test_json_round_trips(self):
        parsed = json.loads(report_to_json(self.report))
        assert parsed["accuracy"] == self.report.accuracy
        assert "confusion_matrix" not in parsed

    def test_format_report_contents(self):
        text = format_report(self.report, self.cm)
        assert "accuracy: 70.00%" in text
        for name in CLASS_NAMES:
            assert name in text
        for scheme in AVERAGING_SCHEMES:
            assert scheme in text
        assert "rows actual, columns predicted" in text

    def test_format_table_layout(self):
        rows = {"lstm": self.report, "rnn": metrics(self.cm, averaging="weighted")}
        text = format_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("Model")
        assert "F1 Score (%)" in lines[0]
        assert set(lines[1]) == {"-", " "}
        assert lines[2].startswith("lstm")
        assert lines[3].startswith("rnn")
        assert "macro" in lines[2] and "weighted" in lines[3]
        assert "70.00" in lines[2]
