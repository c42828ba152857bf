#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (a few minutes).

    python3 perfbench/smoke.py

1. Every workload runs with trace off and on, its outputs pass their
   checks, and it reports exactly the metric names BENCHMARK.json
   declares, each with its declared unit.
2. Deliberately corrupted outputs are counted as failed operations: a
   flipped label in the evaluate JSON, a predict label that disagrees with
   the batch path, a run whose evaluate output is corrupted in process.

The workloads run in this process through `workloads.run` with
`scale="tiny"` (full training sets; fewer epochs, evaluate rows and
predicts).
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
# the cold `predict` processes load the package from this checkout too
os.environ["PYTHONPATH"] = os.path.join(ROOT, "src")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]

import checks  # noqa: E402
import workloads  # noqa: E402
import sentilstm.cli as cli  # noqa: E402
from sentilstm.metrics import confusion, metrics, report_to_json  # noqa: E402


def run_tiny(workload, trace):
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-smoke-") as work:
        return workloads.run(workload, 3, 0.0, trace, work, ROOT, scale="tiny")


def check_declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    for spec in bench["workloads"]:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            ops, result, _ = run_tiny(spec["name"], trace)
            assert ops.failed == 0 and ops.attempted >= 1, ops.problems
            units = {m["name"]: m["unit"] for m in declared}
            got = {name: unit for name, (_, unit) in result.items()}
            assert got == units, f"{spec['name']} trace={trace}: {sorted(set(got) ^ set(units))}"
            for name, (value, _) in result.items():
                assert isinstance(value, (int, float)), (name, value)
            print(f"ok  {spec['name']} trace {trace}: {len(got)} metrics, "
                  f"{ops.attempted} operations")


def check_corruption_is_counted():
    actual = [0, 0, 1, 1, 2, 2, 2]
    predicted = [0, 1, 1, 1, 2, 0, 2]
    cm = confusion(actual, predicted)
    good = report_to_json(metrics(cm), cm)
    assert checks.check_evaluate(good, actual) == []
    flipped = json.loads(good)
    flipped["confusion_matrix"][0][0] -= 1
    flipped["confusion_matrix"][0][2] += 1
    assert checks.check_evaluate(json.dumps(flipped), actual), "flipped label not caught"

    prediction = json.dumps({"prediction": "positive",
                             "probabilities": {"negative": 0.1, "neutral": 0.2, "positive": 0.7}})
    assert checks.check_predict(prediction, 2) == []
    assert checks.check_predict(prediction, 0), "mismatched predict not caught"
    bad_sum = prediction.replace("0.7", "0.8")
    assert checks.check_predict(bad_sum, 2), "probabilities off by 0.1 not caught"

    ops = workloads.Ops()
    with ops.op("evaluate") as problems:
        problems += checks.check_evaluate(json.dumps(flipped), actual)
    assert (ops.attempted, ops.failed) == (1, 1)

    # the same corruption inside a real run: every evaluate must fail
    original = cli.report_to_json

    def corrupted(report, cm=None):
        """One negative example reported as a neutral one."""
        payload = json.loads(original(report, cm))
        counts = payload["confusion_matrix"]
        j = next(j for j in range(3) if counts[0][j])
        counts[0][j] -= 1
        counts[1][j] += 1
        return json.dumps(payload)

    cli.report_to_json = corrupted
    try:
        ops, _, _ = run_tiny("zipf-build", 0)
    finally:
        cli.report_to_json = original
    failed_ops = {p.split(":")[0] for p in ops.problems}
    assert ops.failed == 2 and failed_ops == {"evaluate lstm", "evaluate rnn"}, ops.problems
    print(f"ok  corrupted outputs counted: {ops.failed} of {ops.attempted} operations failed")


def main():
    check_declared_metrics()
    check_corruption_is_counted()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
