#!/usr/bin/env python3
"""sentilstm benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a sentilstm checkout. Generates the workload's inputs
from the seed, runs them through the CLI and API from `src/`, checks every
output, and prints as its last stdout line one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics of a separate traced run with --trace 1.
The line before it holds the environment and the input sizes. See
perfbench/README.md for the workloads and metric definitions.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
REQUIRED = ("src/sentilstm/cli.py", "tests/synthetic.py", "tests/oracles.py")
WORKLOADS = ("longrange-train", "zipf-build")

# One BLAS thread: on a 2-core machine the default of two measured slower
# and noisier for the small GEMVs of the recurrence. Set before numpy loads.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_threads_in_use():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes
    import glob

    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return getter()
    return None


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_env": BLAS_THREADS,
        "blas_threads": blas_threads_in_use(),
    }


def main(argv=None):
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: not a sentilstm checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2

    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    # children (cold `predict`, import timing) load the package from this checkout too
    os.environ["PYTHONPATH"] = os.path.join(ROOT, "src")
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]
    import sentilstm
    if not os.path.realpath(sentilstm.__file__).startswith(os.path.realpath(ROOT) + os.sep):
        print(f"error: imported sentilstm from {sentilstm.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    import workloads

    work_dir = os.path.join(ROOT, ".perfbench-work", f"{args.workload}-{args.seed}-{os.getpid()}")
    trace_out = None
    if args.trace:
        os.makedirs(os.path.join(ROOT, ".perfbench-out"), exist_ok=True)
        trace_out = os.path.join(ROOT, ".perfbench-out", f"spans-{args.workload}-{args.seed}.jsonl")
    os.makedirs(work_dir)
    # a terminated run still stops its child process and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.perf_counter()
    try:
        ops, metrics, info = workloads.run(args.workload, args.seed, args.seconds, args.trace,
                                           work_dir, ROOT, trace_out)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                wall_s=time.perf_counter() - started,
                environment=environment(), problems=ops.problems[:20])
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if ops.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
