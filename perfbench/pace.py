"""The machine's momentary speed, from a fixed reference loop.

The benchmark's host is shared: other tenants slow every process on it, in
stretches of a fraction of a second to minutes, by up to about 1.8x, and
the process's CPU time grows with its wall time in those stretches (it
runs slower, it is not descheduled). So the benchmark times a fixed
reference loop just before and just after every group of operations, and,
from a timer signal, every SAMPLE_EVERY_S during an in-process operation.
Each time sample is scaled by REFERENCE_S / (the mean of those loop
times): a time as it would read while the loop takes REFERENCE_S. The
loops run inside the timer's handler are not counted in the operation's
time (`clock`). The loop runs only benchmark code, so a change to the
program does not move it.

The loop does the kinds of work the program does: per-token small matrix
products and element-wise numpy calls, string cleaning and dict counting
in the interpreter, and one larger matrix product.
"""

import contextlib
import gc
import re
import signal
import statistics
import time

import numpy as np

# A typical loop time on the reference machine (2-vCPU container, numpy
# 2.4.6 on scipy-openblas 0.3.31, one BLAS thread); the run medians of the
# loop times taken between operations were 0.0099 to 0.0129 s.
REFERENCE_S = 0.0100
REPEATS = 3                # a measurement between operations: the median of this many loops
REUSE_WITHIN_S = 0.5       # a measurement this recent also opens the next group
SAMPLE_EVERY_S = 0.15      # one loop this often during an in-process operation

_rng = np.random.default_rng(20240)
_W = _rng.standard_normal((200, 74)) * 0.1
_X = _rng.standard_normal((240, 24))
_M = _rng.standard_normal((240, 240))
_WORDS = [f"w{int(i)}" for i in _rng.integers(0, 400, size=4800)]
_TEXTS = [" ".join(_WORDS[i:i + 12]) + " @user1 https://t.co/ab #x y# !!" for i in range(0, 4800, 12)]
_NOISE = re.compile(r"https?://\S+|@\w+|#[^#]*#|[^\w\s]")

_handler_s = 0.0           # time spent in the timer's handler so far


def _loop():
    h = np.zeros(50)
    c = np.zeros(50)
    for x in _X:
        z = _W @ np.concatenate([x, h])
        i, f, o, g = np.split(z, 4)
        c = c / (1.0 + np.exp(-f)) + np.tanh(g) / (1.0 + np.exp(-i))
        h = np.tanh(c) / (1.0 + np.exp(-o))
    counts = {}
    for text in _TEXTS:
        for word in _NOISE.sub(" ", text.lower()).split():
            counts[word] = counts.get(word, 0) + 1
    return float(h.sum() + (_M @ _M).trace() + len(counts))


def _timed_loop():
    # the loop's garbage collections would scan the program's objects too
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _loop()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def measure():
    """Seconds the reference loop takes now: the median of REPEATS loops."""
    return statistics.median(_timed_loop() for _ in range(REPEATS))


def clock():
    """perf_counter without the time spent in the timer's handler."""
    return time.perf_counter() - _handler_s


class Pace:
    """Reference-loop measurements, each with the time it was taken."""

    def __init__(self):
        self.measurements = []     # (perf_counter at the end, loop seconds)
        self.inside = 0            # loops run from the timer

    def now(self):
        """A measurement to open a group: the last one if it is recent."""
        if self.measurements and time.perf_counter() - self.measurements[-1][0] < REUSE_WITHIN_S:
            return self.measurements[-1][1]
        return self.take()

    def take(self):
        loop = measure()
        self.measurements.append((time.perf_counter(), loop))
        return loop

    @contextlib.contextmanager
    def sampling(self, loops):
        """Append a loop time to `loops` every SAMPLE_EVERY_S until exit."""
        def handler(_signum, _frame):
            global _handler_s
            started = time.perf_counter()
            loops.append(_timed_loop())
            _handler_s += time.perf_counter() - started
            self.inside += 1

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @staticmethod
    def scale(loops):
        """Factor that turns a time measured while the loop took `loops`
        into a time at the reference speed."""
        return REFERENCE_S / statistics.fmean(loops)
