"""Time a fixed quermass-free kernel on request.

bench_child.py starts this script as a process of its own and asks it
for a sample (a line on stdin) before and after every command of a
workload, to measure how fast the shared host runs at that moment.  The
kernel mixes the two kinds of work the workloads do: a Python loop over
small NumPy calls, and passes over an array much larger than the caches.

    python3 perfbench/calibrate.py    # prints a sample per input line
"""

import sys
import time

import numpy as np

RNG = np.random.default_rng(0)
SMALL_M, SMALL_V = RNG.standard_normal((40, 40)), RNG.standard_normal(256)
BIG = RNG.standard_normal(2_000_000)


def kernel() -> float:
    """Seconds the kernel takes."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(3000):
        acc += float((SMALL_M @ SMALL_V[:40]).sum())
        acc += float(np.abs(np.fft.rfft(SMALL_V)[:8]).max())
        acc += sum(k * 0.5 for k in range(10))
    for _ in range(4):
        acc += float(np.sqrt(np.abs(BIG) + 1.0).sum())
    return time.perf_counter() - start


if __name__ == "__main__":
    for _ in sys.stdin:
        print(kernel(), flush=True)
