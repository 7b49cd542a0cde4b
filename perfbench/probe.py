"""Measures the speed of one CPU while the benchmark's invocations run on it.

    python3 perfbench/probe.py <cpu>

The probe pins itself to <cpu>.  Every PERIOD_S it runs a fixed kernel and
prints one line, `<time.monotonic() at the start> <thread CPU seconds>`, until
it is terminated.  The kernel is pure Python in the style of qeuler: a product
of two dictionary polynomials with big-integer coefficients keyed by exponent
pairs.  Timing it in thread CPU time makes the reading independent of when
the scheduler lets it run; it moves only with how fast the CPU executes, which
on a shared host changes by 20% and more within seconds.  The kernel takes
about 3% of the CPU.
"""

import os
import sys
import time

PERIOD_S = 0.04
FACTOR = {(0, 0): 1, (1, 1): 3, (0, 2): 7, (2, 1): 11}


def mul(a, b):
    out = {}
    for (ya, qa), x in a.items():
        for (yb, qb), z in b.items():
            k = (ya + yb, qa + qb)
            out[k] = out.get(k, 0) + x * z
    return out


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    base = {(0, 0): 1}
    for _ in range(5):
        base = mul(base, FACTOR)
    while True:
        start = time.monotonic()
        cpu = time.thread_time()
        mul(base, base)
        print(f"{start:.6f} {time.thread_time() - cpu:.7f}", flush=True)
        time.sleep(max(0.0, PERIOD_S - (time.monotonic() - start)))


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BrokenPipeError, KeyboardInterrupt):
        sys.exit(0)
