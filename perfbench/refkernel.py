"""Reference kernel: the yardstick for the benchmark's time metrics.

A timed pass (child.py) runs this kernel before its first request and
after every request, in its own process.  Each request's time is divided
by the mean of the two kernel times next to it, so a request that ran
while the host was slow is compared with a kernel that ran slow too.
The kernel calls no bellsim code, so a change to bellsim cannot move it.

It is a pure-Python loop that formats CSV-like rows and calls math.cos,
about 50 ms on a 2.1 GHz Xeon vCPU.  Each row is dropped as soon as it
is counted: the kernel must not grow the heap or move the allocator's
thresholds, or it would change the peak memory of the requests after it.
"""

import math
import time

ROWS = 60_000


def reference_s() -> float:
    """Seconds one run of the kernel takes."""
    start = time.perf_counter()
    chars = 0
    for i in range(ROWS):
        chars += len("%d,%.12g\n" % (i, math.cos(i * 1e-3)))
    return time.perf_counter() - start
