"""A fixed pure-Python workload that measures how fast the host runs right now.

On a shared 2-vCPU virtual machine (Python 3.11, numpy 2.4) the same code
ran up to 1.7x slower or faster from one minute to the next as other
tenants loaded the host, and the time metrics of ten runs of a workload
spread by up to 36% (first to third quartile over the median). The
benchmark times this loop between queries and reports its time metrics
scaled by REFERENCE_S / (mean loop time), that is, at the speed at which the
loop takes REFERENCE_S; scaled, the spreads were 3-20%. The unscaled times are kept in the run's
details. The loop uses nothing from the program, so a change to the program
does not move it.
"""

import time

REFERENCE_S = 0.006  # loop time on that machine when it is not contended


def calibrate() -> float:
    """Seconds for one pass of dict inserts, big-int shifts and dict lookups."""
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(20000):
        table[i * 7919 % 100003] = i
        acc ^= i << (i & 63)
    for k in range(0, 100003, 7):
        acc += table.get(k, 0)
    return time.perf_counter() - start
