"""A fixed piece of pure-Python work that gauges the machine's current speed.

The benchmark's host is a small virtual machine on a shared computer.  Its
speed drifts by up to 1.9x over spans of seconds to minutes, as other
tenants load the physical cores, so raw timings of the same work differ by
that much from one run to the next.  The benchmark therefore times this loop
every ``WINDOW_NS`` between items and scales every timing in the window by
``NOMINAL_NS / (reference time)``: timings read as if the machine ran at the
speed at which this loop takes ``NOMINAL_NS``.  The loop never calls the
program, so a change to the program cannot move it.

The work resembles the program's, whose time goes mostly to hashing nested
formula values: it walks formula trees and hashes every subtree into a
set.
"""

from __future__ import annotations

import gc
import random
import time

import inputs

# The loop's time on an idle 2-vCPU x86_64 host running Python 3.11; any
# constant works, this one makes scaled timings read close to raw ones on
# that host when it is not contended.
NOMINAL_NS = 750_000
WINDOW_NS = 100_000_000

_rng = random.Random(0)
_TREES = [inputs.random_tree(_rng, 16) for _ in range(400)]


def work() -> int:
    """Collect the distinct subformulas of every tree into one set."""
    seen = set()
    total = 0
    for tree in _TREES:
        stack = [tree]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if not isinstance(node, str):
                stack.extend(node[1:])
        total += len(seen)
    return total


def time_ns() -> int:
    """Duration of one run of the loop, after a run that brings its code
    and data back into the caches the program's work has just used.  The
    garbage collector is held off so the size of the heap cannot matter."""
    work()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        work()
        return time.perf_counter_ns() - start
    finally:
        gc.enable()
