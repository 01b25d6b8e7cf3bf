"""A fixed loop whose time tracks how fast the machine runs at the moment.

On a shared machine the same work can take 20 % more or less time from one
minute to the next.  The benchmark times this loop between instances, in
the same process, and scales every time it reports by ``NOMINAL_S`` over
the loop's median time, so the reported figures stand for one steady
machine.  The loop does what the solvers mostly do (build tuples, look them
up in a dict, sort), touches nothing in varsolve, and runs with the cyclic
garbage collector off, so the objects varsolve leaves alive cannot change
its time.
"""

from __future__ import annotations

import gc
import time

# The loop's median time on the machine the reference figures come from
# (2 vCPUs, Python 3.11); only the ratio to it matters.
NOMINAL_S = 0.004


def probe() -> float:
    """Seconds the loop took this time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        begin = time.perf_counter()
        table: dict[tuple[int, int, int], int] = {}
        for i in range(4000):
            table[(i % 97, i % 13, i)] = table.get((i % 97, i % 13, i - 1), 0) + 1
        sorted(table.items())
        return time.perf_counter() - begin
    finally:
        if enabled:
            gc.enable()
