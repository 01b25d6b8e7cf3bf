"""A seeded family of hard one-row knapsacks that have no solution.

``family(k, scale)`` draws k distinct values uniformly from scale +- scale/3
with ``random.Random(k)``, drawing again on a repeat, and gives each one
multiplicity 10.  The target is the sum nearest half the total (the lower
one on a tie) that no selection reaches (``nearest_unreachable``, read off
the benchmark's reachable-sums bitset).  Every selection near half the
total then misses the target by a little, so a search that tries the values
of one box after another meets no early refutation.  The bitset of the
k = 8 family near 10^7 takes seconds and hundreds of MB to build, so the
targets are pinned in ``TARGETS``; the tests re-derive the smaller ones.

``lattice_calls`` records the engine's moves to the kernel lattice.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from varsolve import ilp
from varsolve.variety import Multiset

ROOT = Path(__file__).resolve().parent.parent


def benchmark_checks():
    """The benchmark's reference deciders (``varbench/checks.py``), which share
    no code with ``varsolve``."""
    sys.path.insert(0, str(ROOT))
    try:
        from varbench import checks
    finally:
        sys.path.remove(str(ROOT))
    return checks


# family(k, scale)'s target, as nearest_unreachable gives it.
TARGETS = {(8, 10**4): 105388, (8, 10**5): 1765338, (8, 10**6): 28374890,
           (8, 10**7): 355825616, (10, 10**5): 1359009}


def family(k: int, scale: int) -> tuple[Multiset, int]:
    """The family's multiset and target for k values near ``scale``, one of
    the pairs in ``TARGETS``."""
    rng = random.Random(k)
    values: list[int] = []
    while len(values) < k:
        value = rng.randint(scale - scale // 3, scale + scale // 3)
        if value not in values:
            values.append(value)
    return Multiset(tuple((value, 10) for value in values)), TARGETS[k, scale]


def nearest_unreachable(a: Multiset) -> int:
    """The sum nearest half of a's total (the lower one on a tie) that no
    sub-multiset of a reaches."""
    counts = dict(a.entries)
    total = a.total()
    half = total // 2
    # Sum s is reachable exactly when total - s is, so the bitset only needs
    # to reach the upper half point.
    upper = total - half
    bits = benchmark_checks().reachable_sums(counts, upper)

    def largest_unreachable(limit: int) -> int:
        return (~bits & ((1 << (limit + 1)) - 1)).bit_length() - 1

    below = largest_unreachable(half)
    above = total - largest_unreachable(upper)
    return below if half - below <= above - half else above


def lattice_calls(patch) -> list[tuple]:
    """The argument tuples of every move to the kernel lattice from here on;
    ``patch`` (a pytest MonkeyPatch) undoes the recording."""
    calls = []
    phase = ilp._lattice_phase

    def recording(*args):
        calls.append(args)
        return phase(*args)

    patch.setattr(ilp, "_lattice_phase", recording)
    return calls
