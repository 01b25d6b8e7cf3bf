"""Exhaustive reference solvers and certificate validators.

Everything here re-derives the problem semantics directly from the problem
statements and deliberately shares no instance-transformation code with the
production solvers.  Reference solvers reject instances beyond their caps
rather than attempt them.  Every certificate check is here, one validator per
problem; each returns a bool and never raises.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

from .mealy import (EMPTY, CensusRequirement, MealyMachine, WalkDecomposition,
                    census_of, run, subdivide)
from .reductions import HeatInstance, MulticoloredGraph, SplitsInstance
from .variety import Multiset, SubsetCertificate, TripleCover

DEFAULT_CARDINALITY_CAP = 20
DEFAULT_SEARCH_CAP = 2_000_000


class InstanceTooLarge(ValueError):
    """Instance exceeds the configured enumeration cap."""


def _check_cardinality(cap, *multisets: Multiset) -> None:
    for ms in multisets:
        if ms.cardinality() > cap:
            raise InstanceTooLarge(
                f"cardinality {ms.cardinality()} exceeds cap {cap}")


def brute_subset_sum(a: Multiset, s: int, cap: int = DEFAULT_CARDINALITY_CAP) -> bool:
    """Enumerate the full multiplicity box product."""
    _check_cardinality(cap, a)
    for take in product(*(range(m + 1) for _, m in a.entries)):
        if sum(v * t for (v, _), t in zip(a.entries, take)) == s:
            return True
    return False


def brute_partition(a: Multiset, cap: int = DEFAULT_CARDINALITY_CAP) -> bool:
    """A submultiset whose doubled sum is the total splits the multiset."""
    _check_cardinality(cap, a)
    total = a.total()
    for take in product(*(range(m + 1) for _, m in a.entries)):
        if 2 * sum(v * t for (v, _), t in zip(a.entries, take)) == total:
            return True
    return False


def brute_3partition(a: Multiset, cap: int = DEFAULT_CARDINALITY_CAP) -> bool:
    """Recursively peel off triples of equal sum until nothing remains."""
    _check_cardinality(cap, a)
    if a.cardinality() % 3 != 0:
        return False
    n = a.cardinality() // 3
    if n == 0:
        return True
    if a.total() % n != 0:
        return False
    target = a.total() // n
    values = sorted(a.expand())

    def strip(remaining: tuple[int, ...]) -> bool:
        if not remaining:
            return True
        first = remaining[0]
        rest = remaining[1:]
        tried = set()
        for x in range(len(rest)):
            for y in range(x + 1, len(rest)):
                pair = (rest[x], rest[y])
                if pair in tried or first + rest[x] + rest[y] != target:
                    continue
                tried.add(pair)
                leftover = list(rest)
                del leftover[y]
                del leftover[x]
                if strip(tuple(leftover)):
                    return True
        return False

    return strip(tuple(values))


def brute_num3dm(a: Multiset, b: Multiset, c: Multiset, s: int,
                 cap: int = DEFAULT_CARDINALITY_CAP) -> bool:
    """Match every element of A with a B and C element summing to s."""
    _check_cardinality(cap, a, b, c)
    if not a.cardinality() == b.cardinality() == c.cardinality():
        return False
    a_values = sorted(a.expand())
    b_entries = tuple(b.entries)
    c_entries = tuple(c.entries)
    memo: dict[tuple, bool] = {}

    def match(index: int, b_left: tuple[int, ...], c_left: tuple[int, ...]) -> bool:
        if index == len(a_values):
            return True
        key = (index, b_left, c_left)
        if key in memo:
            return memo[key]
        ok = False
        need = s - a_values[index]
        for jb, (vb, _) in enumerate(b_entries):
            if not b_left[jb]:
                continue
            for jc, (vc, _) in enumerate(c_entries):
                if not c_left[jc] or vb + vc != need:
                    continue
                ok = match(index + 1,
                           b_left[:jb] + (b_left[jb] - 1,) + b_left[jb + 1:],
                           c_left[:jc] + (c_left[jc] - 1,) + c_left[jc + 1:])
                if ok:
                    break
            if ok:
                break
        memo[key] = ok
        return ok

    return match(0, tuple(m for _, m in b_entries), tuple(m for _, m in c_entries))


def brute_nmts(a: Multiset, b: Multiset, s: Multiset,
               cap: int = DEFAULT_CARDINALITY_CAP) -> bool:
    """Match every A element with a B and an S element so A + B = S."""
    _check_cardinality(cap, a, b, s)
    if not a.cardinality() == b.cardinality() == s.cardinality():
        return False
    a_values = sorted(a.expand())
    b_entries = tuple(b.entries)
    s_entries = tuple(s.entries)
    memo: dict[tuple, bool] = {}

    def match(index: int, b_left: tuple[int, ...], s_left: tuple[int, ...]) -> bool:
        if index == len(a_values):
            return True
        key = (index, b_left, s_left)
        if key in memo:
            return memo[key]
        ok = False
        for jb, (vb, _) in enumerate(b_entries):
            if not b_left[jb]:
                continue
            want = a_values[index] + vb
            for js, (vs, _) in enumerate(s_entries):
                if not s_left[js] or vs != want:
                    continue
                ok = match(index + 1,
                           b_left[:jb] + (b_left[jb] - 1,) + b_left[jb + 1:],
                           s_left[:js] + (s_left[js] - 1,) + s_left[js + 1:])
                if ok:
                    break
            if ok:
                break
        memo[key] = ok
        return ok

    return match(0, tuple(m for _, m in b_entries), tuple(m for _, m in s_entries))


def brute_ewmm(m: MealyMachine, c: CensusRequirement,
               cap: int = DEFAULT_SEARCH_CAP) -> bool:
    """Breadth-first search over (state, partial census bounded by c).

    The input word is unconstrained, so any walk from the start is a
    computation; exceeding any required count prunes a branch.
    """
    letters = c.letters()
    index_of = {letter: j for j, letter in enumerate(letters)}
    targets = tuple(c.get(letter) for letter in letters)
    start = (m.start, (0,) * len(letters))
    seen = {start}
    frontier = [start]
    while frontier:
        if len(seen) > cap:
            raise InstanceTooLarge(f"search cap {cap} exceeded")
        state, census = frontier.pop()
        if census == targets:
            return True
        for t in m.transitions:
            if t.source != state:
                continue
            if t.writes == EMPTY:
                census2 = census
            else:
                j = index_of.get(t.writes)
                if j is None or census[j] + 1 > targets[j]:
                    continue
                census2 = census[:j] + (census[j] + 1,) + census[j + 1:]
            node = (t.target, census2)
            if node not in seen:
                seen.add(node)
                frontier.append(node)
    return False


def brute_gwmm(m: MealyMachine, x, c: CensusRequirement,
               cap: int = DEFAULT_SEARCH_CAP) -> bool:
    """Enumerate computations over (state, position, census, empty-run length).

    A computation never needs to revisit the same configuration; runs of
    moves that read and write the empty letter are capped below |states|
    since a longer run repeats a state and can be cut out.
    """
    letters = c.letters()
    index_of = {letter: j for j, letter in enumerate(letters)}
    targets = tuple(c.get(letter) for letter in letters)
    limit = len(m.states)
    start = (m.start, 0, (0,) * len(letters), 0)
    seen = {start}
    frontier = [start]
    while frontier:
        if len(seen) > cap:
            raise InstanceTooLarge(f"search cap {cap} exceeded")
        state, pos, census, run = frontier.pop()
        if pos == len(x) and census == targets:
            return True
        for t in m.transitions:
            if t.source != state:
                continue
            if t.reads == EMPTY:
                pos2 = pos
                run2 = run + 1 if t.writes == EMPTY else 0
                if run2 >= limit:
                    continue
            else:
                if pos >= len(x) or x[pos] != t.reads:
                    continue
                pos2 = pos + 1
                run2 = 0
            if t.writes == EMPTY:
                census2 = census
            else:
                j = index_of.get(t.writes)
                if j is None or census[j] + 1 > targets[j]:
                    continue
                census2 = census[:j] + (census[j] + 1,) + census[j + 1:]
            node = (t.target, pos2, census2, run2)
            if node not in seen:
                seen.add(node)
                frontier.append(node)
    return False


def brute_mcc_clique(g: MulticoloredGraph, cap: int = DEFAULT_SEARCH_CAP) -> bool:
    """Try every choice of one vertex per class."""
    combos = 1
    for cls in g.classes:
        combos *= max(len(cls), 1)
    if combos > cap:
        raise InstanceTooLarge(f"{combos} vertex choices exceed cap {cap}")
    for combo in product(*g.classes):
        if all(g.adjacent(combo[i], combo[j])
               for i in range(len(combo)) for j in range(i + 1, len(combo))):
            return True
    return False


def brute_heat_schedule(h: HeatInstance, cap: int = DEFAULT_SEARCH_CAP) -> bool:
    """Search over (time, remaining jobs, temperature).

    At each slot either schedule a remaining job or idle (heat 0); the
    temperature update is ceil((T+H)/2) and may never exceed the threshold.
    Once all jobs are done, idling keeps the temperature legal forever.
    """
    levels = sorted(level for level, count in h.job_census.items() if count)
    start = (0, tuple(h.job_census.get(level, 0) for level in levels), 0)
    seen = {start}
    frontier = [start]
    while frontier:
        if len(seen) > cap:
            raise InstanceTooLarge(f"search cap {cap} exceeded")
        time, remaining, temp = frontier.pop()
        if not any(remaining):
            return True
        if time == h.deadline:
            continue
        moves = []
        idle_after = (temp + 0 + 1) // 2
        if idle_after <= h.threshold:
            moves.append((remaining, idle_after))
        for j, level in enumerate(levels):
            if not remaining[j]:
                continue
            after = (temp + level + 1) // 2
            if after <= h.threshold:
                moves.append((remaining[:j] + (remaining[j] - 1,) + remaining[j + 1:],
                              after))
        for remaining2, temp2 in moves:
            node = (time + 1, remaining2, temp2)
            if node not in seen:
                seen.add(node)
                frontier.append(node)
    return False


def brute_splits_game(s: SplitsInstance, cap: int = 24) -> bool:
    """Exhaustive play of the two-processor game against the gap sequence."""
    if len(s.gaps) > cap:
        raise InstanceTooLarge(f"{len(s.gaps)} gaps exceed play-tree cap {cap}")
    needed = Counter({length: count
                      for length, count in s.job_census.items() if count})
    if sum(needed.values()) != len(s.gaps):
        return False

    def play(index: int, stop_a: int, stop_b: int, deadline: int,
             remaining: Counter) -> bool:
        if index == len(s.gaps):
            return not +remaining
        deadline2 = deadline + s.gaps[index]
        for stops in ((stop_a, stop_b), (stop_b, stop_a)):
            job = deadline2 - stops[0]
            if remaining[job] > 0:
                remaining[job] -= 1
                if play(index + 1, deadline2, stops[1], deadline2, remaining):
                    remaining[job] += 1
                    return True
                remaining[job] += 1
        return False

    return play(0, 0, 0, 0, needed)


def validate_subset_certificate(a: Multiset, s: int, cert: SubsetCertificate) -> bool:
    """Re-check sums and multiplicities without touching the solver path."""
    total = 0
    for value, count in cert.counts.items():
        if count < 0 or count > a.multiplicity(value):
            return False
        total += value * count
    return total == s


def validate_partition_certificate(a: Multiset, cert: SubsetCertificate) -> bool:
    if a.total() % 2 != 0:
        return False
    return validate_subset_certificate(a, a.total() // 2, cert)


def _cover_usage(cover: TripleCover, position: int) -> Counter:
    usage: Counter = Counter()
    for triple in cover.triples:
        usage[triple[position]] += triple[3]
    return usage


def validate_num3dm_cover(a: Multiset, b: Multiset, c: Multiset, s: int,
                          cover: TripleCover) -> bool:
    if any(x + y + z != s for x, y, z, _ in cover.triples):
        return False
    if any(count <= 0 for _, _, _, count in cover.triples):
        return False
    return (_cover_usage(cover, 0) == Counter(dict(a.entries))
            and _cover_usage(cover, 1) == Counter(dict(b.entries))
            and _cover_usage(cover, 2) == Counter(dict(c.entries)))


def validate_nmts_cover(a: Multiset, b: Multiset, s: Multiset,
                        cover: TripleCover) -> bool:
    if any(x + y != z for x, y, z, _ in cover.triples):
        return False
    if any(count <= 0 for _, _, _, count in cover.triples):
        return False
    return (_cover_usage(cover, 0) == Counter(dict(a.entries))
            and _cover_usage(cover, 1) == Counter(dict(b.entries))
            and _cover_usage(cover, 2) == Counter(dict(s.entries)))


def validate_3partition_cover(a: Multiset, cover: TripleCover) -> bool:
    if a.cardinality() % 3 != 0:
        return False
    n = a.cardinality() // 3
    if n == 0:
        return not cover.triples
    if a.total() % n != 0 or any(count <= 0 for *_, count in cover.triples):
        return False
    target = a.total() // n
    if any(x + y + z != target for x, y, z, _ in cover.triples):
        return False
    usage: Counter = Counter()
    for x, y, z, count in cover.triples:
        usage[x] += count
        usage[y] += count
        usage[z] += count
    return usage == Counter(dict(a.entries))


def validate_ewmm_decomposition(m: MealyMachine, c: CensusRequirement,
                                decomposition: WalkDecomposition) -> bool:
    """Whether the decomposition is a walk of ``subdivide(m)`` from the start
    that writes c, each loop a closed walk run a non-negative number of times
    at a state the base walk visits.  The work is |base| + Σ|cycle| steps."""
    known = set(subdivide(m).transitions)
    written: Counter = Counter()

    def end(state, walk, times: int):
        """Where ``walk`` run ``times`` times from ``state`` ends, or None."""
        for t in walk:
            if t not in known or t.source != state:
                return None
            written[t.writes] += times
            state = t.target
        return state

    base = decomposition.base_walk
    visited = {m.start, *(t.target for t in base)}
    if end(m.start, base, 1) is None or any(
            loop.count < 0 or loop.anchor not in visited
            or end(loop.anchor, loop.cycle, loop.count) != loop.anchor
            for loop in decomposition.loops):
        return False
    del written[EMPTY]
    return CensusRequirement.of(written) == c


def validate_gwmm_trace(m: MealyMachine, x, c: CensusRequirement, trace) -> bool:
    """Whether the trace of transition indices runs m on x and writes c."""
    try:
        return census_of(run(m, x, trace)) == c
    except ValueError:
        return False
