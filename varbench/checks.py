"""Answer checks that share no code with the solvers under test.

Every YES certificate printed by the command line is re-checked here from
the instance text, and every expected NO comes either from the way the
instance was built or from one of the reference deciders below.  Nothing
in this module imports ``varsolve``.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

EMPTY = "_"


class CheckFailed(Exception):
    """A verdict or a certificate did not hold; the message names the instance."""


# ---------------------------------------------------------------- parsing


def _lines(text: str):
    for line in text.splitlines():
        parts = line.split()
        if parts:
            yield parts


def parse_multiset(text: str) -> tuple[dict[int, int], int | None]:
    """``value multiplicity`` lines and an optional ``s=`` line."""
    counts: dict[int, int] = {}
    target = None
    for parts in _lines(text):
        if parts[0].startswith("s="):
            target = int(parts[0][2:])
        else:
            counts[int(parts[0])] = int(parts[1])
    return counts, target


def parse_sections(text: str) -> tuple[dict[str, dict[int, int]], int | None]:
    """``A:`` style sections of ``value multiplicity`` lines, optional ``s=``."""
    sections: dict[str, dict[int, int]] = {}
    current = None
    target = None
    for parts in _lines(text):
        if parts[0].endswith(":"):
            current = parts[0][:-1]
            sections[current] = {}
        elif parts[0].startswith("s="):
            target = int(parts[0][2:])
        else:
            sections[current][int(parts[0])] = int(parts[1])
    return sections, target


class Machine:
    """A machine instance as plain text tokens; ``_`` is the empty letter."""

    def __init__(self, text: str):
        self.transitions: set[tuple[str, str, str, str]] = set()
        self.census: dict[str, int] = {}
        self.word: list[str] | None = None
        in_census = False
        for parts in _lines(text):
            head = parts[0]
            if head == "states:":
                self.states = set(parts[1:])
            elif head == "start:":
                self.start = parts[1]
            elif head in ("input:", "output:"):
                continue
            elif head == "word:":
                self.word = parts[1:]
            elif head == "census:":
                in_census = True
            elif in_census:
                self.census[head] = int(parts[1])
            else:
                source, reads, arrow, target, writes = parts
                self.transitions.add((source, reads, target, writes))
        self.census = {letter: n for letter, n in self.census.items() if n}


def parse_transition(line: str) -> tuple[str, str, str, str]:
    parts = line.split()
    if len(parts) != 5 or parts[2] != "->":
        raise ValueError(f"not a transition line: {line!r}")
    return parts[0], parts[1], parts[3], parts[4]


# ------------------------------------------------------ certificate checks


def _verdict(stdout: str) -> tuple[str, list[str]]:
    lines = stdout.splitlines()
    if not lines:
        raise ValueError("no output")
    return lines[0].strip(), [line for line in lines[1:] if line.strip()]


def _pairs(lines: list[str]) -> dict[int, int]:
    counts: dict[int, int] = {}
    for line in lines:
        value, count = (int(t) for t in line.split())
        if value in counts or count <= 0:
            raise ValueError(f"bad selection line {line!r}")
        counts[value] = count
    return counts


def check_selection(counts: dict[int, int], target: int, lines: list[str]) -> None:
    chosen = _pairs(lines)
    for value, count in chosen.items():
        if count > counts.get(value, 0):
            raise ValueError(f"takes {count} copies of {value}, "
                             f"only {counts.get(value, 0)} exist")
    total = sum(v * c for v, c in chosen.items())
    if total != target:
        raise ValueError(f"selection sums to {total}, not {target}")


def _triples(lines: list[str]) -> list[tuple[int, int, int, int]]:
    out = []
    for line in lines:
        a, b, c, count = (int(t) for t in line.split())
        if count <= 0:
            raise ValueError(f"non-positive triple count in {line!r}")
        out.append((a, b, c, count))
    return out


def check_triples(columns: list[dict[int, int]], lines: list[str], ok) -> None:
    """Each triple satisfies ``ok``; position i uses exactly ``columns[i]``."""
    usage = [Counter(), Counter(), Counter()]
    for a, b, c, count in _triples(lines):
        if not ok(a, b, c):
            raise ValueError(f"triple {a} {b} {c} breaks the sum condition")
        for position, value in enumerate((a, b, c)):
            usage[position][value] += count
    for position, column in enumerate(columns):
        if usage[position] != Counter(column):
            raise ValueError(f"position {position} uses {dict(usage[position])}, "
                             f"instance has {column}")


def check_three_partition(counts: dict[int, int], lines: list[str]) -> None:
    n = sum(counts.values()) // 3
    target = sum(v * m for v, m in counts.items()) // n
    usage: Counter = Counter()
    for a, b, c, count in _triples(lines):
        if a + b + c != target:
            raise ValueError(f"triple {a} {b} {c} does not sum to {target}")
        for value in (a, b, c):
            usage[value] += count
    if usage != Counter(counts):
        raise ValueError(f"triples use {dict(usage)}, instance has {counts}")


def _census(transitions) -> Counter:
    return Counter(t[3] for t in transitions if t[3] != EMPTY)


def check_trace(machine: Machine, lines: list[str]) -> None:
    """Replay a given-word trace: start, chaining, word read, census written."""
    state = machine.start
    read: list[str] = []
    steps = [parse_transition(line) for line in lines]
    for step in steps:
        if step not in machine.transitions:
            raise ValueError(f"{' '.join(step)} is not a transition")
        if step[0] != state:
            raise ValueError(f"step leaves {step[0]}, walk is at {state}")
        if step[1] != EMPTY:
            read.append(step[1])
        state = step[2]
    if read != machine.word:
        raise ValueError("trace does not read the given word")
    if _census(steps) != Counter(machine.census):
        raise ValueError(f"trace writes {dict(_census(steps))}, "
                         f"census is {machine.census}")


def _check_hops(machine: Machine, hops) -> None:
    """Hops must form a subdivision of the machine's transitions.

    A hop between two states of the machine is one of its transitions.  A
    hop into a state the machine lacks (a fresh midpoint) carries the read
    and write of one transition, and the single hop out of that midpoint
    reads and writes nothing and reaches that transition's target.
    """
    into: dict[str, set] = {}
    out: dict[str, set] = {}
    for source, reads, target, writes in hops:
        if source in machine.states and target in machine.states:
            if (source, reads, target, writes) not in machine.transitions:
                raise ValueError(f"{source} {reads} -> {target} {writes} "
                                 "is not a transition")
        elif source in machine.states:
            into.setdefault(target, set()).add((source, reads, writes))
        elif target in machine.states:
            if reads != EMPTY or writes != EMPTY:
                raise ValueError(f"hop out of midpoint {source} reads or writes")
            out.setdefault(source, set()).add(target)
        else:
            raise ValueError(f"hop {source} -> {target} joins two midpoints")
    for mid in set(into) | set(out):
        entries, exits = into.get(mid, set()), out.get(mid, set())
        if len(entries) > 1 or len(exits) > 1:
            raise ValueError(f"midpoint {mid} stands for several transitions")
        for source, reads, writes in entries:
            targets = exits or {t for s, r, t, w in machine.transitions
                                if (s, r, w) == (source, reads, writes)}
            if not any((source, reads, t, writes) in machine.transitions
                       for t in targets):
                raise ValueError(f"midpoint {mid} matches no transition")


def _walk(steps, start: str) -> list[str]:
    states = [start]
    for source, _, target, _ in steps:
        if source != states[-1]:
            raise ValueError(f"step leaves {source}, walk is at {states[-1]}")
        states.append(target)
    return states


def check_walk_certificate(machine: Machine, lines: list[str]) -> None:
    """Replay an exists-word certificate: base walk plus anchored loops."""
    if not lines or lines[0] != "base:":
        raise ValueError("certificate does not start with 'base:'")
    base: list = []
    loops: list[tuple[str, int, list]] = []
    current = base
    for line in lines[1:]:
        if line.startswith("loop "):
            _, anchor, count = line.rstrip(":").split()
            if int(count) <= 0:
                raise ValueError(f"non-positive loop count in {line!r}")
            loops.append((anchor, int(count), []))
            current = loops[-1][2]
        else:
            current.append(parse_transition(line))
    _check_hops(machine, base + [hop for _, _, cycle in loops for hop in cycle])
    on_base = set(_walk(base, machine.start))
    written = _census(base)
    for anchor, count, cycle in loops:
        if anchor not in on_base:
            raise ValueError(f"loop anchor {anchor} is not on the base walk")
        if not cycle or _walk(cycle, anchor)[-1] != anchor:
            raise ValueError(f"loop at {anchor} does not close")
        for letter, n in _census(cycle).items():
            written[letter] += n * count
    if written != Counter(machine.census):
        raise ValueError(f"certificate writes {dict(written)}, "
                         f"census is {machine.census}")


def check_output(instance: dict, stdout: str, intermediate: str | None) -> str:
    """Return the verdict after checking it and any YES certificate.

    Raises CheckFailed on a wrong verdict or a certificate that does not
    hold.  ``intermediate`` is the text a reduction printed into a pipe.
    """
    name = instance["id"]
    try:
        verdict, lines = _verdict(stdout)
    except ValueError as error:
        raise CheckFailed(f"{name}: {error}") from None
    if verdict not in ("YES", "NO"):
        raise CheckFailed(f"{name}: unexpected verdict line {verdict!r}")
    expected = instance["expected"]
    if verdict != expected:
        raise CheckFailed(f"{name}: answered {verdict}, expected {expected} "
                          f"({instance['why']})")
    if verdict == "NO" or not instance["certificate"]:
        return verdict
    try:
        _check_certificate(instance, lines, intermediate)
    except (ValueError, KeyError, TypeError) as error:
        raise CheckFailed(f"{name}: bad certificate: {error}") from None
    return verdict


def _check_certificate(instance: dict, lines: list[str], intermediate) -> None:
    command = instance["command"]
    text = instance["text"]
    if command == "subsetsum":
        counts, target = parse_multiset(text)
        check_selection(counts, target, lines)
    elif command == "partition":
        counts, _ = parse_multiset(text)
        total = sum(v * m for v, m in counts.items())
        if total % 2:
            raise ValueError("YES on an odd total")
        check_selection(counts, total // 2, lines)
    elif command == "threepartition":
        counts, _ = parse_multiset(text)
        check_three_partition(counts, lines)
    elif command == "num3dm":
        sections, s = parse_sections(text)
        check_triples([sections["A"], sections["B"], sections["C"]], lines,
                      lambda a, b, c: a + b + c == s)
    elif command == "nmts":
        sections, _ = parse_sections(text)
        check_triples([sections["A"], sections["B"], sections["S"]], lines,
                      lambda a, b, c: a + b == c)
    elif command == "gwmm":
        check_trace(Machine(intermediate if intermediate is not None else text),
                    lines)
    elif command == "ewmm":
        check_walk_certificate(
            Machine(intermediate if intermediate is not None else text), lines)
    else:
        raise ValueError(f"no certificate check for {command}")


# ------------------------------------------------------ reference deciders


def reachable_sums(counts: dict[int, int], limit: int) -> int:
    """Bit i is set when some submultiset sums to i (for i <= limit)."""
    mask = (1 << (limit + 1)) - 1
    bits = 1
    for value, mult in counts.items():
        chunk = 1
        while mult > 0:
            take = min(chunk, mult)
            bits |= (bits << (value * take)) & mask
            mult -= take
            chunk *= 2
    return bits


def subset_sum_reference(counts: dict[int, int], target: int) -> bool:
    if target < 0 or target > sum(v * m for v, m in counts.items()):
        return False
    return bool(reachable_sums(counts, target) >> target & 1)


def three_partition_reference(counts: dict[int, int]) -> bool:
    """Peel a triple holding the smallest remaining value, memoised on counts."""
    n, rem = divmod(sum(counts.values()), 3)
    if rem:
        return False
    if n == 0:
        return True
    total = sum(v * m for v, m in counts.items())
    if total % n:
        return False
    target = total // n
    values = sorted(counts)

    @lru_cache(maxsize=None)
    def peel(left: tuple[int, ...]) -> bool:
        first = next((i for i, m in enumerate(left) if m), None)
        if first is None:
            return True
        for j in range(first, len(values)):
            for k in range(j, len(values)):
                if values[first] + values[j] + values[k] != target:
                    continue
                after = list(left)
                ok = True
                for index in (first, j, k):
                    after[index] -= 1
                    ok = ok and after[index] >= 0
                if ok and peel(tuple(after)):
                    return True
        return False

    answer = peel(tuple(counts[v] for v in values))
    peel.cache_clear()
    return answer


def exists_word_reference(machine: Machine) -> bool:
    """Search over (state, partial census); the input word is unconstrained."""
    letters = sorted(machine.census)
    targets = tuple(machine.census[letter] for letter in letters)
    index = {letter: j for j, letter in enumerate(letters)}
    moves: dict[str, list[tuple[int, str]]] = {}
    for source, _, target, writes in machine.transitions:
        if writes != EMPTY and writes not in index:
            continue
        moves.setdefault(source, []).append(
            (-1 if writes == EMPTY else index[writes], target))
    start = (machine.start, (0,) * len(letters))
    seen = {start}
    stack = [start]
    while stack:
        state, census = stack.pop()
        if census == targets:
            return True
        for j, target in moves.get(state, ()):
            if j >= 0:
                if census[j] == targets[j]:
                    continue
                census2 = census[:j] + (census[j] + 1,) + census[j + 1:]
            else:
                census2 = census
            node = (target, census2)
            if node not in seen:
                seen.add(node)
                stack.append(node)
    return False


def given_word_reference(machine: Machine) -> bool:
    """Search over (state, position, partial census, empty-move run length)."""
    word = machine.word
    letters = sorted(machine.census)
    targets = tuple(machine.census[letter] for letter in letters)
    index = {letter: j for j, letter in enumerate(letters)}
    limit = len(machine.states)
    start = (machine.start, 0, (0,) * len(letters), 0)
    seen = {start}
    stack = [start]
    while stack:
        state, position, census, run = stack.pop()
        if position == len(word) and census == targets:
            return True
        for source, reads, target, writes in machine.transitions:
            if source != state:
                continue
            if reads == EMPTY:
                position2 = position
                run2 = run + 1 if writes == EMPTY else 0
                if run2 >= limit:
                    continue
            elif position < len(word) and word[position] == reads:
                position2, run2 = position + 1, 0
            else:
                continue
            if writes == EMPTY:
                census2 = census
            elif writes in index and census[index[writes]] < targets[index[writes]]:
                j = index[writes]
                census2 = census[:j] + (census[j] + 1,) + census[j + 1:]
            else:
                continue
            node = (target, position2, census2, run2)
            if node not in seen:
                seen.add(node)
                stack.append(node)
    return False


def clique_reference(classes: list[list[str]], edges: list[tuple[str, str]]) -> bool:
    """Is there one vertex per class, all pairwise adjacent?"""
    adjacent = {frozenset(edge) for edge in edges}

    def extend(chosen: list[str], depth: int) -> bool:
        if depth == len(classes):
            return True
        return any(all(frozenset((v, u)) in adjacent for u in chosen)
                   and extend(chosen + [v], depth + 1)
                   for v in classes[depth])

    return extend([], 0)


def heat_reference(threshold: int, deadline: int, jobs: dict[int, int]) -> bool:
    """Schedule unit jobs one per slot; a job of heat h at temperature t moves
    to ceil((t + h) / 2), which may not pass the threshold; idle slots have
    heat 0 and every job must run by the deadline."""
    levels = sorted(h for h, n in jobs.items() if n)

    @lru_cache(maxsize=None)
    def play(time: int, left: tuple[int, ...], temp: int) -> bool:
        if not any(left):
            return True
        if time == deadline:
            return False
        if (temp + 1) // 2 <= threshold and play(time + 1, left, (temp + 1) // 2):
            return True
        for j, level in enumerate(levels):
            after = (temp + level + 1) // 2
            if left[j] and after <= threshold and play(
                    time + 1, left[:j] + (left[j] - 1,) + left[j + 1:], after):
                return True
        return False

    answer = play(0, tuple(jobs[h] for h in levels), 0)
    play.cache_clear()
    return answer


def splits_reference(gaps: list[int], jobs: dict[int, int]) -> bool:
    """Two processors; at each deadline one of them takes a job that ends there
    and started when that processor last stopped; the job lengths used must
    match the census exactly."""
    lengths = sorted(length for length, n in jobs.items() if n)
    if sum(jobs.values()) != len(gaps):
        return False
    deadlines = [0]
    for gap in gaps:
        deadlines.append(deadlines[-1] + gap)

    @lru_cache(maxsize=None)
    def play(step: int, other_stop: int, left: tuple[int, ...]) -> bool:
        if step == len(gaps):
            return not any(left)
        now = deadlines[step + 1]
        for stop, next_other in ((deadlines[step], other_stop),
                                 (other_stop, deadlines[step])):
            job = now - stop
            if job in lengths:
                j = lengths.index(job)
                if left[j] and play(step + 1, next_other,
                                    left[:j] + (left[j] - 1,) + left[j + 1:]):
                    return True
        return False

    answer = play(0, 0, tuple(jobs[length] for length in lengths))
    play.cache_clear()
    return answer
