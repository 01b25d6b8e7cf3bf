"""Nondeterministic dual-alphabet transition systems with letter censuses.

A machine reads one input letter (or the empty letter) per transition and
writes one output letter (or the empty letter).  Letters are strings; the
empty letter ``EMPTY`` is the empty string ``""``, spelled ``_`` in machine
files.  This module provides the machine model, execution, transition
subdivision to a simple underlying digraph (of every transition, or of
chosen ones), exact output-letter censuses, and the decomposition of the
transition counts of a walk from the start into a short base walk plus
anchored short loops with execution counts.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from typing import Iterable, Mapping, NamedTuple, Sequence


# The empty letter is the empty word.  Every letter a machine reads or writes
# is a non-empty string, so "" stands apart from them and sorts before them.
EMPTY = ""


def letter_text(letter: str) -> str:
    """A letter as machine files spell it: the empty letter is ``_``."""
    return "_" if letter == EMPTY else str(letter)


class IllegalChoice(ValueError):
    """A chosen transition is not applicable at the current configuration."""


class InputNotConsumed(ValueError):
    """The computation ended before reading the whole input word."""


class NotAWalk(ValueError):
    """Transition sequence is not a walk of the machine from its start."""


class Transition(NamedTuple):
    source: str
    reads: str
    target: str
    writes: str

    def text(self) -> str:
        # One unpacking, not four field reads; ``or`` spells EMPTY as ``_``
        # as letter_text does, since every other letter is a non-empty string.
        source, reads, target, writes = self
        return f"{source} {reads or '_'} -> {target} {writes or '_'}"


# typing.NamedTuple forbids a __new__ of its own, so a record type that checks
# its arguments subclasses a NamedTuple of its fields.
class _MachineFields(NamedTuple):
    states: frozenset[str]
    start: str
    input_alphabet: frozenset
    output_alphabet: frozenset
    transitions: tuple[Transition, ...]


class MealyMachine(_MachineFields):
    """States, a start state, two alphabets, and a set of transitions.

    Nondeterminism is allowed: several transitions may share the same
    (source, reads) pair.  Letters are non-empty strings, except that either
    alphabet may contain the empty letter EMPTY, the empty string ``""``;
    machines that avoid the empty letter simply never list it.
    """

    __slots__ = ()

    # The checks read the arguments, not the fields: a NamedTuple field is a
    # descriptor, slower to read than a local in a loop over the transitions.
    def __new__(cls, states: frozenset[str], start: str, input_alphabet: frozenset,
                output_alphabet: frozenset, transitions: tuple[Transition, ...]):
        if start not in states:
            raise ValueError(f"start state {start!r} not among states")
        if len(set(transitions)) != len(transitions):
            raise ValueError("duplicate transitions")
        for t in transitions:
            if t.source not in states or t.target not in states:
                raise ValueError(f"transition endpoint outside states: {t}")
            if t.reads not in input_alphabet:
                raise ValueError(f"read letter {t.reads!r} not in input alphabet")
            if t.writes not in output_alphabet:
                raise ValueError(f"write letter {t.writes!r} not in output alphabet")
        return super().__new__(cls, states, start, input_alphabet, output_alphabet, transitions)

    def transitions_from(self, state: str) -> list[Transition]:
        return [t for t in self.transitions if t.source == state]


class _CensusFields(NamedTuple):
    counts: tuple[tuple[str, int], ...]


class CensusRequirement(_CensusFields):
    """Exact required count per non-empty output letter.

    Letters absent from the mapping are required zero times; zero entries
    are normalized away so equal requirements compare equal.
    """

    __slots__ = ()

    def __new__(cls, counts: tuple[tuple[str, int], ...] = ()):
        seen = set()
        for letter, count in counts:
            if letter == EMPTY:
                raise ValueError("the empty letter carries no census entry")
            if count < 0:
                raise ValueError(f"negative census count for {letter!r}")
            if letter in seen:
                raise ValueError(f"duplicate census letter {letter!r}")
            seen.add(letter)
        return super().__new__(cls, tuple(sorted((l, c) for l, c in counts if c != 0)))

    @classmethod
    def of(cls, counts: Mapping[str, int]) -> "CensusRequirement":
        return cls(tuple(counts.items()))

    def get(self, letter: str) -> int:
        for l, c in self.counts:
            if l == letter:
                return c
        return 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.counts)

    def letters(self) -> list[str]:
        # A list comprehension, not tuple(<generator>): its shrunk tuples pile up on free lists.
        return [l for l, _ in self.counts]

    def total(self) -> int:
        return sum(c for _, c in self.counts)


def census_of(word: Iterable) -> CensusRequirement:
    """Exact letter counts of an output word, with EMPTY dropped."""
    return CensusRequirement.of(Counter(l for l in word if l != EMPTY))


def subdivide(m: MealyMachine) -> MealyMachine:
    """Split every transition through a fresh state so the digraph is simple.

    A transition reading g and writing w becomes a first hop that reads g and
    writes w into the fresh state, then an empty-letter hop to the original
    target.  Fresh states are named t0, t1, ... in transition-declaration
    order (skipping any names the machine already uses), so the transitions
    of original transition i sit at indices 2*i and 2*i+1.  The multiset of
    non-empty output letters is preserved for every input word.
    """
    return subdivide_part(m, range(len(m.transitions)))


def subdivide_part(m: MealyMachine, indices: Iterable[int]) -> MealyMachine:
    """The part of ``subdivide(m)`` that splits the transitions at ``indices``.

    Its transitions are the two hops of each listed transition, in the
    order listed, each equal to the one ``subdivide(m)`` builds, and its
    states are m's and the fresh states of those hops; the alphabets are
    ``subdivide(m)``'s.  Transition i's fresh state is t<j> for the i-th j
    (from 0) whose name m does not use.  Only names t<j> with j below
    |T| + |S| can be skipped, so no longer name is parsed.  The machine is
    valid by construction, so it is built without the checking constructor.
    """
    digits = len(str(len(m.transitions) + len(m.states)))
    taken = sorted(int(s[1:]) for s in m.states
                   if s[:1] == "t" and len(s) <= digits + 1 and s[1:].isdecimal()
                   and str(int(s[1:])) == s[1:])
    # taken[k] - k names below the k-th taken one are free, a nondecreasing
    # sequence, so transition i skips each taken name with taken[k] - k <= i.
    free_below = [j - k for k, j in enumerate(taken)]
    transitions = m.transitions
    states = set(m.states)
    hops = []
    new = tuple.__new__
    for i in indices:
        source, reads, target, writes = transitions[i]
        fresh = f"t{i + bisect_right(free_below, i)}"
        states.add(fresh)
        hops.append(new(Transition, (source, reads, fresh, writes)))
        hops.append(new(Transition, (fresh, EMPTY, target, EMPTY)))
    return MealyMachine._make((frozenset(states), m.start,
                               frozenset(m.input_alphabet) | {EMPTY},
                               frozenset(m.output_alphabet) | {EMPTY}, tuple(hops)))


def run(m: MealyMachine, word: Sequence, choices: Sequence[int]) -> tuple:
    """Execute the transitions selected by ``choices`` on ``word``.

    Each choice is an index into m.transitions; the selected transition must
    leave the current state and either read the empty letter or the next
    unread input letter.  The whole input word must be consumed.  Returns
    the output word with empty letters dropped.
    """
    state = m.start
    pos = 0
    output = []
    for step, index in enumerate(choices):
        if not 0 <= index < len(m.transitions):
            raise IllegalChoice(f"step {step}: no transition with index {index}")
        t = m.transitions[index]
        if t.source != state:
            raise IllegalChoice(
                f"step {step}: transition {t.text()} does not leave state {state!r}")
        if t.reads != EMPTY:
            if pos >= len(word) or word[pos] != t.reads:
                raise IllegalChoice(
                    f"step {step}: transition {t.text()} cannot read input position {pos}")
            pos += 1
        if t.writes != EMPTY:
            output.append(t.writes)
        state = t.target
    if pos != len(word):
        raise InputNotConsumed(f"{len(word) - pos} input letters left unread")
    return tuple(output)


class Loop(NamedTuple):
    """A closed walk from ``anchor``, executed ``count`` times."""

    anchor: str
    cycle: tuple[Transition, ...]
    count: int


class WalkDecomposition(NamedTuple):
    """A base walk from the start plus anchored short loops with counts."""

    base_walk: tuple[Transition, ...]
    loops: tuple[Loop, ...] = ()

    def walk(self) -> tuple[Transition, ...]:
        """The base walk with every loop's executions spliced in.

        Each loop runs at the first visit of its anchor on the base walk, or
        at the start when the base walk is empty; the output census does not
        depend on the order in which loops at one anchor run.  Raises
        ValueError for a loop anchored off a non-empty base walk.
        """
        base = self.base_walk
        states = [base[0].source, *(t.target for t in base)] if base else []
        spliced: list[list[Transition]] = [[] for _ in range(len(base) + 1)]
        for loop in self.loops:
            if states and loop.anchor not in states:
                raise ValueError(f"loop anchor {loop.anchor!r} is not on the base walk")
            spliced[states.index(loop.anchor) if states else 0] += loop.cycle * loop.count
        walk = spliced[0]
        for t, after in zip(base, spliced[1:]):
            walk += [t, *after]
        return tuple(walk)


def decompose_counts(m: MealyMachine,
                     counts: Mapping[Transition, int]) -> WalkDecomposition:
    """Decompose the transition counts of a walk from the start into a base
    walk of at most |states|**2 transitions plus loops of at most |states|
    transitions with execution counts, each anchored on the base walk, that
    together keep every count.

    From the start, counted transitions are followed until a state repeats
    or none leaves the current state.  A repeat closes a simple cycle, which
    is peeled off as often as its scarcest transition allows and bucketed
    by (anchor, set of its transitions): a simple cycle holds each
    transition once, so the set is its arc census, and the set and anchor
    fix the cycle.  The walk goes on from the anchor.  Where no
    counted transition leaves, the walk ends, and the simple path followed
    is the base walk.  What is left balances at every state, so following
    it from any counted transition only closes cycles, peeled the same way.
    Each peel zeroes a count, so the work does not grow with the counts.
    A cycle anchored off the base walk is rotated to a state it shares with
    it; while none does, one run of a cycle anchored on the base walk that
    reaches new states is spliced into it.

    Raises NotAWalk for counts that are not a walk's from the start: a
    negative count, a transition not of m, counts that do not balance, or
    counted transitions the start does not reach.
    """
    known = set(m.transitions)
    for t, n in counts.items():
        if n < 0 or (n and t not in known):
            raise NotAWalk(f"count {n} of {t.text()!r}: negative, or not a transition of m")
    # Counted transitions per source in reverse machine order: a walk
    # follows the last one, so one whose count runs out is popped off.
    left = {t: counts[t] for t in m.transitions if counts.get(t, 0) > 0}
    out: dict[str, list[Transition]] = {}
    for t in reversed(left):
        out.setdefault(t.source, []).append(t)
    buckets: dict[tuple, list] = {}

    def add(into: dict, anchor: str, cycle: tuple, times: int) -> None:
        """Count ``times`` runs of ``cycle`` in its (anchor, arc set) bucket."""
        key = (anchor, frozenset(cycle))
        into.setdefault(key, [anchor, cycle, 0])[2] += times

    def follow(state: str) -> list[Transition]:
        """Peel the cycles met from ``state``; return the simple path left."""
        path: list[Transition] = []
        position = {state: 0}
        while out.get(state):
            t = out[state][-1]
            path.append(t)
            state = t.target
            if state not in position:
                position[state] = len(path)
                continue
            start_index = position[state]
            cycle = tuple(path[start_index:])
            del path[start_index:]
            times = min(left[a] for a in cycle)
            for a in cycle:
                del position[a.target]
                left[a] -= times
                if not left[a]:
                    out[a.source].pop()
            position[state] = start_index
            add(buckets, state, cycle, times)
        return path

    base = follow(m.start)
    for t in base:
        left[t] -= 1
        if not left[t]:
            out[t.source].pop()
    for state in list(out):
        if follow(state):
            raise NotAWalk("transition counts do not balance as a walk's do")

    base_vertices = {m.start}
    base_vertices.update(t.target for t in base)
    # Re-anchor stranded buckets; splice connector cycles into the base walk.
    pending = list(buckets.values())
    while True:
        stranded = [b for b in pending if b[0] not in base_vertices]
        if not stranded:
            break
        shared = next(((b, i) for b in stranded for i, t in enumerate(b[1])
                       if t.source in base_vertices), None)
        if shared is not None:
            b, i = shared
            b[0], b[1] = b[1][i].source, b[1][i:] + b[1][:i]
            continue
        connector = next(
            (b for b in pending
             if b[0] in base_vertices
             and any(t.target not in base_vertices for t in b[1])), None)
        if connector is None:
            raise NotAWalk("counted transitions are not reached from the start")
        insert_at = next(i for i, s in enumerate(
            [m.start] + [t.target for t in base]) if s == connector[0])
        base[insert_at:insert_at] = list(connector[1])
        base_vertices.update(t.target for t in connector[1])
        connector[2] -= 1
        if connector[2] == 0:
            pending.remove(connector)

    merged: dict[tuple, list] = {}
    for bucket in pending:
        add(merged, *bucket)
    loops = tuple([Loop(anchor=a, cycle=cyc, count=n) for a, cyc, n in merged.values()])
    return WalkDecomposition(base_walk=tuple(base), loops=loops)
