"""Decision procedures for output-letter census feasibility.

Two problems over a nondeterministic machine M and a census requirement c:

* exists-word: is there any input word and computation of M whose output
  meets c exactly?  Solved by searching base walks over the subdivided
  machine (census- and vertex-set-deduplicated), enumerating short loops
  anchored on the walk, and deciding loop execution counts with the exact
  integer-program engine.

* given-word: for a fixed input word x, is there a computation reading all
  of x whose output meets c exactly?  Solved by a boolean table, kept as the
  set of its true entries (state, partial census, input position, trailing
  empty-move count), filled forward from the start configuration; traces are
  rebuilt by a second backward pass over the table, without back-pointers.
  Entries whose census can no longer be met from the rest of x are never
  stored, so a census total above |x| on a machine whose empty-read moves
  write no tracked letter is rejected before the first entry, however large
  its counts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .ilp import EQ, Constraint, IntegerProgram, solve_feasibility
from .mealy import EMPTY, CensusRequirement, MealyMachine, subdivide

DEFAULT_BUDGET = 2_000_000


class BudgetExceeded(Exception):
    """Search node cap hit; the verdict is unknown rather than no."""


class DpIndex(NamedTuple):
    state: str
    partial_census: tuple[int, ...]
    input_position: int
    propagation: int


@dataclass(frozen=True)
class LoopVariable:
    """A short anchored loop abstracted to its per-execution output counts."""

    census_vector: tuple[tuple[str, int], ...]
    anchor: str
    cycle: tuple[int, ...]

    def __post_init__(self):
        if not any(count > 0 for _, count in self.census_vector):
            raise ValueError("census-neutral loops are excluded")


@dataclass(frozen=True)
class EwmmCertificate:
    """Base walk plus loop execution counts over the subdivided machine."""

    machine: MealyMachine
    base_walk: tuple[int, ...]
    loop_counts: tuple[tuple[LoopVariable, int], ...]

    def choices(self) -> tuple[int, ...]:
        """Full transition-index sequence with loops spliced in.

        Each loop's executions are inserted at the first visit of its anchor
        on the base walk; the output census does not depend on the order in
        which loops at one anchor run.
        """
        states = [self.machine.start]
        for index in self.base_walk:
            states.append(self.machine.transitions[index].target)
        insertions: dict[int, list[int]] = {}
        for loop, count in self.loop_counts:
            at = states.index(loop.anchor)
            insertions.setdefault(at, []).extend(list(loop.cycle) * count)
        sequence: list[int] = []
        for position in range(len(states)):
            sequence.extend(insertions.get(position, []))
            if position < len(self.base_walk):
                sequence.append(self.base_walk[position])
        return tuple(sequence)

    def input_word(self) -> tuple:
        word = []
        for index in self.choices():
            reads = self.machine.transitions[index].reads
            if reads is not EMPTY:
                word.append(reads)
        return tuple(word)


class _Budget:
    def __init__(self, cap: Optional[int]):
        self.cap = cap
        self.used = 0

    def spend(self, amount: int = 1) -> None:
        self.used += amount
        if self.cap is not None and self.used > self.cap:
            raise BudgetExceeded(f"node cap {self.cap} exceeded")


def _letter_indices(census: CensusRequirement) -> tuple[tuple[str, ...], dict[str, int]]:
    letters = census.letters()
    return letters, {letter: j for j, letter in enumerate(letters)}


def _enumerate_loops(m: MealyMachine, anchor: str, targets: tuple[int, ...],
                     letters: tuple[str, ...], index_of: dict[str, int],
                     by_source: dict[str, list[tuple[int, object, str]]],
                     budget: _Budget) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Closed walks from ``anchor`` of length at most |states|, bucketed.

    Returns census-vector -> representative transition-index cycle.  Loops
    writing any letter beyond its required count, or any unrequired letter,
    are discarded; census-neutral loops are dropped entirely.
    """
    max_len = len(m.states)
    buckets: dict[tuple[int, ...], tuple[int, ...]] = {}
    zero = (0,) * len(letters)
    # Depth-first in preorder with an explicit stack: a cycle can be as long
    # as the machine has states, beyond any recursion limit.  Moves are
    # pushed in reverse so they are popped in order; the lists are reversed
    # once here, as reversing them per node costs about a tenth of the time.
    backward = {state: moves[::-1] for state, moves in by_source.items()}
    stack = [(anchor, zero, ())]
    while stack:
        state, vector, path = stack.pop()
        budget.spend()
        if state == anchor and path and vector != zero:
            buckets.setdefault(vector, path)
        if len(path) == max_len:
            continue
        for index, writes, target in backward.get(state, ()):
            if writes is EMPTY:
                nxt = vector
            else:
                j = index_of.get(writes)
                if j is None or vector[j] + 1 > targets[j]:
                    continue
                nxt = vector[:j] + (vector[j] + 1,) + vector[j + 1:]
            stack.append((target, nxt, path + (index,)))
    return buckets


def solve_ewmm(m: MealyMachine, c: CensusRequirement,
               budget: Optional[int] = DEFAULT_BUDGET) -> Optional[EwmmCertificate]:
    """Decide whether any input word admits a computation meeting ``c``.

    Works on the subdivided machine so the underlying digraph is simple.
    Base-walk prefixes are explored once per (end state, output census so
    far, set of visited states): walk output only grows, so prefixes whose
    census exceeds c anywhere are abandoned, and a prefix adds nothing new
    if an already-explored prefix reached the same state and census having
    visited a superset of its states.  At every explored prefix an exact
    integer program decides whether anchored short-loop executions can top
    the census up to c.

    Raises BudgetExceeded when the node cap is hit before a verdict.
    """
    msub = subdivide(m)
    letters, index_of = _letter_indices(c)
    targets = tuple(c.get(letter) for letter in letters)
    zero = (0,) * len(letters)
    tracker = _Budget(budget)

    by_source: dict[str, list[tuple[int, object, str]]] = {}
    for i, t in enumerate(msub.transitions):
        by_source.setdefault(t.source, []).append((i, t.writes, t.target))

    loop_cache: dict[str, dict[tuple[int, ...], tuple[int, ...]]] = {}

    def loops_at(state: str) -> dict[tuple[int, ...], tuple[int, ...]]:
        if state not in loop_cache:
            loop_cache[state] = _enumerate_loops(
                msub, state, targets, letters, index_of, by_source, tracker)
        return loop_cache[state]

    ilp_cache: dict[tuple, Optional[tuple[tuple[tuple[int, ...], int], ...]]] = {}

    def loop_counts_for(deficit: tuple[int, ...], vset: frozenset[str]
                        ) -> Optional[tuple[tuple[tuple[int, ...], str, tuple[int, ...], int], ...]]:
        """Feasible per-loop counts covering the census deficit, or None."""
        available: dict[tuple[int, ...], tuple[str, tuple[int, ...]]] = {}
        for state in sorted(vset):
            for vector, cycle in loops_at(state).items():
                available.setdefault(vector, (state, cycle))
        key = (deficit, frozenset(available))
        if key not in ilp_cache:
            vectors = sorted(available)
            tracker.spend(1 + len(vectors))
            variables = []
            for n, vector in enumerate(vectors):
                box = min(targets[j] // vector[j]
                          for j in range(len(letters)) if vector[j] > 0)
                variables.append((f"loop{n+1}", 0, box))
            constraints = []
            for j in range(len(letters)):
                coeffs = {f"loop{n+1}": vector[j]
                          for n, vector in enumerate(vectors) if vector[j] > 0}
                constraints.append(Constraint(coeffs, EQ, deficit[j]))
            program = IntegerProgram(tuple(variables), tuple(constraints))
            assignment = solve_feasibility(program)
            if assignment is None:
                ilp_cache[key] = None
            else:
                ilp_cache[key] = tuple(
                    (vector, assignment[f"loop{n+1}"])
                    for n, vector in enumerate(vectors) if assignment[f"loop{n+1}"])
        solution = ilp_cache[key]
        if solution is None:
            return None
        return tuple((vector, *available[vector], count) for vector, count in solution)

    start_key = (msub.start, zero, frozenset((msub.start,)))
    parents: dict[tuple, tuple[Optional[tuple], int]] = {start_key: (None, -1)}
    explored: dict[tuple[str, tuple[int, ...]], list[frozenset[str]]] = {}
    queue = deque([start_key])

    def witness_walk(key: tuple) -> tuple[int, ...]:
        walk: list[int] = []
        while True:
            parent, index = parents[key]
            if parent is None:
                break
            walk.append(index)
            key = parent
        walk.reverse()
        return tuple(walk)

    while queue:
        key = queue.popleft()
        state, census, vset = key
        tracker.spend()
        deficit = tuple(t - v for t, v in zip(targets, census))
        solution = loop_counts_for(deficit, vset)
        if solution is not None:
            loop_counts = tuple(
                (LoopVariable(
                    census_vector=tuple(zip(letters, vector)),
                    anchor=anchor, cycle=cycle), count)
                for vector, anchor, cycle, count in solution)
            return EwmmCertificate(machine=msub, base_walk=witness_walk(key),
                                   loop_counts=loop_counts)
        for index, writes, target in by_source.get(state, ()):
            if writes is EMPTY:
                census2 = census
            else:
                j = index_of.get(writes)
                if j is None or census[j] + 1 > targets[j]:
                    continue
                census2 = census[:j] + (census[j] + 1,) + census[j + 1:]
            vset2 = vset | {target}
            seen = explored.setdefault((target, census2), [])
            if any(vset2 <= known for known in seen):
                continue
            seen[:] = [known for known in seen if not known <= vset2]
            seen.append(vset2)
            key2 = (target, census2, vset2)
            parents[key2] = (key, index)
            queue.append(key2)
    return None


def solve_gwmm(m: MealyMachine, x: Sequence, c: CensusRequirement
               ) -> Optional[tuple[int, ...]]:
    """Decide whether a computation reading all of ``x`` meets ``c`` exactly.

    Returns a transition-index trace replayable through the machine, or None.
    An entry (s, counts, i, p) is true when some computation reads the first
    i letters of x, writes each required letter exactly counts-many times,
    ends with p trailing moves that read and write the empty letter, and sits
    in state s.  The table is the set of true entries, filled forward from
    the start entry; p is capped below |states| since longer all-empty runs
    revisit a state and can be cut without changing census or reading
    position.

    An entry is pruned when the rest of x cannot make up its census
    deficit: per letter, when only reading moves write that letter, and in
    total, when no empty-read move writes a tracked letter.  The start entry
    is checked too, so a census totalling more than |x| on such a machine,
    even with counts given in binary, is rejected without a table.  Always
    exact: never reports unknown.
    """
    for letter in x:
        if letter is EMPTY:
            raise ValueError("the empty letter cannot occur inside the input word")
        if letter not in m.input_alphabet:
            raise ValueError(f"input letter {letter!r} not in the input alphabet")
    letters, index_of = _letter_indices(c)
    targets = tuple(c.get(letter) for letter in letters)
    sigma = len(letters)
    zero = (0,) * sigma
    n_states = len(m.states)
    n = len(x)

    # Move tables keyed by source state; transitions writing a letter with a
    # zero requirement can never be taken and are left out.  The write field
    # is the tracked-letter index, or -1 for the empty letter.
    eps_moves: dict[str, list[tuple[int, int, str]]] = {}
    read_moves: dict[tuple[str, object], list[tuple[int, int, str]]] = {}
    into: dict[str, list[tuple[int, object, object, str]]] = {}
    free_writers = False
    for i, t in enumerate(m.transitions):
        into.setdefault(t.target, []).append((i, t.reads, t.writes, t.source))
        if t.writes is EMPTY:
            jw = -1
        else:
            jw = index_of.get(t.writes, None)
            if jw is None:
                continue
        if t.reads is EMPTY:
            if jw >= 0:
                free_writers = True
            eps_moves.setdefault(t.source, []).append((i, jw, t.target))
        else:
            read_moves.setdefault((t.source, t.reads), []).append((i, jw, t.target))

    # future_writes[j][i]: number of positions at or after i whose input
    # letter some transition can turn into required letter j.  Unusable when
    # an empty-read transition writes j (then writes need no position).
    future_writes: list[Optional[list[int]]] = []
    for j, letter in enumerate(letters):
        reads = set()
        free = False
        for t in m.transitions:
            if t.writes == letter:
                if t.reads is EMPTY:
                    free = True
                else:
                    reads.add(t.reads)
        if free:
            future_writes.append(None)
        else:
            suffix = [0] * (n + 1)
            for i in range(n - 1, -1, -1):
                suffix[i] = suffix[i + 1] + (1 if x[i] in reads else 0)
            future_writes.append(suffix)

    def dead(census: tuple[int, ...], position: int) -> bool:
        if not free_writers:
            if sum(targets) - sum(census) > n - position:
                return True
        for j in range(sigma):
            suffix = future_writes[j]
            if suffix is not None and census[j] + suffix[position] < targets[j]:
                return True
        return False

    table: set[DpIndex] = set()
    final: Optional[DpIndex] = None
    base = DpIndex(m.start, zero, 0, 0)
    if not dead(zero, 0):
        table.add(base)
        if zero == targets and n == 0:
            final = base
        stack = [base]
        while stack and final is None:
            state, census, position, p = stack.pop()
            moves = []
            if position < n:
                moves.extend(read_moves.get((state, x[position]), ()))
            consuming = len(moves)
            moves.extend(eps_moves.get(state, ()))
            for k, (index, jw, target) in enumerate(moves):
                if k < consuming:
                    position2 = position + 1
                    p2 = 0
                else:
                    position2 = position
                    if jw < 0:
                        p2 = p + 1
                        if p2 >= n_states:
                            continue
                    else:
                        p2 = 0
                if jw < 0:
                    census2 = census
                else:
                    if census[jw] + 1 > targets[jw]:
                        continue
                    census2 = census[:jw] + (census[jw] + 1,) + census[jw + 1:]
                if dead(census2, position2):
                    continue
                successor = DpIndex(target, census2, position2, p2)
                if successor not in table:
                    table.add(successor)
                    if census2 == targets and position2 == n:
                        final = successor
                        break
                    stack.append(successor)

    if final is None:
        return None

    # Backward pass: rebuild one trace by locating, for each true entry, a
    # true predecessor entry under the transition relation.
    trace: list[int] = []
    entry = final
    while entry != base:
        state, census, position, p = entry
        found = None
        if p > 0:
            for index, reads, writes, source in into.get(state, ()):
                if reads is EMPTY and writes is EMPTY:
                    candidate = DpIndex(source, census, position, p - 1)
                    if candidate in table:
                        found = (index, candidate)
                        break
        else:
            for index, reads, writes, source in into.get(state, ()):
                if reads is EMPTY:
                    if writes is EMPTY:
                        continue
                    j = index_of.get(writes)
                    if j is None or census[j] == 0:
                        continue
                    census2 = census[:j] + (census[j] - 1,) + census[j + 1:]
                    previous_position = position
                else:
                    if position == 0 or x[position - 1] != reads:
                        continue
                    if writes is EMPTY:
                        census2 = census
                    else:
                        j = index_of.get(writes)
                        if j is None or census[j] == 0:
                            continue
                        census2 = census[:j] + (census[j] - 1,) + census[j + 1:]
                    previous_position = position - 1
                for p2 in range(n_states):
                    candidate = DpIndex(source, census2, previous_position, p2)
                    if candidate in table:
                        found = (index, candidate)
                        break
                if found:
                    break
        if found is None:
            raise AssertionError("true table entry without a true predecessor")
        trace.append(found[0])
        entry = found[1]
    trace.reverse()
    return tuple(trace)

