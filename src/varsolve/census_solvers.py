"""Decision procedures for output-letter census feasibility.

Two problems over a nondeterministic machine M and a census requirement c:

* exists-word: is there any input word and computation of M whose output
  meets c exactly?  Solved by searching base walks over the subdivided
  machine (census- and vertex-set-deduplicated), enumerating short loops
  anchored on the walk, and deciding loop execution counts with the exact
  integer-program engine.  The certificate is the paper's walk
  decomposition over the subdivided machine: a base walk plus anchored
  loops with execution counts.

* given-word: for a fixed input word x, is there a computation reading all
  of x whose output meets c exactly?  Solved by a boolean table, kept as the
  set of its true entries (state, partial census, input position, trailing
  empty-move count), each packed into one int, filled forward from the
  start configuration; traces are rebuilt by a second backward pass over
  the table, without back-pointers.  Entries whose census can no longer be
  met from the rest of x are never stored (each move runs only the checks
  it can fail), so a census total above |x| on a machine whose empty-read
  moves write no tracked letter is rejected before the first entry, however
  large its counts.  A budget caps the number of stored entries.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple, Optional, Sequence

from .ilp import EQ, Constraint, IntegerProgram, solve_feasibility
from .mealy import (EMPTY, CensusRequirement, Loop, MealyMachine, Transition,
                    WalkDecomposition, subdivide)

DEFAULT_BUDGET = 2_000_000


class BudgetExceeded(Exception):
    """A solver's budget ran out; the verdict is unknown rather than no."""


class DpIndex(NamedTuple):
    """A given-word table entry, decoded from its packed int."""

    state: str
    partial_census: tuple[int, ...]
    input_position: int
    propagation: int


class _Budget:
    def __init__(self, cap: Optional[int]):
        self.cap = cap
        self.used = 0

    def spend(self, amount: int = 1) -> None:
        self.used += amount
        if self.cap is not None and self.used > self.cap:
            raise BudgetExceeded(f"node cap {self.cap} exceeded")


def _letter_indices(census: CensusRequirement) -> tuple[list[str], dict[str, int]]:
    letters = census.letters()
    return letters, {letter: j for j, letter in enumerate(letters)}


def _enumerate_loops(m: MealyMachine, anchor: str, targets: list[int],
                     letters: list[str], index_of: dict[str, int],
                     by_source: dict[str, list[tuple[Transition, object, str]]],
                     budget: _Budget) -> dict[tuple[int, ...], tuple[Transition, ...]]:
    """Closed walks from ``anchor`` of length at most |states|, bucketed.

    Returns census-vector -> representative cycle.  Loops writing any letter
    beyond its required count, or any unrequired letter, are discarded;
    census-neutral loops are dropped entirely.
    """
    max_len = len(m.states)
    buckets: dict[tuple[int, ...], tuple[Transition, ...]] = {}
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
        for t, writes, target in backward.get(state, ()):
            if writes is EMPTY:
                nxt = vector
            else:
                j = index_of.get(writes)
                if j is None or vector[j] + 1 > targets[j]:
                    continue
                nxt = vector[:j] + (vector[j] + 1,) + vector[j + 1:]
            stack.append((target, nxt, path + (t,)))
    return buckets


def solve_ewmm(m: MealyMachine, c: CensusRequirement,
               budget: Optional[int] = DEFAULT_BUDGET) -> Optional[WalkDecomposition]:
    """Decide whether any input word admits a computation meeting ``c``.

    Returns a walk decomposition over ``subdivide(m)`` whose ``walk()``
    meets c, or None; the search works on the subdivided machine so the
    underlying digraph is simple.  Base-walk prefixes are explored once per
    (end state, output census so far, set of visited states): walk output
    only grows, so prefixes whose census exceeds c anywhere are abandoned,
    and a prefix adds nothing new if an already-explored prefix reached the
    same state and census having visited a superset of its states.  At every explored prefix an exact
    integer program decides whether anchored short-loop executions can top
    the census up to c; the loops come in the order of its variables.

    Spends ``budget`` (None: no cap) in exists-word search nodes: one per
    base-walk prefix and per loop-enumeration step, and one plus the
    variable count per integer program; raises BudgetExceeded when it is
    spent before a verdict.
    """
    msub = subdivide(m)
    letters, index_of = _letter_indices(c)
    # A list comprehension, not tuple(<generator>): its shrunk tuples pile up on free lists.
    targets = [c.get(letter) for letter in letters]
    zero = (0,) * len(letters)
    tracker = _Budget(budget)

    by_source: dict[str, list[tuple[Transition, object, str]]] = {}
    for t in msub.transitions:
        by_source.setdefault(t.source, []).append((t, t.writes, t.target))

    loop_cache: dict[str, dict[tuple[int, ...], tuple[Transition, ...]]] = {}

    def loops_at(state: str) -> dict[tuple[int, ...], tuple[Transition, ...]]:
        if state not in loop_cache:
            loop_cache[state] = _enumerate_loops(
                msub, state, targets, letters, index_of, by_source, tracker)
        return loop_cache[state]

    ilp_cache: dict[tuple, Optional[list[tuple[tuple[int, ...], int]]]] = {}

    def loops_for(deficit: tuple[int, ...], vset: frozenset[str]
                  ) -> Optional[tuple[Loop, ...]]:
        """Loops with execution counts covering the census deficit, or None."""
        available: dict[tuple[int, ...], tuple[str, tuple[Transition, ...]]] = {}
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
                ilp_cache[key] = [
                    (vector, assignment[f"loop{n+1}"])
                    for n, vector in enumerate(vectors) if assignment[f"loop{n+1}"]]
        solution = ilp_cache[key]
        if solution is None:
            return None
        return tuple([Loop(*available[vector], count) for vector, count in solution])

    start_key = (msub.start, zero, frozenset((msub.start,)))
    parents: dict[tuple, tuple] = {start_key: (None, None)}
    explored: dict[tuple[str, tuple[int, ...]], list[frozenset[str]]] = {}
    queue = deque([start_key])

    def witness_walk(key: tuple) -> tuple[Transition, ...]:
        walk: list[Transition] = []
        while True:
            parent, t = parents[key]
            if parent is None:
                break
            walk.append(t)
            key = parent
        walk.reverse()
        return tuple(walk)

    while queue:
        key = queue.popleft()
        state, census, vset = key
        tracker.spend()
        deficit = tuple([t - v for t, v in zip(targets, census)])
        loops = loops_for(deficit, vset)
        if loops is not None:
            return WalkDecomposition(base_walk=witness_walk(key), loops=loops)
        for t, writes, target in by_source.get(state, ()):
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
            parents[key2] = (key, t)
            queue.append(key2)
    return None


def solve_gwmm(m: MealyMachine, x: Sequence, c: CensusRequirement,
               budget: Optional[int] = DEFAULT_BUDGET) -> Optional[tuple[int, ...]]:
    """Decide whether a computation reading all of ``x`` meets ``c`` exactly.

    Returns a transition-index trace replayable through the machine, or None.
    An entry (s, counts, i, p) is true when some computation reads the first
    i letters of x, writes each required letter exactly counts-many times,
    ends with p trailing moves that read and write the empty letter, and sits
    in state s.  The table is the set of true entries, filled depth-first
    from the start entry; p is capped below |states| since longer all-empty
    runs revisit a state and can be cut without changing census or reading
    position.  Each entry is one int, ((code·(|x|+1) + i)·|S| + p)·|S| + s,
    where code is the counts in mixed radix (digit j runs over 0..c_j) and s
    is the state's index; ``DpIndex`` is its decoded view.

    An entry is pruned when the rest of x cannot make up its census
    deficit: per letter, when only reading moves write that letter, and in
    total, when no empty-read move writes a tracked letter.  The start entry
    gets both checks, so a census totalling more than |x| on such a machine,
    even with counts given in binary, is rejected without a table.  From a
    stored entry a move runs only the checks it can fail: a move reading
    x[i] the per-letter check of the letters x[i] can be turned into, other
    than the one it writes, and the total check if it writes nothing; an
    empty-read move none.

    Spends one unit of ``budget`` per stored entry (None: no cap) and
    raises BudgetExceeded when it is spent; otherwise exact.
    """
    for letter in x:
        if letter is EMPTY:
            raise ValueError("the empty letter cannot occur inside the input word")
        if letter not in m.input_alphabet:
            raise ValueError(f"input letter {letter!r} not in the input alphabet")
    letters, index_of = _letter_indices(c)
    targets = [c.get(letter) for letter in letters]
    radix = [target + 1 for target in targets]
    names = sorted(m.states)
    number = {state: k for k, state in enumerate(names)}
    n_states = len(names)
    n = len(x)
    cap = budget if budget is not None else float("inf")

    # Place values in a key: a head is a key with p and s zero, so a move
    # adds its step to the head (one input position, one written letter)
    # and a stored key is head + p·|S| + s.
    position_unit = n_states * n_states
    unit = []
    place = (n + 1) * position_unit
    for r in radix:
        unit.append(place)
        place *= r

    # Move tables by state index; transitions writing a letter with a zero
    # requirement can never be taken and are left out.  A move is (index,
    # written letter's index or -1, target, step); read_at[i] holds the
    # moves reading x[i].  writers[j] is the set of input letters a move
    # writing j reads, or None when an empty-read move writes j.
    eps_moves: list[list[tuple[int, int, int, int]]] = [[] for _ in names]
    by_letter: dict[object, list[list[tuple[int, int, int, int]]]] = {}
    into: list[list[tuple[int, object, int, int]]] = [[] for _ in names]
    writers: list[Optional[set]] = [set() for _ in letters]
    for index, t in enumerate(m.transitions):
        if t.writes is EMPTY:
            jw, step = -1, 0
        else:
            jw = index_of.get(t.writes, -2)
            if jw < 0:
                continue
            step = unit[jw]
        source, target = number[t.source], number[t.target]
        into[target].append((index, t.reads, jw, source))
        if t.reads is EMPTY:
            eps_moves[source].append((index, jw, target, step))
            if jw >= 0:
                writers[jw] = None
        else:
            if t.reads not in by_letter:
                by_letter[t.reads] = [[] for _ in names]
            by_letter[t.reads][source].append((index, jw, target, step + position_unit))
            if jw >= 0 and writers[jw] is not None:
                writers[jw].add(t.reads)
    free_writers = None in writers
    no_moves = [()] * n_states
    read_at = [by_letter.get(letter, no_moves) for letter in x]

    # checks_at[i]: (j, unit, radix, need) for each letter j whose count of
    # future writing positions drops at i, where need > 0 is the count j
    # must already have for the positions after i to make up the rest.
    turns_into = {letter: [j for j, w in enumerate(writers)
                           if w is not None and letter in w]
                  for letter in by_letter}
    after = [0] * len(letters)
    checks_at: list[list[tuple[int, int, int, int]]] = [[] for _ in x]
    for i in range(n - 1, -1, -1):
        for j in turns_into.get(x[i], ()):
            if targets[j] > after[j]:
                checks_at[i].append((j, unit[j], radix[j], targets[j] - after[j]))
            after[j] += 1
    total = sum(targets)
    start = number[m.start]
    dead = ((not free_writers and total > n)
            or any(w is not None and after[j] < targets[j]
                   for j, w in enumerate(writers)))

    table: set[int] = set()
    final: Optional[int] = None
    if not dead:
        table.add(start)
        if len(table) > cap:
            raise BudgetExceeded(f"table entry cap {cap} exceeded")
        if total == 0 and n == 0:
            final = start
        # Stack items: (state index, head, position, p, census still owed).
        stack = [(start, 0, 0, 0, total)]
        while stack and final is None:
            state, head, position, p, owed = stack.pop()
            if position < n:
                checks = checks_at[position]
                short = [j for j, u, r, need in checks
                         if head // u % r < need] if checks else ()
                if len(short) < 2:
                    # With one letter short, only a move writing it survives.
                    needed = short[0] if short else None
                    silent_ok = free_writers or owed < n - position
                    for index, jw, target, step in read_at[position][state]:
                        if needed is not None and jw != needed:
                            continue
                        if jw < 0:
                            if not silent_ok:
                                continue
                            owed2 = owed
                        else:
                            if head // unit[jw] % radix[jw] == targets[jw]:
                                continue
                            owed2 = owed - 1
                        head2 = head + step
                        key = head2 + target
                        if key not in table:
                            table.add(key)
                            if len(table) > cap:
                                raise BudgetExceeded(f"table entry cap {cap} exceeded")
                            if owed2 == 0 and position + 1 == n:
                                final = key
                                break
                            stack.append((target, head2, position + 1, 0, owed2))
                    if final is not None:
                        break
            for index, jw, target, step in eps_moves[state]:
                if jw < 0:
                    p2 = p + 1
                    if p2 == n_states:
                        continue
                    owed2 = owed
                else:
                    if head // unit[jw] % radix[jw] == targets[jw]:
                        continue
                    p2 = 0
                    owed2 = owed - 1
                head2 = head + step
                key = head2 + p2 * n_states + target
                if key not in table:
                    table.add(key)
                    if len(table) > cap:
                        raise BudgetExceeded(f"table entry cap {cap} exceeded")
                    if owed2 == 0 and position == n:
                        final = key
                        break
                    stack.append((target, head2, position, p2, owed2))

    if final is None:
        return None

    def decode(key: int) -> DpIndex:
        rest, state = divmod(key, n_states)
        rest, p = divmod(rest, n_states)
        code, position = divmod(rest, n + 1)
        census = []
        for r in radix:
            code, digit = divmod(code, r)
            census.append(digit)
        return DpIndex(names[state], tuple(census), position, p)

    # Backward pass: rebuild one trace by locating, for each true entry, a
    # true predecessor entry under the transition relation, trying moves in
    # transition order.  An entry with p > 0 follows a move that reads and
    # writes the empty letter; one with p = 0 any other move, whose source
    # head is found once and then tried with each p.
    trace: list[int] = []
    key = final
    while key != start:
        rest, state = divmod(key, n_states)
        p = rest % n_states
        head = key - p * n_states - state
        position = head // position_unit % (n + 1)
        found = None
        for index, reads, jw, source in into[state]:
            previous = head
            if reads is EMPTY and jw < 0:
                if p == 0:
                    continue
                runs = (p - 1,)
            else:
                if p > 0:
                    continue
                runs = range(n_states)
                if reads is not EMPTY:
                    if position == 0 or x[position - 1] != reads:
                        continue
                    previous -= position_unit
                if jw >= 0:
                    if head // unit[jw] % radix[jw] == 0:
                        continue
                    previous -= unit[jw]
            for run in runs:
                if previous + run * n_states + source in table:
                    found = (index, previous + run * n_states + source)
                    break
            if found:
                break
        if found is None:
            raise AssertionError(
                f"true table entry {decode(key)} without a true predecessor")
        trace.append(found[0])
        key = found[1]
    trace.reverse()
    return tuple(trace)
