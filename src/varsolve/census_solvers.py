"""Decision procedures for output-letter census feasibility.

Two problems over a nondeterministic machine M and a census requirement c:

* exists-word: is there any input word and computation of M whose output
  meets c exactly?  Solved as one integer program on M, the linear-size
  Parikh image of Seidl, Schwentick, Muscholl and Habermehl (ICALP 2004):
  a use count per transition, a 0/1 end state, flow conservation per state
  and one census equality per letter.  Connectivity to the start state is
  added lazily, one cut row per round, and the exact integer-program engine
  decides each round within one node budget.  The certificate is the
  paper's walk decomposition, peeled straight from the transition counts
  over the subdivided machine: a base walk plus anchored loops with
  execution counts.

* given-word: for a fixed input word x, is there a computation reading all
  of x whose output meets c exactly?  Solved in one forward pass by a
  boolean table, kept as the set of its true entries (state, partial
  census, input position), each packed into one int, filled depth-first
  from the start configuration; each pending entry links to the move that
  reached it and the entry it left, and a YES reads its trace back along
  those links.  Entries whose census can no longer be met from the rest of
  x are never stored (each move runs only the checks it can fail), so a
  census total above |x| on a machine whose empty-read moves write no
  tracked letter is rejected before the first entry, however large its
  counts.  A budget caps the number of stored entries.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .ilp import (EQ, LE, BudgetExceeded, Constraint, IntegerProgram,
                  solve_feasibility)
from .mealy import (EMPTY, CensusRequirement, MealyMachine, WalkDecomposition,
                    decompose_counts, subdivide)

DEFAULT_BUDGET = 2_000_000


def solve_ewmm(m: MealyMachine, c: CensusRequirement,
               budget: Optional[int] = DEFAULT_BUDGET) -> Optional[WalkDecomposition]:
    """Decide whether any input word admits a computation meeting ``c``.

    Returns a walk decomposition over ``subdivide(m)`` whose ``walk()``
    meets c, or None.  The integer program is built on m: a count y_i per
    transition i, boxed by the census count of the letter it writes, or by
    total + 1 when it writes nothing (a shortest meeting walk repeats no
    state between two written letters, so it takes such a transition at
    most once in each of the total + 1 stretches between them); transitions
    writing an unrequired letter get no variable.  A 0/1 variable z_s per
    state marks the end state, exactly one is set, and each state s
    conserves flow: out(s) - in(s) = [s is the start] - z_s.  Each census
    letter gets one equality row.

    The counts then form a start-to-end trail plus closed walks, which a
    walk covers only when every used transition is reached from the start.
    So each solution is checked: let C be the sources of used transitions
    that used transitions do not reach from the start.  If C is empty the
    counts are a walk; otherwise the cut row

        sum of y over transitions leaving states of C
            <= (sum of their boxes) · sum of y over transitions entering C

    (entering from outside C) is added and the program solved again.  The
    row holds for every walk from the start and fails for this solution.
    On a YES, count y_i goes to transitions 2i and 2i+1 of ``subdivide(m)``,
    and ``decompose_counts`` peels those counts into the certificate.

    Spends ``budget`` (None: no cap) in integer-program search nodes,
    summed over the cut rounds, and raises BudgetExceeded when it is spent
    before a verdict.
    """
    counts = c.as_dict()
    names = sorted(m.states)
    number = {state: k for k, state in enumerate(names)}
    silent_box = c.total() + 1
    arcs = []  # (index, transition, variable, box) for each transition a walk may take
    for i, t in enumerate(m.transitions):
        box = silent_box if t.writes is EMPTY else counts.get(t.writes, 0)
        if box:
            arcs.append((i, t, f"y{i}", box))
    variables = [(name, 0, box) for _, _, name, box in arcs]
    variables += [(f"z{k}", 0, 1) for k in range(len(names))]
    # The end-state rows are written negated: a branch on z_s then tries 1
    # first (the engine counts a negative coefficient's first value from the
    # top of the box), so the search picks an end state at once instead of
    # fixing the z's to 0 one node at a time.
    balance = [{f"z{k}": -1} for k in range(len(names))]
    census_rows: dict[str, dict[str, int]] = {letter: {} for letter in counts}
    for _, t, name, _ in arcs:
        if t.source != t.target:
            balance[number[t.source]][name] = -1
            balance[number[t.target]][name] = 1
        if t.writes is not EMPTY:
            census_rows[t.writes][name] = 1
    constraints = [Constraint({f"z{k}": -1 for k in range(len(names))}, EQ, -1)]
    constraints += [Constraint(row, EQ, -int(names[k] == m.start))
                    for k, row in enumerate(balance)]
    constraints += [Constraint(census_rows[letter], EQ, count)
                    for letter, count in counts.items()]

    left = budget
    while True:
        assignment = solve_feasibility(
            IntegerProgram(tuple(variables), tuple(constraints)), budget=left)
        if assignment is None:
            return None
        if left is not None:
            left -= assignment.nodes
        moves: dict[str, list[str]] = {}  # targets of used transitions by source
        for _, t, name, _ in arcs:
            if assignment[name]:
                moves.setdefault(t.source, []).append(t.target)
        reached = {m.start}
        frontier = [m.start]
        while frontier:
            for target in moves.get(frontier.pop(), ()):
                if target not in reached:
                    reached.add(target)
                    frontier.append(target)
        stranded = set(moves) - reached
        if not stranded:
            break
        leaving = [(name, box) for _, t, name, box in arcs if t.source in stranded]
        weight = sum(box for _, box in leaving)
        row = {name: 1 for name, _ in leaving}
        for _, t, name, _ in arcs:
            if t.source not in stranded and t.target in stranded:
                row[name] = -weight
        constraints.append(Constraint(row, LE, 0))

    sub = subdivide(m)
    counts = {}
    for i, _, name, _ in arcs:
        counts[sub.transitions[2 * i]] = counts[sub.transitions[2 * i + 1]] = assignment[name]
    return decompose_counts(sub, counts)


def solve_gwmm(m: MealyMachine, x: Sequence, c: CensusRequirement,
               budget: Optional[int] = DEFAULT_BUDGET) -> Optional[tuple[int, ...]]:
    """Decide whether a computation reading all of ``x`` meets ``c`` exactly.

    Returns a transition-index trace replayable through the machine, or None.
    An entry (s, counts, i) is true when some computation reads the first i
    letters of x, writes each required letter exactly counts-many times and
    sits in state s.  The table is the set of true entries, filled depth-first
    from the start entry; a move to a stored entry is cut, which also ends
    runs of moves that read and write the empty letter.  Each entry is one
    int, (code·(|x|+1) + i)·|S| + s, where code is the counts in mixed radix
    (digit j runs over 0..c_j) and s is the state's index.  Each pending
    entry keeps the index of the move that reached it and the entry it left,
    so a YES reads its trace back along these forward links.

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
    letters = c.letters()
    index_of = {letter: j for j, letter in enumerate(letters)}
    targets = [c.get(letter) for letter in letters]
    radix = [target + 1 for target in targets]
    names = sorted(m.states)
    number = {state: k for k, state in enumerate(names)}
    n_states = len(names)
    n = len(x)
    cap = budget if budget is not None else float("inf")

    # Place values in a key: a head is a key with s zero, so a move adds its
    # step to the head (one input position, one written letter) and a stored
    # key is head + s.
    unit = []
    place = (n + 1) * n_states
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
        if t.reads is EMPTY:
            eps_moves[source].append((index, jw, target, step))
            if jw >= 0:
                writers[jw] = None
        else:
            if t.reads not in by_letter:
                by_letter[t.reads] = [[] for _ in names]
            by_letter[t.reads][source].append((index, jw, target, step + n_states))
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
    # On a YES, (move index, link) for the last move: the start item when
    # the empty computation meets c, else (index, item the move left).
    final: Optional[tuple] = None
    if not dead:
        table.add(start)
        if len(table) > cap:
            raise BudgetExceeded(f"table entry cap {cap} exceeded")
        # Stack items: (index of the move that reached it, the item it was
        # reached from, state index, head, position, census still owed); the
        # start item has neither.  An item stays alive while a pending item
        # links to it, so links cost memory along the open paths only.
        item = (-1, None, start, 0, 0, total)
        if total == 0 and n == 0:
            final = item
        stack = [item]
        while stack and final is None:
            item = stack.pop()
            _, _, state, head, position, owed = item
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
                                final = (index, item)
                                break
                            stack.append((index, item, target, head2, position + 1, owed2))
                    if final is not None:
                        break
            for index, jw, target, step in eps_moves[state]:
                if jw < 0:
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
                    if owed2 == 0 and position == n:
                        final = (index, item)
                        break
                    stack.append((index, item, target, head2, position, owed2))

    if final is None:
        return None
    trace = []
    while final[1] is not None:
        trace.append(final[0])
        final = final[1]
    trace.reverse()
    return tuple(trace)
