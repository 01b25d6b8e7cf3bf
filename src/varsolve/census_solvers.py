"""Decision procedures for output-letter census feasibility.

Two problems over a nondeterministic machine M and a census requirement c:

* exists-word: is there any input word and computation of M whose output
  meets c exactly?  Solved as one integer program on the part of M that a
  walk from the start can reach, the linear-size Parikh image of Seidl,
  Schwentick, Muscholl and Habermehl (ICALP 2004): a use count per
  transition out of a reached state, a 0/1 end state and flow conservation
  per reached state, and one census equality per letter.  Connectivity to
  the start state is added lazily: one engine call checks each solution it
  finds, takes a cut row for each disconnected one and searches again from
  its root's propagation fixpoint, within one node budget.  The
  certificate is the paper's walk decomposition, peeled straight from the
  transition counts over the subdivided machine, of which only the hops of
  used transitions are built: a base walk plus anchored loops with
  execution counts.

* given-word: for a fixed input word x, is there a computation reading all
  of x whose output meets c exactly?  Solved in one forward pass by a
  boolean table, kept as the set of its true entries (state, partial
  census, input position), each packed into one int, filled depth-first
  from the start configuration; each pending entry links to the run of
  moves that reached it and the entry it left, and a YES reads its trace
  back along those links.  Before the fill, one backward pass with no
  partial census in its table bounds the census of every (position, state)
  pair reachable from the start, field by field, by what the rest of x can
  still write; an entry outside its pair's bounds has no completion and is
  never stored.  So a census that the word cannot produce is rejected
  before the first entry, however large its counts.  The same pass links
  each pair with exactly one live move (into a bounded pair) to that move,
  and the fill crosses a run of such pairs in one step, storing only its
  end.  A budget caps the configurations the fill pays for: one unit per
  move of each run whose end it stores.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .ilp import (DEFAULT_BUDGET, EQ, LE, BudgetExceeded, Constraint, IntegerProgram,
                  solve_feasibility)
from .mealy import (EMPTY, CensusRequirement, MealyMachine, WalkDecomposition,
                    decompose_counts, subdivide_part)


def _reached(start: str, moves: dict[str, list[str]]) -> set[str]:
    """The states reached from ``start`` along ``moves``, targets by source."""
    reached = {start}
    frontier = [start]
    while frontier:
        for target in moves.get(frontier.pop(), ()):
            if target not in reached:
                reached.add(target)
                frontier.append(target)
    return reached


def solve_ewmm(m: MealyMachine, c: CensusRequirement,
               budget: Optional[int] = DEFAULT_BUDGET) -> Optional[WalkDecomposition]:
    """Decide whether any input word admits a computation meeting ``c``.

    Returns a walk decomposition over ``subdivide(m)`` whose ``walk()``
    meets c, or None.  A transition's box is the census count of the letter
    it writes, or total + 1 when it writes nothing (a shortest meeting walk
    repeats no state between two written letters, so it takes such a
    transition at most once in each of the total + 1 stretches between
    them); a walk meeting c takes only transitions with a nonzero box, so
    it stays among the states reached from the start through them.  The
    integer program is built on that part of m: a count y_i, boxed, per
    transition i with a nonzero box leaving a reached state (i is its index
    in m, whatever is left out).  A 0/1 variable z_s per reached state marks
    the end state, exactly one is set, and each reached state s conserves
    flow: out(s) - in(s) = [s is the start] - z_s.  Each census letter gets
    one equality row.  So states and transitions no walk reaches change
    neither the program nor its answer.

    The counts then form a start-to-end trail plus closed walks, which a
    walk covers only when every used transition is reached from the start.
    So the engine's ``cut`` checks each solution: let C be the sources of
    used transitions that used transitions do not reach from the start.  If
    C is empty the counts are a walk; otherwise the cut row

        sum of y over transitions leaving states of C
            <= (sum of their boxes) · sum of y over transitions entering C

    (entering from outside C) goes back to the engine, which searches again.
    The row holds for every walk from the start and fails for this solution.
    On a YES, count y_i goes to the two hops of transition i, transitions
    2i and 2i+1 of ``subdivide(m)``.  Only the used transitions are split
    (``subdivide_part``), and ``decompose_counts`` peels their counts over
    that part into the certificate.

    Spends ``budget`` (None: no cap) in integer-program search nodes,
    summed over the engine's searches, and raises BudgetExceeded when it is
    spent before a verdict.
    """
    counts = c.as_dict()
    silent_box = c.total() + 1
    boxes = [silent_box if t.writes == EMPTY else counts.get(t.writes, 0)
             for t in m.transitions]
    takeable: dict[str, list[str]] = {}  # targets by source
    for t, box in zip(m.transitions, boxes):
        if box:
            takeable.setdefault(t.source, []).append(t.target)
    reached = _reached(m.start, takeable)
    names = sorted(reached)
    number = {state: k for k, state in enumerate(names)}
    # (index, transition, variable, box) for each transition a walk may take
    arcs = [(i, t, f"y{i}", boxes[i]) for i, t in enumerate(m.transitions)
            if boxes[i] and t.source in reached]
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
        if t.writes != EMPTY:
            census_rows[t.writes][name] = 1
    constraints = [Constraint({f"z{k}": -1 for k in range(len(names))}, EQ, -1)]
    constraints += [Constraint(row, EQ, -int(names[k] == m.start))
                    for k, row in enumerate(balance)]
    constraints += [Constraint(census_rows[letter], EQ, count)
                    for letter, count in counts.items()]

    def connected(values: dict[str, int]) -> Optional[Constraint]:
        """None when the used transitions are reached from the start, else a cut row."""
        moves: dict[str, list[str]] = {}  # targets of used transitions by source
        for _, t, name, _ in arcs:
            if values[name]:
                moves.setdefault(t.source, []).append(t.target)
        stranded = set(moves) - _reached(m.start, moves)
        if not stranded:
            return None
        leaving = [(name, box) for _, t, name, box in arcs if t.source in stranded]
        weight = sum(box for _, box in leaving)
        row = {name: 1 for name, _ in leaving}
        for _, t, name, _ in arcs:
            if t.source not in stranded and t.target in stranded:
                row[name] = -weight
        return Constraint(row, LE, 0)

    assignment = solve_feasibility(IntegerProgram(tuple(variables), tuple(constraints)),
                                   budget=budget, cut=connected)
    if assignment is None:
        return None
    used = [(i, assignment[name]) for i, _, name, _ in arcs if assignment[name]]
    part = subdivide_part(m, [i for i, _ in used])
    # Transition i's two hops, in a row in the part, both carry y_i.
    counts = dict(zip(part.transitions, [n for _, n in used for _ in (0, 1)]))
    return decompose_counts(part, counts)


def solve_gwmm(m: MealyMachine, x: Sequence, c: CensusRequirement,
               budget: Optional[int] = DEFAULT_BUDGET) -> Optional[tuple[int, ...]]:
    """Decide whether a computation reading all of ``x`` meets ``c`` exactly.

    Returns a transition-index trace replayable through the machine, or None.
    An entry (s, counts, i) is true when some computation reads the first i
    letters of x, writes each required letter exactly counts-many times and
    sits in state s.  The table is the set of true entries, filled depth-first
    from the start entry; a move to a stored entry is cut, which also ends
    cycles of moves that read and write the empty letter.  Each pending
    entry keeps the run of moves that reached it and the entry it left, so
    a YES reads its trace back along these links.

    The counts are packed into one int of uniform fields, each w bits wide
    with w - 1 the bit length of the census total: one field per required
    letter and one for the total written so far, the top bit of each a
    guard bit that a count never reaches.  An entry is the int
    counts·2^b + i·|S| + s, where s is the state's index and
    2^b > (|x| + 1)·|S|, so a run of moves adds one precomputed step.

    Before the fill, one backward pass over the (position, state) pairs
    reachable from the start, a table with no partial census in it, bounds
    each pair by what its completions (moves reading the rest of x, with
    empty-read moves anywhere) that write no letter beyond c can write:
    field by field, the counts there must lie in [need, cap], where cap is
    c less the least such a completion writes and need is c less the most,
    floored at 0.  need is 0 in the fields of letters that an empty-read move
    writes, and in the total field when any does, since such a move may
    repeat.  A pair with no such completion gets no bound and is dead.  A
    child entry is stored only when need <= counts <= cap in every field:
    two guard-bit subtractions on one int, with no loop over letters.
    Every skipped entry has no completion, and neither has any entry
    reached from it; a census that cannot be met from the start is
    rejected before the first entry, however large its counts.

    A move is live when its target pair has a bound that what the move
    writes fits.  A pair before position n with exactly one live move gets
    that move's bound less what it writes (need floored at 0), so an entry
    there fits its bound exactly when the entry the move leads to fits
    that one.  The backward pass records each such pair's move, and the
    fill follows every live move from an entry on through such pairs, in
    one summed step, to the run's end: a pair with several live moves or
    at position n.  Only there does it test the bound, the table and the
    goal, and only the end is stored; a YES rebuilds a run's moves from the
    recorded ones.  The configurations a run passes are never stored, so a
    later path into the middle of a run is cut at its stored end instead.

    Spends ``budget`` (None: no cap) in configurations: each stored run
    end costs the number of moves of its run, and the start costs nothing.
    No configuration is paid for twice, and each one paid for lies within
    its pair's bounds, so within c.  Raises BudgetExceeded when the budget
    is spent; otherwise exact.
    """
    for letter in x:
        if letter == EMPTY:
            raise ValueError("the empty letter cannot occur inside the input word")
        if letter not in m.input_alphabet:
            raise ValueError(f"input letter {letter!r} not in the input alphabet")
    letters = c.letters()
    names = sorted(m.states)
    number = {state: k for k, state in enumerate(names)}
    n_states = len(names)
    n = len(x)
    limit = budget if budget is not None else float("inf")

    # Field f of the counts starts at bit shift + f·w, below them sits the
    # low part i·|S| + s of a key; field len(letters) is the total.  ones
    # has a 1 at the bottom of every field, guards the top bit of every
    # field, and full the value bits of one field.
    total = c.total()
    w = total.bit_length() + 1
    shift = ((n + 1) * n_states).bit_length()
    low_mask = (1 << shift) - 1
    ones = sum(1 << (shift + f * w) for f in range(len(letters) + 1))
    guards = ones << (w - 1)
    full = (1 << (w - 1)) - 1
    written = 1 << (shift + len(letters) * w)
    weight_of = {letter: (1 << (shift + j * w)) + written for j, letter in enumerate(letters)}
    goal = sum(count * weight_of[letter] for letter, count in c.counts)

    # Moves by state index, each (index, delta, weight): delta moves the low
    # part to the target's, weight adds the written letter and the total to
    # the counts.  Transitions writing a letter with a zero requirement can
    # never be taken and are left out.  read_at[i] holds the moves reading
    # x[i], () for a state with none; read_at[n] has none.  free marks the
    # fields that an empty-read move writes.
    eps_moves: list[list[tuple[int, int, int]]] = [[] for _ in names]
    by_letter: dict[str, list[Sequence[tuple[int, int, int]]]] = {}
    weight_of[EMPTY] = 0
    free = 0
    for index, (source, reads, target, writes) in enumerate(m.transitions):
        weight = weight_of.get(writes)
        if weight is None:
            continue
        source, target = number[source], number[target]
        if reads == EMPTY:
            eps_moves[source].append((index, target - source, weight))
            free |= weight * full
        else:
            moves = by_letter.get(reads)
            if moves is None:
                moves = by_letter[reads] = [()] * n_states
            if not moves[source]:
                moves[source] = []
            moves[source].append((index, n_states + target - source, weight))
    silent = any(eps_moves)
    no_moves = [()] * n_states
    read_at = [by_letter.get(letter, no_moves) for letter in x] + [no_moves]

    # bounds[i·|S| + s] is (need, cap) for the pair (i, s), or None.  cap
    # is kept with every guard bit and every low bit set, so a key k fits
    # the bound exactly when ((k | guards) - need) & (cap - k) keeps every
    # guard bit: a guard bit survives a - b exactly where a's field is at
    # least b's.
    bounds: list[Optional[tuple[int, int]]] = [None] * ((n + 1) * n_states)

    def via(bound, after, weight):
        """``bound`` widened by a move that writes ``weight`` into a pair
        bounded by ``after``, or ``bound`` itself when the write does not fit."""
        need, cap = after
        cap -= weight
        if cap & guards != guards:
            return bound
        # need falls by what the move writes, but not below 0.
        need -= weight & ((((need | guards) - ones) & guards) >> (w - 1))
        if bound is None:
            return need, cap
        # Field-wise min of the needs and max of the caps.
        old_need, old_cap = bound
        lower = ((((old_need | guards) - need) & guards) >> (w - 1)) * full
        higher = (((cap - (old_cap ^ guards)) & guards) >> (w - 1)) * full
        return (old_need ^ ((old_need ^ need) & lower),
                old_cap ^ ((old_cap ^ cap) & higher))

    # The pairs reachable from the start at each position, closed under
    # empty-read moves, with the census ignored.
    start = number[m.start]
    reach = []
    here = {start}
    for moves in read_at:
        if silent:
            frontier = list(here)
            while frontier:
                low = frontier.pop()
                for _, delta, _ in eps_moves[low % n_states]:
                    low2 = low + delta
                    if low2 not in here:
                        here.add(low2)
                        frontier.append(low2)
        reach.append(here)
        here = {low + delta for low in here for _, delta, _ in moves[low % n_states]}

    # The backward pass.  At each position the empty-read moves are closed
    # by passes until no bound changes; a move only lowers what it passes
    # on, so the number of passes does not grow with the census.  A move is
    # live when its target has a bound that what it writes fits; via then
    # returns a new bound.  link[low] is the one live move of a pair before
    # position n that has exactly one, () for a pair with several or at
    # position n, and None for a pair with none.  A pass only widens
    # bounds, so a move live in one pass stays live, and the last pass,
    # which changes nothing, sees the final bounds.
    link: list[Optional[tuple]] = [None] * ((n + 1) * n_states)
    for position in range(n, -1, -1):
        here = reach[position]
        moves = read_at[position]
        # A pair at position n starts from c and ends every run through it.
        if position == n:
            bound0, link0 = (goal & ~free, goal | guards | low_mask), ()
        else:
            bound0 = link0 = None
        for low in here:
            bound, one = bound0, link0
            for move in moves[low % n_states]:
                after = bounds[low + move[1]]
                if after is None:
                    continue
                widened = via(bound, after, move[2])
                if widened is not bound:
                    bound = widened
                    one = move if one is None else ()
            bounds[low] = bound
            link[low] = one
        changed = silent
        while changed:
            changed = False
            for low in here:
                eps = eps_moves[low % n_states]
                if not eps:
                    continue
                bound = old = bounds[low]
                one = link[low]
                for move in eps:
                    after = bounds[low + move[1]]
                    if after is None:
                        continue
                    widened = via(bound, after, move[2])
                    if widened is not bound:
                        bound = widened
                        one = move if one is None or one is move else ()
                if bound is not old:
                    link[low] = one
                    if bound != old:
                        bounds[low] = bound
                        changed = True

    last = n * n_states
    table: set[int] = set()
    spent = 0
    # On a YES, the start item when the empty computation meets c, else
    # (last run, item it left).
    final: Optional[tuple] = None
    # The start entry writes nothing, so it fits its bound when that needs
    # nothing.
    bound = bounds[start]
    if bound is not None and not bound[0]:
        table.add(start)
        # runs_at[low] lists the runs from pair low, built when the fill
        # first leaves it: one per move whose target has a bound, continued
        # along the links to a pair with several live moves or at position
        # n.  A run never meets a pair twice: pairs with one live move each,
        # leading around a cycle, would take their bounds from each other
        # only, so they have none.  A run's writes fit its end's cap, so no
        # field of key + step reaches the next field.  Each run is (summed
        # step, need and cap of its end, end, number of moves, first move's
        # index, first move's target); the links from that target give the
        # rest of its moves back.
        runs_at: list[Optional[list]] = [None] * len(bounds)
        # Stack items: (the run that reached it, the item it was reached
        # from, key); the start item has neither.  An item stays alive while
        # a pending item links to it, so links cost memory along the open
        # paths only.
        item = (None, None, start)
        if n == 0 and total == 0:
            final = item
        stack = [item]
        while stack and final is None:
            item = stack.pop()
            key = item[2]
            low = key & low_mask
            runs = runs_at[low]
            if runs is None:
                runs = runs_at[low] = []
                position, state = divmod(low, n_states)
                for moves in (read_at[position][state], eps_moves[state]):
                    for index, delta, weight in moves:
                        target = low + delta
                        if bounds[target] is None:
                            continue
                        end = target
                        length = 1
                        one = link[end]
                        while one:
                            end += one[1]
                            weight += one[2]
                            length += 1
                            one = link[end]
                        need, cap = bounds[end]
                        runs.append((weight + (end - low), need, cap, end, length, index, target))
            for run in runs:
                step, need, cap, end, length, _, _ = run
                key2 = key + step
                if (((key2 | guards) - need) & (cap - key2) & guards != guards
                        or key2 in table):
                    continue
                table.add(key2)
                spent += length
                if spent > limit:
                    raise BudgetExceeded(f"given-word configuration cap {limit} exceeded")
                if end >= last and key2 - end == goal:
                    final = (run, item)
                    break
                stack.append((run, item, key2))

    if final is None:
        return None
    runs = []
    while final[1] is not None:
        runs.append(final[0])
        final = final[1]
    trace = []
    for run in reversed(runs):
        trace.append(run[5])
        low = run[6]
        one = link[low]
        while one:
            trace.append(one[0])
            low += one[1]
            one = link[low]
    return tuple(trace)
