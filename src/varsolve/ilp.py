"""Exact feasibility for integer linear programs with finite variable boxes.

Every program handled here has an explicit finite box per variable, so a
depth-first search over variable assignments, combined with interval
propagation and per-constraint divisibility cuts, is complete.  An equality
row with two unfixed variables has integer solutions only on a lattice, so
propagation rounds one of its boxes to that lattice in one step instead of
trading bounds between the two variables pass after pass.  Before any
propagation, a rank check on the equality rows rejects programs whose
equalities have no rational solution at all (it pivots on a +-1 term
wherever a row has one, and such a pivot eliminates with no scaling or gcd
pass).  It eliminates the rows shortest first, as Markowitz (1957) ordered
pivots: a short row's pivot then adds few terms to the longer rows after it,
where a long row taken first would fill in every short row that shares a
variable with it.  A branch does not start at the bottom of its box: it
first tries the smallest value that puts the variable at the same fraction
of its box as an equality row's right-hand side sits in that row's range,
then works outward from it.  The search keeps an explicit stack, one frame
per branched variable, so its depth is not limited by Python's recursion
limit.  A cut row from the caller restarts it from the root's fixpoint,
and a budget caps its nodes over all restarts.  All arithmetic is exact
unbounded-magnitude Python integers; there is no floating-point
relaxation anywhere.

Each solve reads and rank-checks the program once: the compile rejects a
malformed program and turns it into index form, with boxes in two int lists,
rows as lists of nonzero (index, coefficient) terms (a ``>=`` row stored as
the ``<=`` row of its negation) and a watch list of rows per variable.
Propagation works from a queue of rows whose boxes moved (AC-3 style), so a
search node revisits only the rows its branch touched, and every box change
goes on a trail that backtracking undoes, so no node copies the boxes.  A
visit to a row is one pass over its terms: it sums the activity bounds and
finds the widest unfixed term, and when that term fits in the row's slack
(the activity test of Achterberg, *Constraint Integer Programming*, 2007)
the row narrows nothing and the visit ends there.  Rows whose coefficients
are all +-1, as the flow and census rows of the exists-word program are,
skip the gcd cut and the lattice step, which cannot act on them.
"""
from __future__ import annotations

import math
import operator
from collections import deque
from typing import Callable, Mapping, NamedTuple, Optional

LE = "<="
EQ = "="
GE = ">="

_RELATIONS = (LE, EQ, GE)


class MalformedProgram(ValueError):
    """Program violates a structural invariant (bad box, unknown variable)."""


class ProvenInfeasible(Exception):
    """Raised by bound propagation when infeasibility is detected."""


class BudgetExceeded(Exception):
    """A solver's budget ran out; the verdict is unknown rather than no."""


# The budget of the census solvers and of every command-line solve.
DEFAULT_BUDGET = 2_000_000


class Constraint(NamedTuple):
    coeffs: Mapping[str, int]
    relation: str
    rhs: int


class IntegerProgram(NamedTuple):
    """Box-bounded integer variables plus linear (in)equality constraints."""

    variables: tuple[tuple[str, int, int], ...]
    constraints: tuple[Constraint, ...]

    def variable_names(self) -> list[str]:
        # A list comprehension, not tuple(<generator>): its shrunk tuples pile up on free lists.
        return [name for name, _, _ in self.variables]


class Assignment(NamedTuple):
    values: Mapping[str, int]
    nodes: int = 0  # search nodes spent finding it, every root included

    def __getitem__(self, name: str) -> int:
        return self.values[name]


def satisfies(program: IntegerProgram, assignment: Mapping[str, int]) -> bool:
    """Exact re-evaluation of every constraint under integer arithmetic."""
    for con in program.constraints:
        lhs = sum(c * assignment[name] for name, c in con.coeffs.items())
        if con.relation == LE and not lhs <= con.rhs:
            return False
        if con.relation == EQ and lhs != con.rhs:
            return False
        if con.relation == GE and not lhs >= con.rhs:
            return False
    return True


def _lattice_step(lo: list[int], hi: list[int], unfixed: list[tuple[int, int]],
                  residual: int) -> Optional[tuple[int, int]]:
    """Round one box of a two-variable equality row to its solution lattice.

    ``unfixed`` holds the row's two unfixed variables with their coefficients
    a and b, and ``residual`` is the right-hand side less the fixed terms;
    all three are divisible by g = gcd(a, b).  With a' = a/g, b' = b/g and
    r' = residual/g, every integer solution has u = r' * a'^-1 (mod |b'|), so
    u's box shrinks to the nearest values of that class inside it.  Returns
    u's new box, or None when it does not change; raises ProvenInfeasible
    when no value is left.
    """
    (u, a), (_, b) = unfixed
    g = math.gcd(a, b)
    modulus = abs(b // g)
    if modulus == 1:
        return None
    target = residual // g * pow(a // g, -1, modulus) % modulus
    new_lo = lo[u] + (target - lo[u]) % modulus
    new_hi = hi[u] - (hi[u] - target) % modulus
    if new_lo > new_hi:
        raise ProvenInfeasible(f"box of variable {u} holds no lattice point")
    if new_lo == lo[u] and new_hi == hi[u]:
        return None
    return new_lo, new_hi


class _Boxes:
    """A program compiled to index form, with its boxes, row queue and trail.

    Variable k is the k-th declared one.  Each row becomes (terms, relation,
    rhs) with ``terms`` its nonzero (index, coefficient) pairs; a ``>=`` row
    is stored as the ``<=`` row of its negation, so relation is ``<=`` or
    ``=``.  ``unit[r]`` says whether every coefficient of row r is +-1, and
    ``watch[k]`` lists the rows that hold variable k.  The boxes are the two
    int lists ``lo`` and ``hi``.  Every box change appends (index, old lo,
    old hi) to ``trail`` and queues the rows watching that variable, so
    ``undo`` restores any earlier state and ``propagate`` revisits only the
    rows whose boxes moved.  Compiling raises MalformedProgram on a
    duplicate variable, an empty box, an unknown relation or a coefficient
    on an undeclared variable.
    """

    __slots__ = ("index", "rows", "unit", "watch", "lo", "hi", "trail", "queue", "queued")

    def __init__(self, program: IntegerProgram):
        self.index: dict[str, int] = {}
        for name, lo, hi in program.variables:
            if name in self.index:
                raise MalformedProgram(f"duplicate variable {name!r}")
            if lo > hi:
                raise MalformedProgram(f"variable {name!r} has empty box [{lo}, {hi}]")
            self.index[name] = len(self.index)
        self.lo = [lo for _, lo, _ in program.variables]
        self.hi = [hi for _, _, hi in program.variables]
        self.watch: list[list[int]] = [[] for _ in program.variables]
        self.rows = []
        self.unit: list[bool] = []
        self.queued: list[bool] = []
        for con in program.constraints:
            self.add(con)
        self.trail: list[tuple[int, int, int]] = []
        self.restart()

    def add(self, con: Constraint) -> None:
        """Compile one more row, with ``queued`` grown to match, but not queued.

        ``restart`` queues every row; a caller that keeps the boxes queues
        the new row itself, which is all a propagation fixpoint of the old
        rows needs to become one of all the rows.
        """
        coeffs, relation, rhs = con
        if relation not in _RELATIONS:
            raise MalformedProgram(f"unknown relation {relation!r}")
        sign = -1 if relation == GE else 1
        r = len(self.rows)
        index, watch = self.index, self.watch
        terms = []
        unit = True
        for name, c in coeffs.items():
            k = index.get(name)
            if k is None:
                raise MalformedProgram(f"coefficient on undeclared variable {name!r}")
            if c:
                terms.append((k, sign * c))
                watch[k].append(r)
                if c != 1 and c != -1:
                    unit = False
        self.rows.append((terms, EQ if relation == EQ else LE, sign * rhs))
        self.unit.append(unit)
        self.queued.append(False)

    def restart(self) -> None:
        """Restore the declared boxes and queue every row, as for a first propagation.

        The compile calls it once; a search resumes after a cut from the
        boxes of its root's fixpoint instead (``solve_feasibility``).
        """
        self.undo(0)
        self.queue = deque(range(len(self.rows)))
        self.queued = [True] * len(self.rows)

    def undo(self, mark: int) -> None:
        """Restore the boxes as they were when the trail was ``mark`` long."""
        trail, lo, hi = self.trail, self.lo, self.hi
        while len(trail) > mark:
            k, old_lo, old_hi = trail.pop()
            lo[k] = old_lo
            hi[k] = old_hi

    def narrow(self, k: int, new_lo: int, new_hi: int) -> None:
        """Set variable k's box, trail the old one and queue k's rows."""
        self.trail.append((k, self.lo[k], self.hi[k]))
        self.lo[k] = new_lo
        self.hi[k] = new_hi
        queue, queued = self.queue, self.queued
        for r in self.watch[k]:
            if not queued[r]:
                queued[r] = True
                queue.append(r)

    def propagate(self) -> None:
        """Tighten the boxes to a propagation fixpoint of the queued rows.

        A visit to a row is one pass over its terms, which sums the fixed
        terms and collects the unfixed ones with the least and greatest
        activity and the widest span |c| * (hi - lo) among them.  With
        slack s = rhs - min activity (and t = max activity - rhs on an
        equality), a term with coefficient c moves its box end away from
        its least (greatest) contribution by at most s // |c| (t // |c|),
        so only a span wider than s or t can narrow it: a row whose widest
        span fits in its slack narrows nothing and is left at once, and a
        fixed term (span 0) never narrows.  Equalities also get a gcd
        divisibility cut, and one with exactly two unfixed variables has
        the first one's box rounded to the row's solution lattice
        (``_lattice_step``); interval passes alone reach the same fixpoint
        but move the two boxes by about |a - b| per pass.  A row whose
        coefficients are all +-1 skips both: its gcd is 1 and its lattice
        is every integer point.  A row whose boxes change is queued again,
        so the queue empties only at a fixpoint; every row operator narrows
        the boxes monotonically, so that fixpoint does not depend on the
        queue order.  Never removes an integer point satisfying all
        constraints.  Raises ProvenInfeasible, with the queue emptied, when
        a box empties or a cut fails.
        """
        rows, lo, hi, queue, queued = self.rows, self.lo, self.hi, self.queue, self.queued
        unit = self.unit
        pop, narrow = queue.popleft, self.narrow
        try:
            while queue:
                r = pop()
                queued[r] = False
                terms, relation, rhs = rows[r]
                fixed = low = high = span = 0
                unfixed = []
                for term in terms:
                    k, c = term
                    k_lo = lo[k]
                    k_hi = hi[k]
                    if k_lo == k_hi:
                        fixed += c * k_lo
                        continue
                    unfixed.append(term)
                    if c > 0:
                        least, most = c * k_lo, c * k_hi
                    else:
                        least, most = c * k_hi, c * k_lo
                    low += least
                    high += most
                    if most - least > span:
                        span = most - least
                lower = relation == EQ
                if lower:
                    residual = rhs - fixed
                    if not unfixed:
                        if residual != 0:
                            raise ProvenInfeasible("equality violated by fixed variables")
                        continue
                if lower and not unit[r]:
                    if residual % math.gcd(*[c for _, c in unfixed]) != 0:
                        raise ProvenInfeasible("divisibility cut on equality")
                    if len(unfixed) == 2:
                        box = _lattice_step(lo, hi, unfixed, residual)
                        if box is not None:
                            # Move u's terms in the sums to its new box.
                            (u, a), (v, b) = unfixed
                            old = a * lo[u], a * hi[u]
                            narrow(u, *box)
                            new = a * lo[u], a * hi[u]
                            low += min(new) - min(old)
                            high += max(new) - max(old)
                            span = max(max(new) - min(new), abs(b) * (hi[v] - lo[v]))

                # sum <= rhs, and for an equality also sum >= rhs.
                slack = rhs - fixed - low
                if slack < 0:
                    raise ProvenInfeasible("minimum activity exceeds bound")
                if lower:
                    surplus = fixed + high - rhs
                    if surplus < 0:
                        raise ProvenInfeasible("maximum activity below bound")
                    if span <= slack and span <= surplus:
                        continue
                elif span <= slack:
                    continue
                # A term moves at most slack // |c| up from its least value
                # and, on an equality, surplus // |c| down from its greatest.
                for k, c in unfixed:
                    old_lo = new_lo = lo[k]
                    old_hi = new_hi = hi[k]
                    if c > 0:
                        bound = old_lo + slack // c
                        if bound < new_hi:
                            new_hi = bound
                        if lower:
                            bound = old_hi - surplus // c
                            if bound > new_lo:
                                new_lo = bound
                    else:
                        bound = old_hi - slack // -c
                        if bound > new_lo:
                            new_lo = bound
                        if lower:
                            bound = old_lo + surplus // -c
                            if bound < new_hi:
                                new_hi = bound
                    if new_lo == old_lo and new_hi == old_hi:
                        continue
                    if new_lo > new_hi:
                        raise ProvenInfeasible(f"box of variable {k} emptied")
                    narrow(k, new_lo, new_hi)
        except ProvenInfeasible:
            for s in queue:
                queued[s] = False
            queue.clear()
            raise


def propagate_bounds(program: IntegerProgram) -> IntegerProgram:
    """Return an equivalent program with boxes tightened to a fixpoint."""
    boxes = _Boxes(program)
    boxes.propagate()
    variables = tuple([(name, lo, hi) for (name, _, _), lo, hi
                       in zip(program.variables, boxes.lo, boxes.hi)])
    return IntegerProgram(variables=variables, constraints=program.constraints)


def _equalities_consistent(rows: list[tuple[list[tuple[int, int]], str, int]]) -> bool:
    """Whether the compiled equality rows have a rational solution, ignoring boxes.

    Gaussian elimination over sparse integer rows and right-hand sides: the
    rows are inconsistent exactly when one reduces to ``0 = r``, r != 0.  A row
    pivots on its first +-1 term, else its first; a +-1 pivot p subtracts c*p
    times its row in place, any other takes a fraction-free gcd-divided step.
    The rows are taken in order of term count (a stable sort), shortest first:
    whether they have a rational solution does not depend on their order, and
    a short pivot row fills in few terms of the rows reduced by it, where a
    long one would turn every short row sharing a variable with it long.
    """
    pivots: list[tuple[int, dict[int, int], int]] = []
    equalities = [row for row in rows if row[1] == EQ]
    equalities.sort(key=lambda row: len(row[0]))
    for terms, _, rhs in equalities:
        row = dict(terms)
        for var, prow, prhs in pivots:
            c = row.get(var)
            if not c:
                continue
            p = prow[var]
            unit = p == 1 or p == -1
            if unit:
                c *= p
            else:
                row = {k: p * c_row for k, c_row in row.items()}
                rhs *= p
            for k, c_piv in prow.items():
                value = row.get(k, 0) - c * c_piv
                if value:
                    row[k] = value
                else:
                    row.pop(k, None)
            rhs -= c * prhs
            if not unit:
                g = math.gcd(rhs, *row.values())
                if g > 1:
                    row = {k: value // g for k, value in row.items()}
                    rhs //= g
        if row:
            for var, c in row.items():
                if c == 1 or c == -1:
                    break
            else:
                var = next(iter(row))
            pivots.append((var, row, rhs))
        elif rhs != 0:
            return False
    return True


def _first_value(boxes: _Boxes, k: int) -> int:
    """The value a branch on variable k tries first: its proportional share.

    An equality row whose left-hand side ranges over [min, max] at these
    boxes puts its right-hand side at the fraction (rhs - min) / (max - min)
    of that range; the row's point for k is the same fraction of k's box,
    floored, counted from the low end for a positive coefficient and from
    the high end for a negative one.  The first value is the smallest point
    over the equality rows in k's watch list, or the low end when k is in
    none.  k is unfixed and has a nonzero coefficient in each watched row,
    so max > min; the boxes are at a propagation fixpoint, so
    min <= rhs <= max and every point lies in the box.
    """
    lows, highs = boxes.lo, boxes.hi
    lo, hi = lows[k], highs[k]
    first = None
    for r in boxes.watch[k]:
        terms, relation, rhs = boxes.rows[r]
        if relation != EQ:
            continue
        # One pass: the row's activity range and k's own coefficient.
        min_act = max_act = 0
        for i, c in terms:
            if c > 0:
                min_act += c * lows[i]
                max_act += c * highs[i]
            else:
                min_act += c * highs[i]
                max_act += c * lows[i]
            if i == k:
                positive = c > 0
        share = (hi - lo) * (rhs - min_act) // (max_act - min_act)
        point = lo + share if positive else hi - share
        if first is None or point < first:
            first = point
    return lo if first is None else first


def solve_feasibility(program: IntegerProgram, budget: Optional[int] = None,
                      cut: Optional[Callable] = None) -> Optional[Assignment]:
    """Decide feasibility over the boxes; return a witness or None.

    Complete over the box product: a None verdict means no integer point in
    the boxes satisfies all constraints.  Before any propagation, a program
    with two or more equalities is rejected at once when the equalities have
    no rational solution; interval passes alone would shave such boxes one
    unit per pass.

    The program is compiled once per call (``_Boxes``), and the rank check
    reads the compiled rows: variables become indices into two int lists of
    box ends, rows become lists of nonzero (index, coefficient) terms, and
    each variable gets a watch list of the rows that hold it.  The root
    propagates every row; a child fixes its branch variable and propagates
    from a queue holding only that variable's rows, since its parent is
    already at a fixpoint, and rows re-enter the queue only when one of
    their boxes moves.  Every box change goes on a trail, and trying a
    branch's next value undoes the trail back to the mark its frame took,
    so no node copies the boxes.

    The search is depth-first on the variable with the narrowest current
    box (ties by declaration order), with propagation and divisibility cuts
    at every node, so the witness is deterministic.  A branch tries the
    variable's proportional share of its equality rows first
    (``_first_value``), then alternates outward (v0, v0+1, v0-1, v0+2, ...)
    until both ends of the box are used up; a variable in no equality row
    starts at the low end, so it takes its values in increasing order.  The
    search runs on an explicit stack of frames (branch variable, first
    value, up cursor, down cursor, parent box of the variable, trail mark),
    one frame per branched variable.

    ``cut`` (None: none) sees each leaf's values and returns None to accept
    it, or a ``<=`` or ``>=`` row it violates; the row joins the compiled
    rows, and the search starts again from its root's fixpoint.  That
    fixpoint is what the trail holds below the mark of the bottom frame,
    which the root pushed once it had propagated (a leaf with no frame is
    the root itself).  Every row operator narrows the boxes monotonically,
    so a fixpoint does not depend on the order in which rows join the queue
    (``_Boxes.propagate``): undoing the trail to that mark and queuing only
    the new row reaches the fixpoint that propagating every row from the
    declared boxes would.  The new root costs one node, as any root does.

    Spends one unit of ``budget`` (None: no cap) per search node: each root
    and every child whose box is fixed to a branch value, before it is
    propagated.  Raises BudgetExceeded when it is spent before a verdict.
    A leaf is re-checked on the program and the cut rows (``satisfies``); a
    failure is a fault of the engine and raises AssertionError.
    """
    boxes = _Boxes(program)
    consistent = (sum(relation == EQ for _, relation, _ in boxes.rows) < 2
                  or _equalities_consistent(boxes.rows))
    cap = math.inf if budget is None else budget
    lo, hi = boxes.lo, boxes.hi
    nodes = 0
    stack: list[list] = []
    while True:
        # Enter a node: its boxes are set and the rows to revisit queued.
        nodes += 1
        if nodes > cap:
            raise BudgetExceeded(f"node cap {budget} exceeded")
        if not consistent:
            return None
        try:
            boxes.propagate()
        except ProvenInfeasible:
            pass
        else:
            widths = list(map(operator.sub, hi, lo))
            narrowest = min(filter(None, widths), default=0)
            if narrowest:
                # The first unfixed variable with the narrowest box.
                k = widths.index(narrowest)
                first = _first_value(boxes, k)
                stack.append([k, first, first, first - 1, lo[k], hi[k], len(boxes.trail)])
            else:
                values = dict(zip(program.variable_names(), lo))
                if not satisfies(program, values):
                    raise AssertionError("propagation fixed every box to a point that "
                                         "fails a constraint")
                row = None if cut is None else cut(values)
                if row is None:
                    return Assignment(values=values, nodes=nodes)
                program = IntegerProgram(program.variables, program.constraints + (row,))
                # The bottom frame took its trail mark at the root's fixpoint.
                if stack:
                    boxes.undo(stack[0][6])
                    stack.clear()
                boxes.add(row)
                boxes.queued[-1] = True
                boxes.queue.append(len(boxes.rows) - 1)
                continue
        # Fix the next branch value, backtracking past used-up frames.
        while stack:
            frame = stack[-1]
            k, first, up, down, box_lo, box_hi, mark = frame
            boxes.undo(mark)
            if up <= box_hi and (down < box_lo or up - first <= first - down):
                value, frame[2] = up, up + 1
            elif down >= box_lo:
                value, frame[3] = down, down - 1
            else:
                stack.pop()
                continue
            boxes.narrow(k, value, value)
            break
        else:
            return None


def dump_program(program: IntegerProgram) -> str:
    """Debug text dump: one box line per variable, one constraint per line."""
    lines = []
    for name, lo, hi in program.variables:
        lines.append(f"{lo} <= {name} <= {hi}")
    for con in program.constraints:
        if con.coeffs:
            terms = " + ".join(f"{c}*{name}" for name, c in con.coeffs.items())
        else:
            terms = "0"
        lines.append(f"{terms} {con.relation} {con.rhs}")
    return "\n".join(lines)
