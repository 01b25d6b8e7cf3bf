"""Exact feasibility for integer linear programs with finite variable boxes.

Every program handled here has an explicit finite box per variable, so a
depth-first search over variable assignments, combined with interval
propagation and per-constraint divisibility cuts, is complete.  An equality
row with two unfixed variables has integer solutions only on a lattice, so
propagation rounds one of its boxes to that lattice in one step instead of
trading bounds between the two variables pass after pass.  Before any
propagation, a rank check on the equality rows rejects programs whose
equalities have no rational solution at all.  A branch does not start at
the bottom of its box: it first tries the smallest value that puts the
variable at the same fraction of its box as an equality row's right-hand
side sits in that row's range, then works outward from it.  The search
keeps an explicit stack, one frame per branched variable, so its depth is
not limited by Python's recursion limit.  A budget caps the number of
search nodes.  All arithmetic is exact unbounded-magnitude Python integers;
there is no floating-point relaxation anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional

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


class Constraint(NamedTuple):
    coeffs: Mapping[str, int]
    relation: str
    rhs: int


@dataclass(frozen=True)
class IntegerProgram:
    """Box-bounded integer variables plus linear (in)equality constraints."""

    variables: tuple[tuple[str, int, int], ...]
    constraints: tuple[Constraint, ...]

    def validate(self) -> None:
        seen = set()
        for name, lower, upper in self.variables:
            if name in seen:
                raise MalformedProgram(f"duplicate variable {name!r}")
            seen.add(name)
            if lower > upper:
                raise MalformedProgram(
                    f"variable {name!r} has empty box [{lower}, {upper}]")
        for con in self.constraints:
            if con.relation not in _RELATIONS:
                raise MalformedProgram(f"unknown relation {con.relation!r}")
            for name in con.coeffs:
                if name not in seen:
                    raise MalformedProgram(
                        f"coefficient on undeclared variable {name!r}")

    def variable_names(self) -> list[str]:
        # A list comprehension, not tuple(<generator>): its shrunk tuples pile up on free lists.
        return [name for name, _, _ in self.variables]


@dataclass(frozen=True)
class Assignment:
    values: Mapping[str, int]
    nodes: int = 0  # search nodes spent finding it, the root included

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


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _lattice_step(bounds: dict[str, tuple[int, int]],
                  unfixed: list[tuple[str, int]], residual: int) -> bool:
    """Round one box of a two-variable equality row to its solution lattice.

    ``unfixed`` holds the row's two unfixed variables with their coefficients
    a and b, and ``residual`` is the right-hand side less the fixed terms;
    all three are divisible by g = gcd(a, b).  With a' = a/g, b' = b/g and
    r' = residual/g, every integer solution has u = r' * a'^-1 (mod |b'|), so
    u's box shrinks to the nearest values of that class inside it.  Returns
    whether the box changed; raises ProvenInfeasible when no value is left.
    """
    (u, a), (_, b) = unfixed
    g = math.gcd(a, b)
    modulus = abs(b // g)
    if modulus == 1:
        return False
    target = residual // g * pow(a // g, -1, modulus) % modulus
    lo, hi = bounds[u]
    new_lo = lo + (target - lo) % modulus
    new_hi = hi - (hi - target) % modulus
    if new_lo > new_hi:
        raise ProvenInfeasible(f"box of {u!r} holds no lattice point")
    if (new_lo, new_hi) == (lo, hi):
        return False
    bounds[u] = (new_lo, new_hi)
    return True


def _activity(con: Constraint, bounds: dict[str, tuple[int, int]]) -> tuple[int, int]:
    """The least and greatest value of the row's left-hand side over the boxes."""
    min_act = 0
    max_act = 0
    for name, c in con.coeffs.items():
        lo, hi = bounds[name]
        if c >= 0:
            min_act += c * lo
            max_act += c * hi
        else:
            min_act += c * hi
            max_act += c * lo
    return min_act, max_act


def _propagate(program: IntegerProgram, bounds: dict[str, tuple[int, int]]) -> None:
    """Tighten ``bounds`` in place to a propagation fixpoint.

    Uses interval arithmetic on each constraint plus a gcd divisibility cut
    on equalities.  On an equality with exactly two unfixed variables it
    also rounds the first one's box to the row's solution lattice
    (``_lattice_step``); interval passes alone reach the same fixpoint but
    move the two boxes by about |a - b| per pass.  Never removes an integer
    point satisfying all constraints.  Raises ProvenInfeasible when a box
    empties or a cut fails.
    """
    changed = True
    while changed:
        changed = False
        for con in program.constraints:
            if con.relation == EQ:
                unfixed = [(name, c) for name, c in con.coeffs.items()
                           if c and bounds[name][0] != bounds[name][1]]
                fixed_part = sum(c * bounds[name][0]
                                 for name, c in con.coeffs.items()
                                 if bounds[name][0] == bounds[name][1])
                residual = con.rhs - fixed_part
                if not unfixed:
                    if residual != 0:
                        raise ProvenInfeasible("equality violated by fixed variables")
                    continue
                g = math.gcd(*[c for _, c in unfixed])
                if residual % g != 0:
                    raise ProvenInfeasible("divisibility cut on equality")
                if len(unfixed) == 2 and _lattice_step(bounds, unfixed, residual):
                    changed = True

            # Treat as one or two one-sided forms: sum <= rhs and/or sum >= rhs.
            min_act, max_act = _activity(con, bounds)
            upper_side = con.relation in (LE, EQ)
            lower_side = con.relation in (GE, EQ)
            if upper_side and min_act > con.rhs:
                raise ProvenInfeasible("minimum activity exceeds bound")
            if lower_side and max_act < con.rhs:
                raise ProvenInfeasible("maximum activity below bound")

            for name, c in con.coeffs.items():
                if c == 0:
                    continue
                lo, hi = bounds[name]
                if upper_side:
                    # c*x <= rhs - min activity of the other terms
                    others = min_act - (c * lo if c > 0 else c * hi)
                    room = con.rhs - others
                    if c > 0:
                        new_hi = room // c
                        if new_hi < hi:
                            hi = new_hi
                    else:
                        new_lo = _ceil_div(room, c)
                        if new_lo > lo:
                            lo = new_lo
                if lower_side:
                    # c*x >= rhs - max activity of the other terms
                    others = max_act - (c * hi if c > 0 else c * lo)
                    need = con.rhs - others
                    if c > 0:
                        new_lo = _ceil_div(need, c)
                        if new_lo > lo:
                            lo = new_lo
                    else:
                        new_hi = need // c
                        if new_hi < hi:
                            hi = new_hi
                if lo > hi:
                    raise ProvenInfeasible(f"box of {name!r} emptied")
                if (lo, hi) != bounds[name]:
                    bounds[name] = (lo, hi)
                    changed = True


def propagate_bounds(program: IntegerProgram) -> IntegerProgram:
    """Return an equivalent program with boxes tightened to a fixpoint."""
    program.validate()
    bounds = {name: (lo, hi) for name, lo, hi in program.variables}
    _propagate(program, bounds)
    variables = tuple((name, *bounds[name]) for name, _, _ in program.variables)
    return IntegerProgram(variables=variables, constraints=program.constraints)


def _equalities_consistent(program: IntegerProgram) -> bool:
    """Whether the equality rows have a rational solution, ignoring boxes.

    Fraction-free Gaussian elimination over sparse integer rows, with the
    right-hand side carried along and each row divided by its gcd; the
    equalities are inconsistent exactly when a row reduces to ``0 = r`` with
    r != 0.
    """
    pivots: list[tuple[str, dict[str, int], int]] = []
    for con in program.constraints:
        if con.relation != EQ:
            continue
        row = {name: c for name, c in con.coeffs.items() if c}
        rhs = con.rhs
        for var, prow, prhs in pivots:
            c = row.get(var)
            if not c:
                continue
            p = prow[var]
            row = {name: p * c_row for name, c_row in row.items()}
            for name, c_piv in prow.items():
                value = row.get(name, 0) - c * c_piv
                if value:
                    row[name] = value
                else:
                    row.pop(name, None)
            rhs = p * rhs - c * prhs
            g = math.gcd(rhs, *row.values())
            if g > 1:
                row = {name: value // g for name, value in row.items()}
                rhs //= g
        if row:
            pivots.append((next(iter(row)), row, rhs))
        elif rhs != 0:
            return False
    return True


def _branch_variable(order: list[str],
                     bounds: dict[str, tuple[int, int]]) -> Optional[str]:
    """The unfixed variable with the narrowest box, ties by declaration order."""
    branch_var = None
    branch_width = None
    for name in order:
        lo, hi = bounds[name]
        if lo == hi:
            continue
        width = hi - lo
        if branch_width is None or width < branch_width:
            branch_var = name
            branch_width = width
    return branch_var


def _equality_rows(program: IntegerProgram) -> dict[str, list[Constraint]]:
    """The equality rows each variable has a nonzero coefficient in."""
    rows: dict[str, list[Constraint]] = {}
    for con in program.constraints:
        if con.relation == EQ:
            for name, c in con.coeffs.items():
                if c:
                    rows.setdefault(name, []).append(con)
    return rows


def _first_value(bounds: dict[str, tuple[int, int]], name: str,
                 rows: list[Constraint]) -> int:
    """The value a branch on ``name`` tries first: its proportional share.

    An equality row whose left-hand side ranges over [min, max] at these
    bounds puts its right-hand side at the fraction (rhs - min) / (max - min)
    of that range; the row's point for ``name`` is the same fraction of its
    box, floored, counted from the low end for a positive coefficient and
    from the high end for a negative one.  The first value is the smallest
    point over the rows, or the low end when ``name`` is in no equality row.
    ``name`` is unfixed and has a nonzero coefficient in each row, so
    max > min; the bounds are at a propagation fixpoint, so min <= rhs <= max
    and every point lies in the box.
    """
    lo, hi = bounds[name]
    first = None
    for con in rows:
        min_act, max_act = _activity(con, bounds)
        share = (hi - lo) * (con.rhs - min_act) // (max_act - min_act)
        point = lo + share if con.coeffs[name] > 0 else hi - share
        if first is None or point < first:
            first = point
    return lo if first is None else first


def solve_feasibility(program: IntegerProgram,
                      budget: Optional[int] = None) -> Optional[Assignment]:
    """Decide feasibility over the boxes; return a witness or None.

    Complete over the box product: a None verdict means no integer point in
    the boxes satisfies all constraints.  Before root propagation, a program
    with two or more equalities is rejected at once when the equalities have
    no rational solution; interval passes alone would shave such boxes one
    unit per pass.  The search is depth-first on the variable with the
    narrowest current box (ties by declaration order), with propagation and
    divisibility cuts at every node, so the witness is deterministic.  A
    branch tries the variable's proportional share of its equality rows
    first (``_first_value``), then alternates outward (v0, v0+1, v0-1,
    v0+2, ...) until both ends of the box are used up; a variable in no
    equality row starts at the low end, so it takes its values in
    increasing order.  The search runs on an explicit stack of frames
    (bounds, branch variable, first value, up cursor, down cursor), one
    frame per branched variable.

    Spends one unit of ``budget`` (None: no cap) per search node: the root
    and every child whose box is fixed to a branch value, before it is
    propagated.  Raises BudgetExceeded when it is spent before a verdict.
    """
    program.validate()
    cap = math.inf if budget is None else budget
    nodes = 1
    if nodes > cap:
        raise BudgetExceeded(f"node cap {budget} exceeded")
    if (sum(con.relation == EQ for con in program.constraints) >= 2
            and not _equalities_consistent(program)):
        return None
    bounds = {name: (lo, hi) for name, lo, hi in program.variables}
    try:
        _propagate(program, bounds)
    except ProvenInfeasible:
        return None
    order = program.variable_names()
    # Built at the first branch: most programs are decided at the root.
    rows_of: Optional[dict[str, list[Constraint]]] = None

    stack: list[list] = []
    node: Optional[dict[str, tuple[int, int]]] = bounds
    while True:
        if node is not None:
            branch_var = _branch_variable(order, node)
            if branch_var is None:
                values = {name: node[name][0] for name in order}
                if satisfies(program, values):
                    return Assignment(values=values, nodes=nodes)
            else:
                if rows_of is None:
                    rows_of = _equality_rows(program)
                first = _first_value(node, branch_var, rows_of.get(branch_var, []))
                stack.append([node, branch_var, first, first, first - 1])
            node = None
        if not stack:
            return None
        frame = stack[-1]
        parent, branch_var, first, up, down = frame
        lo, hi = parent[branch_var]
        if up <= hi and (down < lo or up - first <= first - down):
            value = up
            frame[3] = up + 1
        elif down >= lo:
            value = down
            frame[4] = down - 1
        else:
            stack.pop()
            continue
        nodes += 1
        if nodes > cap:
            raise BudgetExceeded(f"node cap {budget} exceeded")
        child = dict(parent)
        child[branch_var] = (value, value)
        try:
            _propagate(program, child)
        except ProvenInfeasible:
            continue
        node = child


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
