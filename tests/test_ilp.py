"""Feasibility engine: worked examples, propagation, and corpus properties."""

import hashlib
import json
import math
import operator
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

import knapsacks
from varsolve import census_solvers, ilp, variety
from varsolve.corpus import (FAMILIES, _machine_census, enumerate_feasibility, make_rng,
                             random_program)
from varsolve.ilp import (BudgetExceeded, Constraint, IntegerProgram,
                          MalformedProgram, ProvenInfeasible, dump_program,
                          satisfies, solve_feasibility)


def program(variables, constraints):
    return IntegerProgram(tuple(variables),
                          tuple(Constraint(c, r, b) for c, r, b in constraints))


# A one-row program with four unfixed variables that the value-by-value
# search decides YES only at node 46: the kernel lattice takes it over.
SWITCHED = IntegerProgram((("x1", 0, 9), ("x2", 0, 7), ("x3", 0, 7), ("x4", 0, 7)),
                          (Constraint({"x1": 47, "x2": 12, "x3": 41, "x4": 38}, "=", 527),))
# The witness the value-by-value search gives it.
UNSWITCHED = ({"x1": 0, "x2": 1, "x3": 7, "x4": 6}, 46)


def propagated(p):
    """The boxes of p at its propagation fixpoint, as (name, lo, hi) triples;
    raises ProvenInfeasible when propagation refutes p."""
    boxes = ilp._Boxes(p)
    boxes.propagate()
    return tuple([(name, lo, hi) for (name, _, _), lo, hi
                  in zip(p.variables, boxes.lo, boxes.hi)])


def test_unique_solution():
    p = program([("x", 0, 2)], [({"x": 3}, "=", 6)])
    assert solve_feasibility(p).values == {"x": 2}


def test_node_budget(monkeypatch):
    # 29 is the largest sum 6, 10 and 15 cannot make: the root and two
    # children refute it, so a cap of two nodes runs out first.
    no = program([("x", 0, 20), ("y", 0, 20), ("z", 0, 20)],
                 [({"x": 6, "y": 10, "z": 15}, "=", 29)])
    with pytest.raises(BudgetExceeded):
        solve_feasibility(no, budget=2)
    assert solve_feasibility(no, budget=3) is None
    yes = program([("x", 0, 20), ("y", 0, 20), ("z", 0, 20)],
                  [({"x": 6, "y": 10, "z": 15}, "=", 101)])
    witness = solve_feasibility(yes)
    assert witness.nodes > 1
    assert solve_feasibility(yes, budget=10**6) == witness
    with pytest.raises(BudgetExceeded):
        solve_feasibility(yes, budget=witness.nodes - 1)
    # The kernel lattice search gets the budget the first search left, the
    # witness counts the nodes of both, and a cap hit in the second search
    # is reported as the caller's.
    calls = knapsacks.lattice_calls(monkeypatch)
    witness = solve_feasibility(SWITCHED)
    assert len(calls) == 1 and calls[0][2] == ilp._LATTICE_SWITCH
    assert satisfies(SWITCHED, witness.values)
    assert ilp._LATTICE_SWITCH < witness.nodes < UNSWITCHED[1]
    assert solve_feasibility(SWITCHED, budget=witness.nodes) == witness
    for cap in (witness.nodes - 1, ilp._LATTICE_SWITCH, ilp._LATTICE_SWITCH - 1):
        with pytest.raises(BudgetExceeded) as info:
            solve_feasibility(SWITCHED, budget=cap)
        assert str(info.value) == f"node cap {cap} exceeded"


def test_empty_box_against_lower_bound():
    p = program([("x", 0, 0)], [({"x": 1}, ">=", 1)])
    assert solve_feasibility(p) is None


def test_two_value_selection_program():
    # Independent oracle: enumerate x1 in 0..2, x2 in 0..1 for 3*x1+5*x2=11.
    expected = [(x1, x2) for x1 in range(3) for x2 in range(2)
                if 3 * x1 + 5 * x2 == 11]
    assert expected == [(2, 1)]
    p = program([("x1", 0, 2), ("x2", 0, 1)], [({"x1": 3, "x2": 5}, "=", 11)])
    assert solve_feasibility(p).values == {"x1": 2, "x2": 1}


def test_malformed_box_rejected():
    p = program([("x", 3, 1)], [])
    with pytest.raises(MalformedProgram):
        solve_feasibility(p)


def test_undeclared_coefficient_rejected():
    p = program([("x", 0, 1)], [({"y": 1}, "<=", 1)])
    with pytest.raises(MalformedProgram):
        solve_feasibility(p)


@pytest.mark.parametrize("variables, constraints, message", [
    ([("x", 0, 1), ("x", 0, 2)], [], "duplicate variable 'x'"),
    ([("x", 3, 1)], [], "variable 'x' has empty box [3, 1]"),
    ([("x", 0, 1)], [({"x": 1}, "<", 1)], "unknown relation '<'"),
    ([("x", 0, 1)], [({"x": 1, "y": 0}, ">=", 1)],
     "coefficient on undeclared variable 'y'"),
], ids=["solve_feasibility-duplicate", "solve_feasibility-empty-box",
        "solve_feasibility-relation", "solve_feasibility-undeclared-zero-coefficient"])
def test_malformed_program_messages(variables, constraints, message):
    with pytest.raises(MalformedProgram) as info:
        solve_feasibility(program(variables, constraints))
    assert str(info.value) == message


def test_leaf_failing_the_recheck_is_an_engine_fault(monkeypatch):
    # Propagation fixes every box only to a point that meets every row, so a
    # failed re-check must not be passed over, which could end in a wrong NO.
    monkeypatch.setattr(ilp, "satisfies", lambda program, values: False)
    with pytest.raises(AssertionError):
        solve_feasibility(program([("x", 0, 2)], [({"x": 3}, "=", 6)]))


def test_empty_program_constant_constraints():
    assert solve_feasibility(program([], [])).values == {}
    holds = {"<=": lambda rhs: 0 <= rhs, "=": lambda rhs: 0 == rhs,
             ">=": lambda rhs: 0 >= rhs}
    for relation, meets in holds.items():
        for rhs in (-1, 0, 1):
            for variables in ([], [("x", 0, 3)]):
                p = program(variables, [({}, relation, rhs)])
                assert (solve_feasibility(p) is not None) == meets(rhs), (relation, rhs)


def test_propagation_tightens_sum():
    p = program([("x", 0, 10), ("y", 0, 10)], [({"x": 1, "y": 1}, "=", 3)])
    assert propagated(p) == (("x", 0, 3), ("y", 0, 3))


def test_propagation_divisibility_cut():
    p = program([("x", 0, 5)], [({"x": 2}, "=", 7)])
    with pytest.raises(ProvenInfeasible):
        propagated(p)


def test_propagation_fixpoint_pins_both_variables():
    # Hand-checkable: the only point of [0,4]^2 with x-y=0 and x+y=8 is (4,4).
    points = [(x, y) for x in range(5) for y in range(5)
              if x - y == 0 and x + y == 8]
    assert points == [(4, 4)]
    p = program([("x", 0, 4), ("y", 0, 4)],
                [({"x": 1, "y": -1}, "=", 0), ({"x": 1, "y": 1}, "=", 8)])
    assert propagated(p) == (("x", 4, 4), ("y", 4, 4))


def test_propagation_never_removes_solutions():
    rng = make_rng(7)
    for _ in range(200):
        p = random_program(rng)
        try:
            tightened = propagated(p)
        except ProvenInfeasible:
            assert enumerate_feasibility(p) is None
            continue
        boxes = {name: (lo, hi) for name, lo, hi in tightened}
        point = enumerate_feasibility(p)
        if point is not None:
            for name, value in point.items():
                lo, hi = boxes[name]
                assert lo <= value <= hi
        # Same feasible verdict after tightening.
        narrowed = p._replace(variables=tightened)
        assert (enumerate_feasibility(narrowed) is None) == (point is None)


def test_corpus_soundness_and_completeness():
    assert FAMILIES["ilp"](42, 1000) == 1000


def test_determinism():
    rng = make_rng(11)
    for _ in range(50):
        p = random_program(rng)
        first = solve_feasibility(p)
        second = solve_feasibility(p)
        if first is None:
            assert second is None
        else:
            assert first.values == second.values
            assert satisfies(p, first.values)


# The sha256 of every (witness values, node count) the search below gives,
# with exists-word programs on the states a walk from the start reaches; a
# change that only speeds propagation up must leave it as it is.
SEARCH_DIGEST = "f9d99a654685ed07ddea5ef99b60e3c170ab2583e4696b5772c3154f16c14ec1"


def test_search_is_pinned(monkeypatch):
    def outcome(call):
        try:
            witness = call()
        except BudgetExceeded as exc:
            return ["budget", str(exc)]
        return None if witness is None else [sorted(witness.values.items()), witness.nodes]

    records = []
    for seed in (1, 2, 3):
        rng = make_rng(seed)
        for _ in range(300):
            p = random_program(rng)
            records.append(outcome(lambda: solve_feasibility(p)))

    def recording(p, budget=None, cut=None):
        # Record the engine's answer; the exists-word solver then sees None.
        record = outcome(lambda: solve_feasibility(p, budget, cut))
        records.append(record)
        if record and record[0] == "budget":
            raise BudgetExceeded(record[1])
        return None

    monkeypatch.setattr(census_solvers, "solve_feasibility", recording)
    rng = make_rng(1)
    for _ in range(300):
        m, c = _machine_census(rng)
        for budget in (None, 3):
            try:
                census_solvers.solve_ewmm(m, c, budget=budget)
            except BudgetExceeded:
                pass
    assert sum(record is not None and record[0] == "budget" for record in records) > 10
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == SEARCH_DIGEST


def test_dump_format():
    p = program([("x1", 0, 2), ("x2", 0, 1)],
                [({"x1": 3, "x2": 5}, "<=", 11), ({"x1": 1, "x2": -2}, ">=", -1)])
    # The engine stores the >= row negated; the program keeps it as written.
    assert solve_feasibility(p) is not None
    assert dump_program(p).splitlines() == [
        "0 <= x1 <= 2",
        "0 <= x2 <= 1",
        "3*x1 + 5*x2 <= 11",
        "1*x1 + -2*x2 >= -1",
    ]


def test_rank_check_rejects_inconsistent_equalities():
    # Propagation leaves every box at [0, 1000], and the search alone would
    # fix about four variables before a box empties, some 10**12 nodes; the
    # two rows have no rational solution together.
    names = [f"x{i}" for i in range(6)]
    row = {name: 1 for name in names}
    boxes = [(name, 0, 1000) for name in names]
    assert solve_feasibility(program(boxes, [(row, "=", 3000),
                                             (row, "=", 3001)])) is None
    witness = solve_feasibility(program(boxes, [(row, "=", 3000),
                                                (row, "=", 3000)]))
    assert [witness[name] for name in names] == [500] * 6


def test_rank_check_runs_before_propagation():
    # Each row has coefficients +-1, so interval passes would shave the boxes
    # one unit per pass, some 10**9 passes; the rows are inconsistent.
    p = program([(name, 0, 10**9) for name in "xyz"],
                [({"x": 1, "y": -1}, "=", 0), ({"y": 1, "z": -1}, "=", 0),
                 ({"x": 1, "z": -1}, "=", 1)])
    start = time.perf_counter()
    assert solve_feasibility(p) is None
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("rows, consistent", [
    # A -1 pivot: x - y = 1 adds -x + y = 0 to reach 0 = 1.
    ([({"x": -1, "y": 1}, "=", 0), ({"x": 1, "y": -1}, "=", 1)], False),
    # The second row pivots on its +-1 term y, not its first term x; the
    # third row is the first minus twice the second.
    ([({"x": 2, "z": 1}, "=", 3), ({"x": 2, "y": -1}, "=", 1),
      ({"x": -2, "y": 2, "z": 1}, "=", 1)], True),
    ([({"x": 2, "z": 1}, "=", 3), ({"x": 2, "y": -1}, "=", 1),
      ({"x": -2, "y": 2, "z": 1}, "=", 2)], False),
    # Only non-unit pivots: 2x + 4y = 6 and 3x + 6y = 10 (x + 2y is 3, not 10/3).
    ([({"x": 2, "y": 4}, "=", 6), ({"x": 3, "y": 6}, "=", 10)], False),
    ([({"x": 2, "y": 4}, "=", 6), ({"x": 3, "y": 6}, "=", 9)], True),
])
def test_rank_check_pivots(rows, consistent):
    p = program([(name, -9, 9) for name in "xyz"], rows)
    assert ilp._equalities_consistent(ilp._Boxes(p).rows) is consistent
    assert rationally_consistent(p) is consistent


def rationally_consistent(p):
    """Reference rank check: Gauss-Jordan elimination over Fractions on the
    equality rows; inconsistent exactly when a row reduces to 0 = r, r != 0."""
    names = [name for name, _, _ in p.variables]
    rows = [[Fraction(con.coeffs.get(name, 0)) for name in names] + [Fraction(con.rhs)]
            for con in p.constraints if con.relation == "="]
    done = 0
    for col in range(len(names)):
        pivot = next((i for i in range(done, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[done], rows[pivot] = rows[pivot], rows[done]
        for i in range(len(rows)):
            if i != done and rows[i][col]:
                factor = rows[i][col] / rows[done][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[done])]
        done += 1
    return all(row[-1] == 0 for row in rows[done:])


@st.composite
def equality_systems(draw):
    """Equality rows over up to five variables, each with coefficients from
    one pool: +-1 only, no +-1 at all, or any in [-4, 4].  One row is an
    integer combination of the others, its right-hand side kept or shifted
    by 1, and a ``<=`` row the check must ignore may follow."""
    names = [f"x{i}" for i in range(draw(st.integers(1, 5)))]
    pools = (st.sampled_from((-1, 0, 1)), st.sampled_from((-3, -2, 0, 2, 3, 6)),
             st.integers(-4, 4))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        coeff = draw(st.sampled_from(pools))
        rows.append(({name: draw(coeff) for name in names}, "=", draw(st.integers(-6, 6))))
    weights = [draw(st.integers(-2, 2)) for _ in rows]
    combined = {name: sum(w * row[0][name] for w, row in zip(weights, rows))
                for name in names}
    rhs = sum(w * row[2] for w, row in zip(weights, rows)) + draw(st.integers(0, 1))
    rows.insert(draw(st.integers(0, len(rows))), (combined, "=", rhs))
    if draw(st.booleans()):
        rows.append(({name: 1 for name in names}, draw(st.sampled_from(("<=", ">="))), -1))
    return program([(name, 0, 1) for name in names], rows)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(equality_systems())
def test_rank_check_matches_fraction_elimination(p):
    assert ilp._equalities_consistent(ilp._Boxes(p).rows) == rationally_consistent(p)


@st.composite
def cover_systems(draw):
    """Equality rows shaped like ``variety._cover_program``'s: three groups
    of 3-8 entries, one row per entry and one variable per triple, whose
    coefficient in a row is the number of the triple's slots holding that
    entry.  Some triples stay inside one group and hold an entry two or
    three times, as in 3-partition.  Each right-hand side is its entry's use
    under random triple counts, so the rows are consistent, unless one of
    them is shifted by 1."""
    sizes = [draw(st.integers(3, 8)) for _ in range(3)]
    triples = []
    for _ in range(draw(st.integers(1, 16))):
        if draw(st.integers(0, 3)):
            triples.append([(g, draw(st.integers(0, size - 1))) for g, size in enumerate(sizes)])
        else:
            g = draw(st.integers(0, 2))
            entry = (g, draw(st.integers(0, sizes[g] - 1)))
            repeats = draw(st.integers(2, 3))
            triples.append([entry] * repeats
                           + [(g, draw(st.integers(0, sizes[g] - 1)))] * (3 - repeats))
    rows = {}
    for t, slots in enumerate(triples):
        for slot in slots:
            row = rows.setdefault(slot, {})
            row[f"t{t}"] = row.get(f"t{t}", 0) + 1
    counts = [draw(st.integers(0, 3)) for _ in triples]
    rhs = {slot: sum(counts[int(name[1:])] * c for name, c in row.items())
           for slot, row in rows.items()}
    if draw(st.booleans()):
        rhs[draw(st.sampled_from(sorted(rows)))] += 1
    return program([(f"t{t}", 0, 3) for t in range(len(triples))],
                   [(rows[slot], "=", rhs[slot]) for slot in sorted(rows)])


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(cover_systems())
def test_rank_check_matches_fraction_elimination_on_cover_programs(p):
    assert ilp._equalities_consistent(ilp._Boxes(p).rows) == rationally_consistent(p)


def seeded_cover_program(seed):
    """A ``variety.num3dm_program`` over 4-12 values per source.

    A and B take k distinct values from [0, 2k) and are paired one to one,
    C takes the value that completes each pair to 4k, and k more copies of
    random pairs set the multiplicities, so the rows are consistent; an odd
    seed then adds one more copy of an A value, which leaves A's total
    unequal to B's.
    """
    rng = make_rng(seed)
    k = rng.randint(4, 12)
    pairs = list(zip(rng.sample(range(2 * k), k), rng.sample(range(2 * k), k)))
    pairs += [rng.choice(pairs) for _ in range(k)]
    columns = [[a for a, _ in pairs], [b for _, b in pairs], [4 * k - a - b for a, b in pairs]]
    if seed % 2:
        columns[0].append(columns[0][0])
    return variety.num3dm_program(*map(variety.Multiset.from_values, columns), 4 * k)


def test_rank_check_verdict_does_not_depend_on_row_order():
    # The check eliminates the rows shortest first; a rational solution
    # exists or not whatever the order, so the compiled rows, their reverse
    # and a shuffle must all give the Fraction reference's verdict.
    verdicts = set()
    for seed in range(24):
        rng = make_rng(seed)
        cover = seeded_cover_program(seed)
        for p in [random_program(rng) for _ in range(10)] + [cover]:
            rows = ilp._Boxes(p).rows
            shuffled = list(rows)
            rng.shuffle(shuffled)
            verdict = rationally_consistent(p)
            for order in (rows, rows[::-1], shuffled):
                assert ilp._equalities_consistent(order) == verdict
        verdicts.add(verdict)  # the cover program's, which comes last
    assert verdicts == {True, False}


def test_row_whose_widest_span_fits_its_slack_narrows_nothing():
    # x + y <= 6 at the boxes x in [0, 6], y in [0, 2]: the slack is 6 and
    # x's span is 6, so no box moves; with x in [0, 7] the span is one more
    # than the slack, and x's top comes down to 6.
    row = [({"x": 1, "y": 1}, "<=", 6)]
    fits = program([("x", 0, 6), ("y", 0, 2)], row)
    assert propagated(fits) == fits.variables
    wider = program([("x", 0, 7), ("y", 0, 2)], row)
    assert propagated(wider) == (("x", 0, 6), ("y", 0, 2))
    # x + y + z = 4 at the boxes [0, 2] has slack 4 (4 - min) and surplus 2
    # (max - 4), and every span is 2, so no box moves; with x in [-1, 2]
    # x's span is one more than the surplus, and x's bottom goes up to 0.
    row = [({"x": 1, "y": 1, "z": 1}, "=", 4)]
    fits = program([("x", 0, 2), ("y", 0, 2), ("z", 0, 2)], row)
    assert propagated(fits) == fits.variables
    wider = program([("x", -1, 2), ("y", 0, 2), ("z", 0, 2)], row)
    assert propagated(wider) == fits.variables


def test_unit_row_fixed_to_a_wrong_sum_is_infeasible():
    p = program([("x", 1, 1), ("y", 2, 2), ("z", 0, 0)],
                [({"x": 1, "y": -1, "z": 1}, "=", 0)])
    with pytest.raises(ProvenInfeasible):
        propagated(p)


def test_row_with_a_coefficient_of_two_keeps_the_divisibility_cut():
    # With y fixed at 2 the row reads 2x - 2z = 5: intervals and the lattice
    # step leave x and z in [0, 10], and only the gcd cut refutes it.
    p = program([("x", 0, 10), ("y", 2, 2), ("z", 0, 10)],
                [({"x": 2, "y": 1, "z": -2}, "=", 7)])
    with pytest.raises(ProvenInfeasible, match="divisibility"):
        propagated(p)


# 1000000*x + 999999*y = r has the one solution (500001, 333332) in
# [0, 10**6]^2; interval passes alone move the boxes about one unit per pass.
LATTICE_ROW = ({"x": 1000000, "y": 999999}, "=", 1000000 * 500001 + 999999 * 333332)


def test_lattice_step_pins_two_variable_row():
    p = program([("x", 0, 10**6), ("y", 0, 10**6)], [LATTICE_ROW])
    start = time.perf_counter()
    assert propagated(p) == (("x", 500001, 500001), ("y", 333332, 333332))
    assert time.perf_counter() - start < 1.0


def test_lattice_step_refutes_boxed_row():
    p = program([("x", 0, 500000), ("y", 0, 10**6)], [LATTICE_ROW])
    start = time.perf_counter()
    with pytest.raises(ProvenInfeasible):
        propagated(p)
    assert time.perf_counter() - start < 1.0


def test_program_without_equalities_keeps_increasing_order():
    # No equality row gives a proportional point, so every branch starts at
    # the low end of its box and the witness is the first point in
    # increasing order.
    p = program([("x", 0, 9), ("y", 0, 9), ("z", 0, 9)],
                [({"x": 1, "y": 1, "z": 1}, ">=", 14),
                 ({"x": 2, "y": -1}, "<=", 3),
                 ({"y": 1, "z": -3}, ">=", -10)])
    assert solve_feasibility(p).values == {"x": 0, "y": 8, "z": 6}


def test_branch_starts_at_smallest_proportional_point():
    # Propagation leaves x in [0, 7], y in [1, 3], z in [1, 7], and the
    # search branches on y, the narrowest box.  Its first row's right-hand
    # side sits at 7/17 of the row's range [3, 20], which puts y at
    # 1 + floor(2 * 7/17) = 1; the second row's, at 6/12 of [4, 16], puts it
    # at 2.  The smaller point is tried first, and it is feasible.
    p = program([("x", 0, 9), ("y", 0, 3), ("z", 0, 7)],
                [({"x": 1, "y": 2, "z": 1}, "=", 10),
                 ({"y": 3, "z": 1}, "=", 10)])
    assert solve_feasibility(p).values == {"x": 1, "y": 1, "z": 7}
    # x - 2z = 5 leaves x in {5, 7} and z in [0, 1]; z, with a negative
    # coefficient, counts its share floor(1 * 2/4) = 0 down from its top.
    p = program([("x", 0, 7), ("y", 0, 7), ("z", 0, 1)],
                [({"x": 1, "z": -2}, "=", 5)])
    assert solve_feasibility(p).values == {"x": 7, "y": 0, "z": 1}


def test_search_deeper_than_recursion_limit(monkeypatch):
    # 1,100 branching levels: one frame per level on an explicit stack.  The
    # +-1 row stays in the value search, which its activity range decides,
    # and never pays for an LLL reduction of 1,099 kernel vectors.
    calls = knapsacks.lattice_calls(monkeypatch)
    names = [f"x{i}" for i in range(1100)]
    p = program([(name, 0, 1) for name in names],
                [({name: 1 for name in names}, "=", 1)])
    start = time.perf_counter()
    witness = solve_feasibility(p)
    assert time.perf_counter() - start < 1.0
    assert [name for name in names if witness[name]] == [names[-1]]
    assert witness.nodes == 1100 and calls == []


def test_row_wider_than_the_lattice_gate_stays_in_the_value_search(monkeypatch):
    # The same 1,100 levels with coefficient 2: not a +-1 row, and past 32
    # nodes, but an LLL reduction of 1,099 kernel vectors, which no budget
    # bounds, would take minutes.  The row stays in the value search.
    calls = knapsacks.lattice_calls(monkeypatch)
    names = [f"x{i}" for i in range(1100)]
    p = program([(name, 0, 1) for name in names],
                [({name: 2 for name in names}, "=", 2)])
    start = time.perf_counter()
    witness = solve_feasibility(p)
    assert time.perf_counter() - start < 1.0
    assert [name for name in names if witness[name]] == [names[-1]]
    assert witness.nodes == 1100 and calls == []


def test_cut_or_second_row_stays_in_the_value_search(monkeypatch):
    # Only a one-row program with no cut moves to the kernel lattice.
    calls = knapsacks.lattice_calls(monkeypatch)
    extra = Constraint({"x1": 1}, "<=", 9)
    for witness in (solve_feasibility(SWITCHED, cut=lambda values: None),
                    solve_feasibility(with_rows(SWITCHED, [extra]))):
        assert (witness.values, witness.nodes) == UNSWITCHED
    assert calls == []


def test_inequality_row_stays_in_the_value_search(monkeypatch):
    # A `<=` row's solutions fill a half-space, not a kernel lattice; this
    # search walks down 40 variables at their low ends to its leaf.
    calls = knapsacks.lattice_calls(monkeypatch)
    names = [f"x{i}" for i in range(40)]
    p = program([(name, 0, 3) for name in names], [({name: 2 for name in names}, "<=", 7)])
    witness = solve_feasibility(p)
    assert witness.values == {name: 0 for name in names} and witness.nodes == 41
    assert calls == []


def test_three_unfixed_variables_stay_in_the_value_search(monkeypatch):
    # With three variables one branch leaves two, and the two-variable
    # lattice step decides each child, so past 32 nodes the search goes on.
    calls = knapsacks.lattice_calls(monkeypatch)
    p = program([("x1", 0, 47), ("x2", 0, 46), ("x3", 0, 48), ("x4", 5, 5)],
                [({"x1": 363, "x2": 386, "x3": 193, "x4": 1}, "=", 22045)])
    with pytest.raises(BudgetExceeded):
        solve_feasibility(p, budget=ilp._LATTICE_SWITCH)
    assert solve_feasibility(p) is None
    assert calls == []


def test_lattice_point_failing_the_recheck_is_an_engine_fault(monkeypatch):
    # The point the kernel lattice gives is re-checked on the original row.
    monkeypatch.setattr(ilp, "_kernel_search", lambda *args: ([0, 0, 0, 0], 1))
    with pytest.raises(AssertionError):
        solve_feasibility(SWITCHED)


@pytest.mark.parametrize("k, scale", [(8, 10**4), (8, 10**5), (8, 10**6), (8, 10**7),
                                      (10, 10**5)])
def test_hard_knapsack_is_decided_in_the_kernel_lattice(monkeypatch, k, scale):
    a, target = knapsacks.family(k, scale)
    calls = knapsacks.lattice_calls(monkeypatch)
    start = time.perf_counter()
    assert variety.solve_subset_sum(a, target) is None
    assert time.perf_counter() - start < 1.0
    assert len(calls) == 1


@pytest.mark.parametrize("k, scale", [(8, 10**4), (8, 10**5), (8, 10**6), (10, 10**5)])
def test_pinned_knapsack_target_is_the_nearest_unreachable_sum(k, scale):
    # The k = 8 target near 10^7 is pinned too; its bitset is too dear to
    # rebuild on every run.
    a, target = knapsacks.family(k, scale)
    assert knapsacks.nearest_unreachable(a) == target


@st.composite
def one_rows(draw):
    """A row of 3 to 6 coefficients, some of them zero or negative, not all
    zero, with a box per variable that may reach below zero and a right-hand
    side at or next to the row's value at a point of the boxes."""
    n = draw(st.integers(3, 6))
    coeffs = draw(st.lists(st.sampled_from((0, 1, -1, 2, -3, 7, -12, 30, 45, -58)),
                           min_size=n, max_size=n).filter(any))
    lo = [draw(st.integers(-6, 3)) for _ in range(n)]
    hi = [low + draw(st.integers(0, 6)) for low in lo]
    point = [draw(st.integers(low, high)) for low, high in zip(lo, hi)]
    shift = draw(st.sampled_from((0, 0, 1, -1, 5)))
    return coeffs, sum(map(operator.mul, coeffs, point)) + shift, lo, hi


def gram_det(basis):
    """The Gram determinant of ``basis``, by Fraction elimination."""
    gram = [[Fraction(sum(map(operator.mul, u, v))) for v in basis] for u in basis]
    det = Fraction(1)
    for p in range(len(gram)):
        det *= gram[p][p]
        for i in range(p + 1, len(gram)):
            factor = gram[i][p] / gram[p][p]
            gram[i] = [x - factor * y for x, y in zip(gram[i], gram[p])]
    return det


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=8).filter(any))
def test_lll_reduces_the_kernel_basis(coeffs):
    g, u, basis = ilp._kernel(coeffs)
    assert g == math.gcd(*coeffs) and sum(map(operator.mul, coeffs, u)) == g
    det = gram_det(basis)
    reduced = [list(b) for b in basis]
    ilp._lll(reduced)
    # The same lattice: kernel vectors with the same Gram determinant.
    assert all(sum(map(operator.mul, coeffs, b)) == 0 for b in reduced)
    assert gram_det(reduced) == det
    # Size-reduced with |mu| <= 1/2, and Lovasz's condition with delta = 3/4.
    star, norms = [], []
    for b in reduced:
        mu = [sum(map(operator.mul, b, s)) / n for s, n in zip(star, norms)]
        assert all(abs(m) <= Fraction(1, 2) for m in mu)
        v = [Fraction(x) for x in b]
        for m, s in zip(mu, star):
            v = [x - m * y for x, y in zip(v, s)]
        if norms:
            assert sum(x * x for x in v) >= (Fraction(3, 4) - mu[-1] ** 2) * norms[-1]
        star.append(v)
        norms.append(sum(x * x for x in v))


@settings(derandomize=True, database=None, max_examples=1000, deadline=None)
@given(one_rows())
def test_kernel_search_matches_reachable_sums(row):
    coeffs, rhs, lo, hi = row
    sums = {0}
    for c, low, high in zip(coeffs, lo, hi):
        sums = {s + c * x for s in sums for x in range(low, high + 1)}
    found = ilp._kernel_search(coeffs, rhs, lo, hi, None)
    assert (found is not None) == (rhs in sums)
    if found is not None:
        x, _ = found
        assert all(low <= v <= high for v, low, high in zip(x, lo, hi))
        assert sum(map(operator.mul, coeffs, x)) == rhs


def test_child_revisits_only_the_rows_of_its_branch_variable():
    # 1,000 disjoint rows x_i + y_i = 1: the search fixes x_0, ..., x_999 in
    # turn, 1,001 nodes, and each child propagates the one row its branch
    # variable is in, not all 1,000 rows again.
    p = program([(f"{name}{i}", 0, 1) for i in range(1000) for name in "xy"],
                [({f"x{i}": 1, f"y{i}": 1}, "=", 1) for i in range(1000)])
    start = time.perf_counter()
    witness = solve_feasibility(p)
    assert time.perf_counter() - start < 1.0
    assert witness.nodes == 1001
    assert all((witness[f"x{i}"], witness[f"y{i}"]) == (0, 1) for i in range(1000))


@st.composite
def box_programs(draw):
    """Small box programs whose equalities include one integer combination
    of the others, with its right-hand side kept or shifted by 1."""
    names = [f"x{i}" for i in range(draw(st.integers(1, 4)))]
    variables = []
    for name in names:
        lo = draw(st.integers(-3, 3))
        variables.append((name, lo, lo + draw(st.integers(0, 4))))
    point = {name: draw(st.integers(lo, hi)) for name, lo, hi in variables}
    coeff = st.integers(-3, 3)
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        coeffs = {name: draw(coeff) for name in names}
        rhs = sum(c * point[name] for name, c in coeffs.items())
        rows.append((coeffs, "=", rhs + draw(st.sampled_from((0, 0, 1)))))
    weights = [draw(st.integers(-2, 2)) for _ in rows]
    combined = {name: sum(w * row[0][name] for w, row in zip(weights, rows))
                for name in names}
    shift = draw(st.integers(0, 1))
    rhs = sum(w * row[2] for w, row in zip(weights, rows)) + shift
    rows.insert(draw(st.integers(0, len(rows))), (combined, "=", rhs))
    for _ in range(draw(st.integers(0, 2))):
        coeffs = {name: draw(coeff) for name in names}
        rows.append((coeffs, draw(st.sampled_from(("<=", ">="))),
                     draw(st.integers(-10, 10))))
    return program(variables, rows)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(box_programs())
def test_engine_matches_enumeration(p):
    witness = solve_feasibility(p)
    expected = enumerate_feasibility(p)
    assert (witness is None) == (expected is None)
    if witness is not None:
        assert satisfies(p, witness.values)
        for name, lo, hi in p.variables:
            assert lo <= witness[name] <= hi


def fixpoint(boxes):
    """The boxes at the fixpoint of the queued rows, or None when infeasible."""
    try:
        boxes.propagate()
    except ProvenInfeasible:
        return None
    return boxes.lo, boxes.hi


# A search resumes after a cut from its root's fixpoint with only the cut row
# queued, which is sound because the fixpoint of the rows does not depend on
# when they join the queue.  The examples take the gcd cut (2x + 4y is even)
# and the lattice step (2x + 3y = 7 puts x in 2 + 3Z) only once the later
# rows join.
@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.one_of(box_programs(), st.integers(0, 2**32).map(
    lambda seed: random_program(make_rng(seed), 7, 10))), st.integers(0, 5))
@example(program([("x", 0, 10), ("y", 0, 10)],
                 [({"x": 1, "y": 1}, "<=", 8), ({"x": 2, "y": 3}, "=", 7)]), 1)
@example(program([("x", 0, 10), ("y", 0, 10), ("z", 0, 1)],
                 [({"x": 1, "y": -1}, "<=", 3), ({"x": 2, "y": 4, "z": 1}, "=", 7),
                  ({"z": 1}, "=", 0)]), 1)
def test_fixpoint_does_not_depend_on_when_rows_join(p, split):
    whole = fixpoint(ilp._Boxes(p))
    split = min(split, len(p.constraints))
    boxes = ilp._Boxes(IntegerProgram(p.variables, p.constraints[:split]))
    if fixpoint(boxes) is None:
        assert whole is None
        return
    for con in p.constraints[split:]:
        boxes.add(con)
        boxes.queued[-1] = True
        boxes.queue.append(len(boxes.rows) - 1)
    assert fixpoint(boxes) == whole


def at_least(k):
    """A cut that rejects a leaf with x0 < k by the row x0 >= (its x0) + 1,
    and keeps the rows it returned in ``rows``."""
    rows = []

    def cut(values):
        if values["x0"] >= k:
            return None
        rows.append(Constraint({"x0": 1}, ">=", values["x0"] + 1))
        return rows[-1]

    cut.rows = rows
    return cut


def with_rows(p, rows):
    return IntegerProgram(p.variables, p.constraints + tuple(rows))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(box_programs(), st.integers(-3, 8))
def test_cut_matches_enumeration_with_the_cut_row(p, k):
    cut = at_least(k)
    witness = solve_feasibility(p, cut=cut)
    expected = enumerate_feasibility(with_rows(p, [Constraint({"x0": 1}, ">=", k)]))
    assert (witness is None) == (expected is None)
    if witness is not None:
        assert satisfies(p, witness.values) and witness["x0"] >= k
        # The last search is the one a fresh call with every cut row makes.
        assert solve_feasibility(with_rows(p, cut.rows)).values == witness.values


def test_cut_nodes_are_summed_over_the_searches():
    # With no equality row, x0 takes its values in increasing order, so the
    # cut rejects 0, 1 and 2 before the fourth search ends on 3.
    p = program([("x0", 0, 9), ("y", 0, 9)], [({"x0": 1, "y": 1}, "<=", 9)])
    cut = at_least(3)
    witness = solve_feasibility(p, cut=cut)
    assert witness.values == {"x0": 3, "y": 0} and len(cut.rows) == 3
    # Each search costs what a fresh call on the rows so far costs.
    searches = [solve_feasibility(with_rows(p, cut.rows[:n])).nodes
                for n in range(len(cut.rows) + 1)]
    assert witness.nodes == sum(searches)
    assert solve_feasibility(p, budget=witness.nodes, cut=at_least(3)) == witness
    with pytest.raises(BudgetExceeded) as info:
        solve_feasibility(p, budget=witness.nodes - 1, cut=at_least(3))
    assert str(info.value) == f"node cap {witness.nodes - 1} exceeded"


def test_leaf_failing_a_cut_row_is_an_engine_fault(monkeypatch):
    # The re-check covers the cut rows too: the stand-in for ``satisfies``
    # reports the cut row broken, as a propagator that dropped it would.
    cut = at_least(2)
    checked = []

    def meets_no_cut_row(p, values):
        checked.append(p)
        return not any(row in p.constraints for row in cut.rows)

    monkeypatch.setattr(ilp, "satisfies", meets_no_cut_row)
    with pytest.raises(AssertionError):
        solve_feasibility(program([("x0", 0, 3)], []), cut=cut)
    assert [len(p.constraints) for p in checked] == [0, 1]


@st.composite
def two_variable_rows(draw):
    """Rows a*x + b*y + c*z = r with x, y in boxes up to width 30 and z in a
    narrow box, often fixed, so that propagation sees two unfixed variables;
    r comes from a point in the boxes, kept or shifted."""
    widths = (st.integers(0, 30), st.integers(0, 30), st.sampled_from((0, 0, 1, 3)))
    variables = []
    for name, width in zip("xyz", widths):
        lo = draw(st.integers(-15, 15))
        variables.append((name, lo, lo + draw(width)))
    point = {name: draw(st.integers(lo, hi)) for name, lo, hi in variables}
    coeff = st.integers(-12, 12)
    rows = []
    for _ in range(draw(st.integers(1, 2))):
        coeffs = {name: draw(coeff) for name, _, _ in variables}
        rhs = sum(c * point[name] for name, c in coeffs.items())
        rows.append((coeffs, "=", rhs + draw(st.sampled_from((0, 0, 1, 7)))))
    return program(variables, rows)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(two_variable_rows())
def test_lattice_step_matches_enumeration(p):
    names = [name for name, _, _ in p.variables]
    points = [dict(zip(names, values))
              for values in product(*(range(lo, hi + 1) for _, lo, hi in p.variables))]
    solutions = [point for point in points if satisfies(p, point)]
    assert (enumerate_feasibility(p) is None) == (not solutions)
    witness = solve_feasibility(p)
    assert (witness is None) == (not solutions)
    if witness is not None:
        assert witness.values in solutions
    try:
        tightened = propagated(p)
    except ProvenInfeasible:
        assert not solutions
        return
    boxes = {name: (lo, hi) for name, lo, hi in tightened}
    for point in solutions:
        assert all(boxes[name][0] <= point[name] <= boxes[name][1] for name in names)


def full_sweep(p):
    """Reference propagator: sweep every row in order until a sweep moves no
    box.  Returns the boxes as a {name: (lo, hi)} dict, or None when a box
    empties or a cut fails."""
    boxes = {name: (lo, hi) for name, lo, hi in p.variables}
    changed = True
    while changed:
        changed = False
        for con in p.constraints:
            terms = [(name, c) for name, c in con.coeffs.items() if c]
            if con.relation == "=":
                unfixed = [(name, c) for name, c in terms if boxes[name][0] != boxes[name][1]]
                residual = con.rhs - sum(c * boxes[name][0] for name, c in terms
                                         if boxes[name][0] == boxes[name][1])
                if not unfixed:
                    if residual:
                        return None
                    continue
                if residual % math.gcd(*[c for _, c in unfixed]):
                    return None
                if len(unfixed) == 2:
                    # Round the first box to the row's solution lattice.
                    (u, a), (_, b) = unfixed
                    g = math.gcd(a, b)
                    modulus = abs(b // g)
                    if modulus > 1:
                        target = residual // g * pow(a // g, -1, modulus) % modulus
                        lo, hi = boxes[u]
                        box = (lo + (target - lo) % modulus, hi - (hi - target) % modulus)
                        if box[0] > box[1]:
                            return None
                        if box != boxes[u]:
                            boxes[u] = box
                            changed = True
            low = sum(min(c * boxes[name][0], c * boxes[name][1]) for name, c in terms)
            high = sum(max(c * boxes[name][0], c * boxes[name][1]) for name, c in terms)
            upper, lower = con.relation != ">=", con.relation != "<="
            if (upper and low > con.rhs) or (lower and high < con.rhs):
                return None
            for name, c in terms:
                lo, hi = boxes[name]
                # rhs - high_others <= c*x <= rhs - low_others, on the used sides
                most = con.rhs - (low - min(c * lo, c * hi)) if upper else None
                least = con.rhs - (high - max(c * lo, c * hi)) if lower else None
                if c < 0:
                    most, least = (None if least is None else -least,
                                   None if most is None else -most)
                if most is not None:
                    hi = min(hi, most // abs(c))
                if least is not None:
                    lo = max(lo, -(-least // abs(c)))
                if lo > hi:
                    return None
                if (lo, hi) != boxes[name]:
                    boxes[name] = (lo, hi)
                    changed = True
    return boxes


@st.composite
def mixed_programs(draw):
    """Up to four variables in boxes of width up to 4 and up to four rows of
    any relation, zero coefficients included, plus often an equality row in
    two variables; right-hand sides come from a point in the boxes, kept or
    shifted."""
    names = [f"x{i}" for i in range(draw(st.integers(1, 4)))]
    variables = []
    for name in names:
        lo = draw(st.integers(-4, 4))
        variables.append((name, lo, lo + draw(st.integers(0, 4))))
    point = {name: draw(st.integers(lo, hi)) for name, lo, hi in variables}
    shift = st.sampled_from((0, 0, 1, -1, 3))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        used = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
        coeffs = {name: draw(st.integers(-4, 4)) for name in used}
        rhs = sum(c * point[name] for name, c in coeffs.items()) + draw(shift)
        rows.append((coeffs, draw(st.sampled_from(("<=", "=", ">="))), rhs))
    if len(names) >= 2 and draw(st.booleans()):
        pair = draw(st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True))
        coeffs = {name: draw(st.sampled_from((-5, -3, -2, 2, 3, 4, 7))) for name in pair}
        rhs = sum(c * point[name] for name, c in coeffs.items()) + draw(shift)
        rows.insert(draw(st.integers(0, len(rows))), (coeffs, "=", rhs))
    return program(variables, rows)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(mixed_programs())
def test_propagate_bounds_reaches_the_full_sweep_fixpoint(p):
    names = [name for name, _, _ in p.variables]
    solutions = [point for point in
                 (dict(zip(names, values))
                  for values in product(*(range(lo, hi + 1) for _, lo, hi in p.variables)))
                 if satisfies(p, point)]
    try:
        tightened = propagated(p)
    except ProvenInfeasible:
        assert full_sweep(p) is None
        assert not solutions
        return
    boxes = {name: (lo, hi) for name, lo, hi in tightened}
    # No row the reference sweeps can move a box any further.
    assert full_sweep(p._replace(variables=tightened)) == boxes
    assert full_sweep(p) == boxes
    for point in solutions:
        assert all(boxes[name][0] <= point[name] <= boxes[name][1] for name in names)
