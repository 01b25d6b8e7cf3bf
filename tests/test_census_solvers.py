"""Census solvers: worked examples, oracle equivalence, certificate checks."""

import sys
import time
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from varsolve import census_solvers, cli, formats, ilp, mealy
from varsolve.census_solvers import (DEFAULT_BUDGET, BudgetExceeded,
                                     solve_ewmm, solve_gwmm)
from varsolve.corpus import (FAMILIES, make_rng, random_census, random_gwmm_census,
                             random_machine, random_word)
from varsolve.mealy import (EMPTY, CensusRequirement, Loop, MealyMachine,
                            Transition, WalkDecomposition, census_of, run,
                            subdivide)
from varsolve.oracle import (brute_ewmm, brute_gwmm, validate_ewmm_decomposition,
                             validate_gwmm_trace)
from varsolve.reductions import heat_to_ewmm

FIXTURES = Path(__file__).parent / "fixtures"


def machine(states, start, inputs, outputs, transitions):
    return MealyMachine(states=frozenset(states), start=start,
                        input_alphabet=frozenset(inputs),
                        output_alphabet=frozenset(outputs),
                        transitions=tuple(Transition(*t) for t in transitions))


IDENTITY = machine({"q"}, "q", {"a", "b"}, {"a", "b"},
                   [("q", "a", "q", "a"), ("q", "b", "q", "b")])


def test_ewmm_zero_census():
    for m in (IDENTITY,
              machine({"q"}, "q", {"a"}, {"b"}, [("q", "a", "q", "b")])):
        cert = solve_ewmm(m, CensusRequirement.of({}))
        assert cert is not None
        assert cert.base_walk == () and cert.loops == ()


def test_ewmm_self_loop_counts_five():
    m = machine({"q"}, "q", {"a"}, {"b"}, [("q", "a", "q", "b")])
    c = CensusRequirement.of({"b": 5})
    cert = solve_ewmm(m, c)
    assert cert.base_walk == ()
    assert len(cert.loops) == 1
    loop = cert.loops[0]
    assert loop.count == 5 and census_of(t.writes for t in loop.cycle) == census_of("b")
    assert validate_ewmm_decomposition(m, c, cert)


def test_ewmm_long_silent_cycle_has_no_recursion_cliff():
    # A 600-arc cycle writing nothing: 600 end-state variables and flow
    # rows, and a 1,200-arc cycle of the subdivided machine that the
    # decomposition follows far past Python's default recursion limit.
    n = 600
    arcs = [(f"q{i}", "a", f"q{(i + 1) % n}", EMPTY) for i in range(n)]
    m = machine({f"q{i}" for i in range(n)}, "q0", {"a"}, {"x", EMPTY},
                arcs + [("q0", "a", "q0", "x")])
    c = CensusRequirement.of({"x": 2})
    cert = solve_ewmm(m, c)
    assert cert is not None
    assert validate_ewmm_decomposition(m, c, cert)


def test_ewmm_cliff_solves():
    # Seven states, census total 8, silent moves on a third of the
    # transitions: machine 4 of the benchmark's seed-11 family.
    m, c = formats.parse_machine_instance((FIXTURES / "ewmm_cliff.txt").read_text())
    begin = time.perf_counter()
    cert = solve_ewmm(m, c)
    assert time.perf_counter() - begin < 1.0
    assert cert is not None and validate_ewmm_decomposition(m, c, cert)


def test_heat_cliff_settles():
    # Threshold 3, deadline 14, twelve jobs: the benchmark's fixed NO image.
    m, c = heat_to_ewmm(formats.parse_heat((FIXTURES / "heat_cliff.txt").read_text()))
    begin = time.perf_counter()
    assert solve_ewmm(m, c) is None
    assert time.perf_counter() - begin < 1.0


def test_ewmm_counts_must_connect_to_the_start():
    # Flow conservation alone holds for the x-loop at u with the walk
    # ending at the start; only a connectivity cut rules it out.
    cut_off = machine({"s", "u"}, "s", {"a"}, {"x", EMPTY},
                      [("s", "a", "s", EMPTY), ("u", "a", "u", "x")])
    assert solve_ewmm(cut_off, CensusRequirement.of({"x": 1})) is None
    # The same loop behind two silent moves: the cut asks for the way in.
    behind = machine({"s", "v", "u"}, "s", {"a"}, {"x", EMPTY},
                     [("s", "a", "s", EMPTY), ("s", "a", "v", EMPTY),
                      ("v", "a", "u", EMPTY), ("u", "a", "u", "x")])
    c = CensusRequirement.of({"x": 1})
    cert = solve_ewmm(behind, c)
    assert cert is not None and validate_ewmm_decomposition(behind, c, cert)


def _count_engine_calls(monkeypatch):
    """Count compiles, rank checks and solves, and collect the cut rows."""
    calls = {"_Boxes": 0, "_equalities_consistent": 0, "solve": 0}
    for name in ("_Boxes", "_equalities_consistent"):
        def counting(*args, _name=name, _original=getattr(ilp, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(ilp, name, counting)
    rows = []

    def solving(program, budget=None, cut=None):
        def counting_cut(values):
            rows.append(cut(values))
            return rows[-1]
        calls["solve"] += 1
        return ilp.solve_feasibility(program, budget=budget,
                                     cut=cut and counting_cut)

    monkeypatch.setattr(census_solvers, "solve_feasibility", solving)
    return calls, rows


def test_ewmm_compiles_and_rank_checks_once(monkeypatch):
    # The instance takes two searches, the second with a connectivity cut
    # row, and the row goes into the running engine instead of a new program.
    # The first solution walks q0 -> q1 -> q2 and runs the x-loop at q3 on
    # its own; the arc q1 -b-> q3 that leads to the loop is unused.
    # The second search resumes from the root's fixpoint, so the boxes are
    # restored to the declared ones only by the compile.
    restarts = []
    restart = ilp._Boxes.restart
    monkeypatch.setattr(ilp._Boxes, "restart",
                        lambda boxes: restarts.append(len(boxes.rows)) or restart(boxes))
    calls, rows = _count_engine_calls(monkeypatch)
    m, c = formats.parse_machine_instance((FIXTURES / "ewmm_cut.txt").read_text())
    assert solve_ewmm(m, c) is None
    assert [row.relation for row in rows] == ["<="]
    assert calls == {"_Boxes": 1, "_equalities_consistent": 1, "solve": 1}
    assert len(restarts) == 1


def test_ewmm_yes_builds_no_checked_machine(monkeypatch):
    # The certificate splits only the used transitions, built unchecked: a
    # YES neither subdivides the whole machine nor runs the checking
    # constructor.
    m, c = formats.parse_machine_instance((FIXTURES / "ewmm_cliff.txt").read_text())
    built = []

    def checking(cls, *args):
        built.append(cls)
        return new(cls, *args)

    new = MealyMachine.__new__
    monkeypatch.setattr(MealyMachine, "__new__", staticmethod(checking))
    monkeypatch.setattr(mealy, "subdivide", lambda m: built.append("subdivide"))
    cert = solve_ewmm(m, c)
    assert cert is not None and cert.loops and built == []
    monkeypatch.undo()
    assert validate_ewmm_decomposition(m, c, cert)


def test_ewmm_certificates_on_clashing_state_names():
    # States named t0, t2, ...: the fresh states skip them, and every hop of
    # a certificate is a transition of subdivide(m).
    rng = make_rng(23)
    names = ("t0", "t1", "t2", "t4", "t00", "t", "q")
    yes = 0
    for _ in range(200):
        m = random_machine(rng, max_states=5, max_transitions=8)
        to = dict(zip(sorted(m.states), rng.sample(names, len(m.states))))
        m = machine(to.values(), to[m.start], m.input_alphabet, m.output_alphabet,
                    [(to[t.source], t.reads, to[t.target], t.writes)
                     for t in m.transitions])
        c = random_census(rng, m)
        cert = solve_ewmm(m, c)
        assert (cert is not None) == brute_ewmm(m, c)
        if cert is None:
            continue
        yes += 1
        hops = set(subdivide(m).transitions)
        assert set(cert.base_walk) <= hops
        assert all(set(loop.cycle) <= hops for loop in cert.loops)
        assert validate_ewmm_decomposition(m, c, cert)
    assert yes >= 50


def test_ewmm_unreached_states_get_no_cut(monkeypatch):
    # No move out of the start q0 writes b, the one required letter, so only
    # q0 is reached and the program is decided NO without a cut row.
    _, rows = _count_engine_calls(monkeypatch)
    m, c = formats.parse_machine_instance((FIXTURES / "ewmm_rounds.txt").read_text())
    assert solve_ewmm(m, c) is None
    assert rows == []


def test_ewmm_unproducible_letter():
    m = machine({"q"}, "q", {"a"}, {"b"}, [("q", "a", "q", "b")])
    assert solve_ewmm(m, CensusRequirement.of({"d": 1})) is None


def test_ewmm_budget_reports_unknown():
    rng = make_rng(3)
    m = random_machine(rng, max_states=3, max_transitions=6)
    c = CensusRequirement.of(
        {letter: 2 for letter in sorted(m.output_alphabet - {EMPTY})[:2]})
    with pytest.raises(BudgetExceeded):
        solve_ewmm(m, c, budget=0)


def test_ewmm_oracle_equivalence():
    assert FAMILIES["ewmm"](42, 300) == 300


def test_gwmm_identity_examples():
    trace = solve_gwmm(IDENTITY, "aab", CensusRequirement.of({"a": 2, "b": 1}))
    assert trace is not None
    assert run(IDENTITY, "aab", trace) == ("a", "a", "b")
    assert solve_gwmm(IDENTITY, "aab", CensusRequirement.of({"a": 1, "b": 1})) is None


def test_gwmm_rejects_empty_in_word():
    with pytest.raises(ValueError):
        solve_gwmm(IDENTITY, ("a", EMPTY), CensusRequirement.of({}))


def test_gwmm_base_entry_is_unique_seed():
    # Only the start state is true at position 0 with zero census by itself;
    # one empty move reaches the other state at the same position.
    m = machine({"q", "r"}, "q", {"a", EMPTY}, {"a", EMPTY},
                [("q", EMPTY, "r", EMPTY), ("r", "a", "r", "a")])
    c = CensusRequirement.of({"a": 1})
    trace = solve_gwmm(m, "a", c)
    assert trace == (0, 1)
    assert brute_gwmm(m, "a", c)


def test_gwmm_empty_move_chains_bounded():
    # A two-state empty-letter cycle must not spin forever.
    m = machine({"q", "r"}, "q", {EMPTY, "a"}, {EMPTY},
                [("q", EMPTY, "r", EMPTY), ("r", EMPTY, "q", EMPTY)])
    assert solve_gwmm(m, "", CensusRequirement.of({})) is not None
    assert solve_gwmm(m, "a", CensusRequirement.of({})) is None


def test_gwmm_bounds_refute_before_the_first_entry():
    # Empty moves join every pair of six states, and the second a would
    # write b again: NO.  Every completion from the start writes b twice,
    # so the start pair has no bound and no entry is stored.
    states = [f"q{i}" for i in range(6)]
    m = machine(states, "q0", {"a", EMPTY}, {"b", EMPTY},
                [(s, EMPTY, t, EMPTY) for s in states for t in states if s != t]
                + [("q5", "a", "q5", "b")])
    c = CensusRequirement.of({"b": 1})
    assert not brute_gwmm(m, "aa", c)
    assert solve_gwmm(m, "aa", c, budget=0) is None


def test_gwmm_bounds_ignore_unreachable_writers():
    # Only an unreachable state writes y, and an empty self-loop may write
    # x without end: the start pair's bound already asks for one y.
    m = machine({"q", "r"}, "q", {"a", EMPTY}, {"x", "y", EMPTY},
                [("q", EMPTY, "q", "x"), ("q", "a", "q", EMPTY), ("r", "a", "r", "y")])
    c = CensusRequirement.of({"x": 10**9, "y": 1})
    assert solve_gwmm(m, "aaa", c, budget=0) is None


def test_gwmm_stores_one_entry_per_configuration():
    # Empty moves join every pair of six start states s0..s5 and of six end
    # states u0..u5.  From s5, either a writes b into the end states, or an
    # empty move writes x into t, which then reads a and writes nothing; one
    # b and one x together are out of reach: NO.  The bounds cut t, whose
    # completions write no b, and let the other 12 configurations through
    # (six start states with nothing written, six end states with b = 1).
    # Each is stored once, and each but the start costs the one move that
    # reached it.
    starts = [f"s{i}" for i in range(6)]
    ends = [f"u{i}" for i in range(6)]
    m = machine(starts + ends + ["t", "v"], "s0", {"a", EMPTY}, {"b", "x", EMPTY},
                [(p, EMPTY, q, EMPTY) for group in (starts, ends)
                 for p in group for q in group if p != q]
                + [("s5", "a", "u0", "b"), ("s5", EMPTY, "t", "x"), ("t", "a", "v", EMPTY)])
    c = CensusRequirement.of({"b": 1, "x": 1})
    assert not brute_gwmm(m, "a", c)
    assert solve_gwmm(m, "a", c, budget=11) is None
    with pytest.raises(BudgetExceeded):
        solve_gwmm(m, "a", c, budget=10)


def test_gwmm_budget_counts_every_move_of_a_run():
    # One move per state, so the fill crosses the whole word in one run from
    # the start and stores only its end, yet pays for all L configurations.
    length = 7
    m = machine([f"q{i}" for i in range(length + 1)], "q0", {"a"}, {"b"},
                [(f"q{i}", "a", f"q{i + 1}", "b") for i in range(length)])
    c = CensusRequirement.of({"b": length})
    assert solve_gwmm(m, "a" * length, c, budget=length) == tuple(range(length))
    with pytest.raises(BudgetExceeded):
        solve_gwmm(m, "a" * length, c, budget=length - 1)


def test_gwmm_trace_replays_to_census():
    rng = make_rng(17)
    replayed = 0
    while replayed < 60:
        m = random_machine(rng)
        x = random_word(rng, m)
        c = random_gwmm_census(rng, m, x)
        trace = solve_gwmm(m, x, c)
        if trace is None:
            continue
        assert validate_gwmm_trace(m, x, c, trace)
        replayed += 1


def test_gwmm_oracle_equivalence():
    assert FAMILIES["gwmm"](42, 300) == 300


def test_binary_guard_fires_without_table():
    m = machine({"q"}, "q", {"a"}, {"b"}, [("q", "a", "q", "b")])
    assert solve_gwmm(m, "aaa", CensusRequirement.of({"b": 10})) is None
    assert solve_gwmm(m, "aaa", CensusRequirement.of({"b": 10**12})) is None


def test_binary_guard_stores_no_entry():
    # The start entry gets the full check, so a zero budget is never spent.
    m = machine({"q"}, "q", {"a"}, {"b"}, [("q", "a", "q", "b")])
    assert solve_gwmm(m, "aaa", CensusRequirement.of({"b": 10**12}), budget=0) is None
    with pytest.raises(BudgetExceeded):
        solve_gwmm(m, "aaa", CensusRequirement.of({"b": 3}), budget=0)
    assert solve_gwmm(m, "aaa", CensusRequirement.of({"b": 3}), budget=4) == (0, 0, 0)


def test_gwmm_total_check_off_with_free_writers():
    # The census total exceeds what is left of the word at every reading
    # move, but an empty-read move writes x afterwards.
    m = machine({"q", "r"}, "q", {"a", EMPTY}, {"x", EMPTY},
                [("q", "a", "r", EMPTY), ("r", EMPTY, "r", "x")])
    c = CensusRequirement.of({"x": 2})
    assert solve_gwmm(m, "a", c) == (0, 1, 1)
    assert brute_gwmm(m, "a", c)


def test_binary_guard_exact_total():
    c = CensusRequirement.of({"a": 2, "b": 1})
    assert solve_gwmm(IDENTITY, "aab", c) is not None
    assert solve_gwmm(IDENTITY, "abb", CensusRequirement.of({"a": 2, "b": 1})) is None


def test_binary_guard_oracle_agreement():
    assert FAMILIES["gwmm-guard"](42, 30) == 30


def test_binary_guard_matches_oracle_on_empty_free_machines():
    assert FAMILIES["gwmm-empty-free"](42, 200) == 200


def test_ewmm_loop_merge_by_census_vector_is_safe():
    # Two distinct cycles through q that each write one x: the counts may
    # split between them in any way, and the walk must still replay.
    m = machine({"q", "r"}, "q", {"a"}, {"x", EMPTY},
                [("q", "a", "q", "x"), ("q", "a", "r", "x"), ("r", "a", "q", EMPTY)])
    c = CensusRequirement.of({"x": 4})
    cert = solve_ewmm(m, c)
    assert cert is not None
    assert validate_ewmm_decomposition(m, c, cert)


@st.composite
def small_ewmm_instances(draw):
    """Machines on up to four states with empty reads and empty writes.

    With ``forward``, no move leads to a lower state, so a census written
    away from the start needs a base walk to reach it.
    """
    forward = draw(st.booleans())
    n = draw(st.integers(1, 4))
    moves = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.sampled_from(["a", EMPTY]),
                                    st.integers(0, n - 1),
                                    st.sampled_from(["x", "y", EMPTY])),
                          max_size=10, unique=True))
    counts = {"x": draw(st.integers(0, 4)), "y": draw(st.integers(0, 3))}
    m = machine({f"q{i}" for i in range(n)}, "q0", {"a", EMPTY}, {"x", "y", EMPTY},
                [(f"q{p}", reads, f"q{q}", writes) for p, reads, q, writes in moves
                 if not (forward and p > q)])
    return m, CensusRequirement.of(counts)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(small_ewmm_instances())
def test_ewmm_matches_oracle_on_small_machines(instance):
    m, c = instance
    cert = solve_ewmm(m, c)
    assert (cert is not None) == brute_ewmm(m, c)
    if cert is not None:
        assert validate_ewmm_decomposition(m, c, cert)


def with_unreachable_copy(m):
    """m with a copy of its states, each renamed s -> s', and of its
    transitions appended after the originals; no transition enters a copy."""
    def renamed(t):
        return t._replace(source=t.source + "'", target=t.target + "'")
    return MealyMachine(m.states | {state + "'" for state in m.states}, m.start,
                        m.input_alphabet, m.output_alphabet,
                        m.transitions + tuple(map(renamed, m.transitions)))


def solve_ewmm_recorded(m, c):
    """The certificate of ``solve_ewmm`` with the dump of the program it
    built and the cut rows the engine took."""
    record = []

    def recording(program, budget=None, cut=None):
        record.append(ilp.dump_program(program))

        def recording_cut(values):
            row = cut(values)
            record.append(repr(row))
            return row
        return ilp.solve_feasibility(program, budget=budget, cut=recording_cut)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(census_solvers, "solve_feasibility", recording)
        return solve_ewmm(m, c), record


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(small_ewmm_instances())
@example(formats.parse_machine_instance((FIXTURES / "ewmm_cut.txt").read_text()))
@example(formats.parse_machine_instance((FIXTURES / "ewmm_rounds.txt").read_text()))
def test_ewmm_ignores_an_unreachable_copy(instance):
    m, c = instance
    cert, record = solve_ewmm_recorded(m, c)
    assert solve_ewmm_recorded(with_unreachable_copy(m), c) == (cert, record)


@st.composite
def ewmm_instances_with_unreachable_parts(draw):
    """A small instance with states r0, r1, ... added that no walk from the
    start reaches: their moves lead anywhere, and the moves into them write
    w, a letter the census does not require."""
    m, c = draw(small_ewmm_instances())
    states = sorted(m.states)
    extra = [f"r{i}" for i in range(draw(st.integers(1, 3)))]
    moves = draw(st.lists(st.tuples(st.sampled_from(extra), st.sampled_from(["a", EMPTY]),
                                    st.sampled_from(states + extra),
                                    st.sampled_from(["x", "y", EMPTY])),
                          max_size=8, unique=True))
    gates = draw(st.lists(st.tuples(st.sampled_from(states), st.sampled_from(["a", EMPTY]),
                                    st.sampled_from(extra), st.just("w")),
                          max_size=3, unique=True))
    return MealyMachine(m.states | set(extra), m.start, m.input_alphabet,
                        m.output_alphabet | {"w"},
                        m.transitions + tuple(Transition(*t) for t in gates + moves)), c


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(ewmm_instances_with_unreachable_parts())
def test_ewmm_matches_oracle_with_unreachable_parts(instance):
    m, c = instance
    cert = solve_ewmm(m, c)
    assert (cert is not None) == brute_ewmm(m, c)
    if cert is not None:
        assert validate_ewmm_decomposition(m, c, cert)


def test_ewmm_family_rejects_foreign_transitions(monkeypatch):
    # Every state renamed: the walk still meets the census on a copy of
    # subdivide(m), but none of its transitions belongs to subdivide(m).
    solve = census_solvers.solve_ewmm

    def renamed(t):
        return t._replace(source=t.source + "'", target=t.target + "'")

    def foreign(m, c):
        cert = solve(m, c)
        return cert and WalkDecomposition(
            tuple(map(renamed, cert.base_walk)),
            tuple(Loop(loop.anchor + "'", tuple(map(renamed, loop.cycle)), loop.count)
                  for loop in cert.loops))

    monkeypatch.setattr(census_solvers, "solve_ewmm", foreign)
    with pytest.raises(AssertionError, match="bad certificate"):
        FAMILIES["ewmm"](42, 300)


def test_subdivision_preserves_census_reachability():
    # Every census with counts up to 3 is met on the same words.
    rng = make_rng(31)
    for _ in range(60):
        m = random_machine(rng, max_states=4, max_letters=2, max_transitions=6)
        sub = subdivide(m)
        word = random_word(rng, m, max_len=5)
        letters = sorted(m.output_alphabet - {EMPTY})
        for counts in product(range(4), repeat=len(letters)):
            c = CensusRequirement.of(dict(zip(letters, counts)))
            assert brute_gwmm(m, word, c) == brute_gwmm(sub, word, c)


@st.composite
def small_gwmm_instances(draw):
    """Machines on up to three states with empty-read moves and empty writes.

    ``free`` lets empty-read moves write a letter, so fields with and
    without a need bound are both drawn.  ``big`` (with ``free``) adds 10**12
    to the count of ``x``, which widens every packed field to 41 bits;
    empty-read moves then only run from a lower to a higher state, so no
    cycle writes ``x``, and ``x`` stays far below its count and the table
    small.
    """
    free = draw(st.booleans())
    big = free and draw(st.booleans())
    n = draw(st.integers(2 if big else 1, 3))
    moves = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.sampled_from(["a", "b", EMPTY]),
                                    st.integers(0, n - 1),
                                    st.sampled_from(["x", "y", EMPTY])),
                          min_size=2, max_size=12, unique=True))
    transitions = set()
    if free:
        # One empty-read move that writes; x when big, so that x has no
        # need bound and the start entry can survive.
        source = draw(st.integers(0, n - 2 if big else n - 1))
        target = draw(st.integers(source + 1 if big else 0, n - 1))
        writes = "x" if big else draw(st.sampled_from("xy"))
        transitions.add((f"q{source}", EMPTY, f"q{target}", writes))
    for source, reads, target, writes in moves:
        if reads == EMPTY:
            if big and source >= target:
                continue
            if not free:
                writes = EMPTY
        transitions.add((f"q{source}", reads, f"q{target}", writes))
    word = "".join(draw(st.lists(st.sampled_from("ab"), max_size=5)))
    counts = {"x": draw(st.integers(0, 2)), "y": draw(st.integers(0, 2))}
    if big:
        counts["x"] += 10**12
    m = machine({f"q{i}" for i in range(n)}, "q0", {"a", "b", EMPTY},
                {"x", "y", EMPTY}, sorted(transitions, key=str))
    return m, word, CensusRequirement.of(counts)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(small_gwmm_instances())
def test_gwmm_matches_oracle_on_small_machines(instance):
    m, x, c = instance
    trace = solve_gwmm(m, x, c)
    assert (trace is not None) == brute_gwmm(m, x, c)
    if trace is not None:
        assert validate_gwmm_trace(m, x, c, trace)


@st.composite
def single_run_instances(draw):
    """Machines whose computations cross long runs of one-move pairs.

    A chain q0 -> ... -> qk of one move per state reads a or b or nothing
    and writes x, y or nothing; up to two extra moves between chain states
    make pairs with several moves, where runs end.  qk may have an
    empty-read self-loop as its only move, writing x or nothing.  The word
    is what the chain reads, so a run ends at position n, and the census is
    what the chain writes (a run then ends exactly on the goal) or that
    with one x or y more or less.
    """
    k = draw(st.integers(2, 9))
    chain = draw(st.lists(st.tuples(st.sampled_from(["a", "b", EMPTY]),
                                    st.sampled_from(["x", "y", EMPTY])),
                          min_size=k, max_size=k))
    transitions = {(f"q{i}", reads, f"q{i + 1}", writes)
                   for i, (reads, writes) in enumerate(chain)}
    loop = draw(st.sampled_from([None, "x", EMPTY]))
    if loop is not None:
        transitions.add((f"q{k}", EMPTY, f"q{k}", loop))
    extra = draw(st.lists(st.tuples(st.integers(0, k), st.sampled_from(["a", "b", EMPTY]),
                                    st.integers(0, k), st.sampled_from(["x", "y", EMPTY])),
                          max_size=2))
    transitions |= {(f"q{source}", reads, f"q{target}", writes)
                    for source, reads, target, writes in extra}
    word = "".join(reads for reads, _ in chain)
    counts = {letter: sum(writes == letter for _, writes in chain) for letter in "xy"}
    letter, change = draw(st.sampled_from([("x", 0), ("x", 1), ("x", -1), ("y", 1), ("y", -1)]))
    counts[letter] = max(counts[letter] + change, 0)
    m = machine({f"q{i}" for i in range(k + 1)}, "q0", {"a", "b", EMPTY},
                {"x", "y", EMPTY}, sorted(transitions, key=str))
    return m, word, CensusRequirement.of(counts)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(single_run_instances())
def test_gwmm_runs_match_oracle(instance):
    # The budget is the number of configurations whose counts lie within c.
    # The fill pays for no configuration twice and only for ones within
    # their pairs' bounds, so only a fill that lets counts pass c spends it.
    m, x, c = instance
    budget = (len(x) + 1) * len(m.states) * (c.get("x") + 1) * (c.get("y") + 1)
    trace = solve_gwmm(m, x, c, budget=budget)
    assert (trace is not None) == brute_gwmm(m, x, c)
    if trace is not None:
        assert validate_gwmm_trace(m, x, c, trace)


def census_given_images(seed):
    """The given-word instances of the benchmark's census-given round."""
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root))
    try:
        from varbench.workloads import census_given
    finally:
        sys.path.remove(str(root))
    for instance in census_given(seed):
        text = instance["text"]
        if instance["reduce"]:
            row = cli.REDUCTIONS[instance["reduce"]]
            text = row.write(row.reduce(row.parse(text, instance["id"])))
        yield formats.parse_machine_instance(text, instance["id"], with_word=True)


def test_census_given_stays_far_below_the_budget():
    # The fills of the seed-13 round spend at most 3,685 units of budget and
    # store at most 1,057 entries.
    for m, x, c in census_given_images(13):
        solve_gwmm(m, x, c, budget=DEFAULT_BUDGET // 400)


def test_dense_mcc_image_decided_within_the_budget():
    # Three classes of five; a-b and b-c edges join equal parities and a-c
    # edges unequal ones, so no triangle exists.  The fill pays for about
    # 630,000 configurations and stores about 285,000 of them.
    row = cli.REDUCTIONS["reduce-mcc"]
    text = row.write(row.reduce(row.parse((FIXTURES / "parity_mcc.txt").read_text(), "parity")))
    m, x, c = formats.parse_machine_instance(text, "parity", with_word=True)
    assert solve_gwmm(m, x, c, budget=DEFAULT_BUDGET) is None
