"""Record types: construction, defaults, equality, hashing, repr, checks."""

import re

import pytest

from varsolve.formats import _Reader
from varsolve.ilp import Assignment, Constraint, IntegerProgram
from varsolve.mealy import (CensusRequirement, Loop, MealyMachine, Transition,
                            WalkDecomposition)
from varsolve.reductions import (CensusSizeMismatch, HeatInstance, MulticoloredGraph,
                                 SplitsInstance)
from varsolve.variety import Multiset, SubsetCertificate, TripleCover

T = Transition("p", "a", "q", "x")
T_TEXT = "Transition(source='p', reads='a', target='q', writes='x')"
LOOP = Loop("q", (T,), 3)
LOOP_TEXT = f"Loop(anchor='q', cycle=({T_TEXT},), count=3)"
SELF_LOOP = Transition("p", "a", "p", "x")

# (type, its fields in declaration order, the repr of the record they make).
# Sets have one member each, so their repr does not depend on string hashing.
RECORDS = [
    (IntegerProgram, {"variables": (("x", 0, 3),),
                      "constraints": (Constraint({"x": 1}, "=", 2),)},
     "IntegerProgram(variables=(('x', 0, 3),), "
     "constraints=(Constraint(coeffs={'x': 1}, relation='=', rhs=2),))"),
    (Assignment, {"values": {"x": 2}, "nodes": 5},
     "Assignment(values={'x': 2}, nodes=5)"),
    (_Reader, {"path": "f.txt", "lines": ["a b", ""]},
     "_Reader(path='f.txt', lines=['a b', ''])"),
    (Multiset, {"entries": ((3, 2), (5, 1))},
     "Multiset(entries=((3, 2), (5, 1)))"),
    (SubsetCertificate, {"counts": {3: 2}},
     "SubsetCertificate(counts={3: 2})"),
    (TripleCover, {"triples": ((1, 2, 3, 4),)},
     "TripleCover(triples=((1, 2, 3, 4),))"),
    (MealyMachine, {"states": frozenset({"p"}), "start": "p",
                    "input_alphabet": frozenset({"a"}), "output_alphabet": frozenset({"x"}),
                    "transitions": (SELF_LOOP,)},
     "MealyMachine(states=frozenset({'p'}), start='p', input_alphabet=frozenset({'a'}), "
     "output_alphabet=frozenset({'x'}), "
     "transitions=(Transition(source='p', reads='a', target='p', writes='x'),))"),
    (CensusRequirement, {"counts": (("a", 1), ("b", 2))},
     "CensusRequirement(counts=(('a', 1), ('b', 2)))"),
    (Loop, {"anchor": "q", "cycle": (T,), "count": 3}, LOOP_TEXT),
    (WalkDecomposition, {"base_walk": (T,), "loops": (LOOP,)},
     f"WalkDecomposition(base_walk=({T_TEXT},), loops=({LOOP_TEXT},))"),
    (MulticoloredGraph, {"k": 2, "classes": (("a",), ("b",)), "edges": (("a", "b"),)},
     "MulticoloredGraph(k=2, classes=(('a',), ('b',)), edges=(('a', 'b'),))"),
    (HeatInstance, {"threshold": 1, "job_census": {0: 1, 2: 1}, "deadline": 3},
     "HeatInstance(threshold=1, job_census={0: 1, 2: 1}, deadline=3)"),
    (SplitsInstance, {"gaps": (1, 2), "job_census": {1: 2}},
     "SplitsInstance(gaps=(1, 2), job_census={1: 2})"),
]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[row[0].__name__ for row in RECORDS])
def test_record_is_a_value(cls, fields, text):
    by_name, by_position = cls(**fields), cls(*fields.values())
    assert type(by_name) is type(by_position) is cls
    assert [getattr(by_name, name) for name in fields] == list(fields.values())
    assert by_name == by_position and not by_name != by_position
    assert repr(by_name) == repr(by_position) == text
    # A record hashes as the tuple of its fields; one holding a dict or list has no hash.
    try:
        expected = hash(tuple(fields.values()))
    except TypeError:
        with pytest.raises(TypeError):
            hash(by_name)
    else:
        assert hash(by_name) == hash(by_position) == expected


@pytest.mark.parametrize("cls, fields", [row[:2] for row in RECORDS if row[0] is not _Reader],
                         ids=[row[0].__name__ for row in RECORDS if row[0] is not _Reader])
def test_record_is_frozen(cls, fields):
    record = cls(**fields)
    for name, value in [*fields.items(), ("extra", 0)]:
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    assert [getattr(record, name) for name in fields] == list(fields.values())


def test_record_defaults():
    assert Assignment({"x": 2}) == Assignment(values={"x": 2}, nodes=0)
    assert Multiset().entries == () and Multiset() == Multiset(entries=())
    assert CensusRequirement().counts == () and CensusRequirement() == CensusRequirement(())
    assert WalkDecomposition((T,)).loops == ()
    assert repr(SplitsInstance(())) == "SplitsInstance(gaps=(), job_census={})"
    # Each instance gets its own empty census, never one shared default.
    assert SplitsInstance(()).job_census is not SplitsInstance(gaps=()).job_census


def test_census_requirement_is_normalized():
    messy = CensusRequirement((("b", 2), ("c", 0), ("a", 1)))
    assert messy.counts == (("a", 1), ("b", 2))
    assert messy == CensusRequirement.of({"a": 1, "b": 2})
    assert messy == CensusRequirement(counts=messy.counts)
    assert hash(messy) == hash(CensusRequirement((("a", 1), ("b", 2))))
    assert CensusRequirement.of({"c": 0}) == CensusRequirement()


def test_graph_owner_is_derived_and_left_out_of_value():
    fields = {"k": 2, "classes": (("a", "c"), ("b",)), "edges": (("a", "b"),)}
    graph = MulticoloredGraph(**fields)
    assert graph.owner == {"a": 1, "c": 1, "b": 2}
    other = MulticoloredGraph(**fields)
    object.__setattr__(other, "owner", {})
    assert graph == other and hash(graph) == hash(other)
    assert "owner" not in repr(graph)
    with pytest.raises(AttributeError):
        graph.owner = {}


@pytest.mark.parametrize("make, error, message", [
    (lambda: Multiset(((1, 1), (1, 2))), ValueError, "duplicate value 1 in multiset"),
    (lambda: Multiset(entries=((4, 0),)), ValueError, "multiplicity of 4 must be positive"),
    (lambda: MealyMachine(frozenset({"p"}), "z", frozenset(), frozenset(), ()),
     ValueError, "start state 'z' not among states"),
    (lambda: MealyMachine(frozenset({"p"}), "p", frozenset({"a"}), frozenset({"x"}),
                          (SELF_LOOP, SELF_LOOP)), ValueError, "duplicate transitions"),
    (lambda: MealyMachine(frozenset({"p"}), "p", frozenset({"a"}), frozenset({"x"}), (T,)),
     ValueError, f"transition endpoint outside states: {T_TEXT}"),
    (lambda: MealyMachine(frozenset({"p"}), "p", frozenset({"b"}), frozenset({"x"}),
                          (SELF_LOOP,)), ValueError, "read letter 'a' not in input alphabet"),
    (lambda: MealyMachine(states=frozenset({"p"}), start="p", input_alphabet=frozenset({"a"}),
                          output_alphabet=frozenset({"y"}), transitions=(SELF_LOOP,)),
     ValueError, "write letter 'x' not in output alphabet"),
    (lambda: CensusRequirement((("", 1),)), ValueError,
     "the empty letter carries no census entry"),
    (lambda: CensusRequirement((("a", -1),)), ValueError, "negative census count for 'a'"),
    (lambda: CensusRequirement(counts=(("a", 1), ("a", 0))), ValueError,
     "duplicate census letter 'a'"),
    (lambda: MulticoloredGraph(3, (("a",), ("b",)), ()), ValueError,
     "k must equal the number of classes"),
    (lambda: MulticoloredGraph(2, (("a",), ("a",)), ()), ValueError, "vertex 'a' appears twice"),
    (lambda: MulticoloredGraph(2, (("a",), ("b",)), (("a", "z"),)), ValueError,
     "edge endpoint 'a'/'z' not a vertex"),
    (lambda: MulticoloredGraph(2, (("a", "c"), ("b",)), (("a", "c"),)), ValueError,
     "edge 'a'-'c' inside one class"),
    (lambda: MulticoloredGraph(k=2, classes=(("a",), ("b",)), edges=(("a", "b"), ("b", "a"))),
     ValueError, "duplicate edge 'b'-'a'"),
    (lambda: HeatInstance(-1, {}, 0), ValueError,
     "threshold and deadline must be non-negative"),
    (lambda: HeatInstance(1, {3: 1}, 1), ValueError, "heat level 3 outside 0..2"),
    (lambda: HeatInstance(1, {1: -1}, 1), ValueError, "negative job count"),
    (lambda: HeatInstance(threshold=1, job_census={1: 2}, deadline=1), ValueError,
     "more jobs than time slots"),
    (lambda: SplitsInstance((0,), {1: 1}), ValueError, "gaps must be positive"),
    (lambda: SplitsInstance((1,), {0: 1}), ValueError, "job lengths must be positive"),
    (lambda: SplitsInstance((1,), {1: -1, 2: 2}), ValueError, "negative job count"),
    (lambda: SplitsInstance(gaps=(1, 2), job_census={1: 1}), CensusSizeMismatch,
     "census total must equal the number of gaps: one job per step"),
])
def test_record_constructor_checks(make, error, message):
    assert issubclass(error, ValueError)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()
