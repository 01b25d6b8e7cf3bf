"""Reference solvers: worked examples, caps, purity."""

import pytest

from varsolve.mealy import (CensusRequirement, Loop, MealyMachine, Transition,
                            WalkDecomposition, subdivide)
from varsolve.oracle import (InstanceTooLarge, brute_3partition, brute_ewmm,
                             brute_gwmm, brute_heat_schedule, brute_nmts,
                             brute_num3dm, brute_partition, brute_splits_game,
                             brute_subset_sum, validate_ewmm_decomposition,
                             validate_gwmm_trace)
from varsolve.reductions import HeatInstance, SplitsInstance
from varsolve.variety import Multiset


def ms(*values):
    return Multiset.from_values(values)


IDENTITY = MealyMachine(
    states=frozenset({"q"}), start="q",
    input_alphabet=frozenset({"a", "b"}), output_alphabet=frozenset({"a", "b"}),
    transitions=(Transition("q", "a", "q", "a"), Transition("q", "b", "q", "b")))


def test_subset_sum_examples():
    assert brute_subset_sum(Multiset(((3, 2), (5, 1))), 11)
    assert brute_subset_sum(ms(4, 9), 0)
    assert not brute_subset_sum(Multiset(((2, 3),)), 5)


def test_cardinality_cap():
    big = Multiset(((1, 25),))
    with pytest.raises(InstanceTooLarge):
        brute_subset_sum(big, 3)
    assert brute_subset_sum(big, 3, cap=30)


def test_partition_and_triples():
    assert brute_partition(ms(1, 1))
    assert not brute_partition(ms(1, 1, 1))
    assert brute_3partition(ms(1, 2, 3, 1, 2, 3))
    assert not brute_3partition(ms(1, 1, 1, 1, 1, 8))
    assert brute_num3dm(ms(1, 2), ms(1, 2), ms(3, 3), 6)
    assert not brute_num3dm(ms(1), ms(1), ms(1), 0)
    assert brute_nmts(ms(1), ms(1), ms(2))
    assert not brute_nmts(ms(1), ms(1), ms(3))


def test_gwmm_examples():
    assert brute_gwmm(IDENTITY, "ab", CensusRequirement.of({"a": 1, "b": 1}))
    assert not brute_gwmm(IDENTITY, "ab", CensusRequirement.of({"a": 2}))


def test_ewmm_examples():
    assert brute_ewmm(IDENTITY, CensusRequirement.of({}))
    assert not brute_ewmm(IDENTITY, CensusRequirement.of({"d": 1}))


def test_heat_and_splits():
    assert brute_heat_schedule(HeatInstance(threshold=1, job_census={2: 1},
                                            deadline=1))
    assert not brute_heat_schedule(HeatInstance(threshold=1, job_census={2: 2},
                                                deadline=7))
    assert brute_splits_game(SplitsInstance(gaps=(3,), job_census={3: 1}))
    assert not brute_splits_game(SplitsInstance(gaps=(1, 1),
                                                job_census={1: 1, 3: 1}))


def test_oracles_are_deterministic():
    a = ms(3, 3, 5, 7)
    assert brute_subset_sum(a, 8) == brute_subset_sum(a, 8)
    assert brute_partition(a) == brute_partition(a)


# s -x-> u, and a y-loop at u; subdivided, each move becomes a hop that
# writes into a fresh state and a silent hop on.
LOOPED = MealyMachine(
    states=frozenset({"s", "u"}), start="s",
    input_alphabet=frozenset({"a"}), output_alphabet=frozenset({"x", "y"}),
    transitions=(Transition("s", "a", "u", "x"), Transition("u", "a", "u", "y")))
INTO, ON, LOOP_OUT, LOOP_BACK = subdivide(LOOPED).transitions
XY3 = CensusRequirement.of({"x": 1, "y": 3})


@pytest.mark.parametrize("base, loops, ok", [
    ((INTO, ON), (("u", (LOOP_OUT, LOOP_BACK), 3),), True),
    ((INTO._replace(reads="b"), ON), (("u", (LOOP_OUT, LOOP_BACK), 3),), False),
    ((INTO, ON, LOOP_BACK), (("u", (LOOP_OUT, LOOP_BACK), 3),), False),
    ((INTO, ON), (("u", (LOOP_OUT,), 3),), False),
    ((INTO,), (("u", (LOOP_OUT, LOOP_BACK), 3),), False),
    ((INTO, ON), (("u", (LOOP_OUT, LOOP_BACK), 4), ("u", (LOOP_OUT, LOOP_BACK), -1)), False),
    ((INTO, ON), (("u", (LOOP_OUT, LOOP_BACK), 4),), False),
], ids=["valid", "foreign-transition", "base-off-the-walk", "loop-not-closed",
        "anchor-not-visited", "negative-count", "census-off-by-one"])
def test_ewmm_decomposition_checked(base, loops, ok):
    cert = WalkDecomposition(base, tuple(Loop(*loop) for loop in loops))
    assert validate_ewmm_decomposition(LOOPED, XY3, cert) is ok


@pytest.mark.parametrize("trace, ok", [
    ((0, 1), True), ((0, 5), False), ((1, 0), False), ((0,), False),
], ids=["valid", "index-out-of-range", "illegal-step", "unread-input"])
def test_gwmm_trace_checked(trace, ok):
    c = CensusRequirement.of({"a": 1, "b": 1})
    assert validate_gwmm_trace(IDENTITY, "ab", c, trace) is ok
