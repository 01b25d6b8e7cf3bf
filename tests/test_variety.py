"""Multiset solvers: worked examples, certificates, structural bounds."""

import time
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import knapsacks
from varsolve.formats import parse_multiset
from varsolve.oracle import (brute_3partition, brute_nmts, brute_num3dm,
                             brute_partition, brute_subset_sum,
                             validate_3partition_cover, validate_nmts_cover,
                             validate_num3dm_cover,
                             validate_partition_certificate,
                             validate_subset_certificate)
from varsolve.variety import (CardinalityMismatch, Multiset, NotDivisibleBy3,
                              nmts_program, num3dm_program, partition_program,
                              solve_3partition, solve_num_3dm, solve_nmts,
                              solve_partition, solve_subset_sum, subset_sum_program,
                              three_partition_program)


FIXTURES = Path(__file__).parent / "fixtures"


def ms(*values):
    return Multiset.from_values(values)


def test_multiset_invariants():
    a = Multiset(((3, 2), (5, 1)))
    assert a.cardinality() == 3
    assert a.variety() == 2
    assert a.total() == 11
    with pytest.raises(ValueError):
        Multiset(((3, 2), (3, 1)))
    with pytest.raises(ValueError):
        Multiset(((3, 0),))


def test_subset_sum_worked_example():
    # Exhaustive submultiset enumeration over {3,3,5} finds 11 only as 3+3+5.
    sums = {3 * i + 5 * j for i in range(3) for j in range(2)}
    assert 11 in sums
    cert = solve_subset_sum(Multiset(((3, 2), (5, 1))), 11)
    assert cert.counts == {3: 2, 5: 1}


def test_subset_sum_zero_target():
    for a in (ms(), ms(4, 4, 9), ms(-2, 7)):
        cert = solve_subset_sum(a, 0)
        assert cert is not None and cert.counts == {}


def test_subset_sum_parity_blocks():
    assert solve_subset_sum(Multiset(((2, 3),)), 5) is None


def test_subset_sum_empty_multiset():
    assert solve_subset_sum(ms(), 0) is not None
    assert solve_subset_sum(ms(), 3) is None


def test_partition_examples():
    assert solve_partition(Multiset(((1, 2),))).counts == {1: 1}
    assert solve_partition(Multiset(((1, 3),))) is None
    a = Multiset(((2, 2), (3, 2), (4, 1)))
    assert brute_partition(a)
    cert = solve_partition(a)
    assert validate_partition_certificate(a, cert)
    assert cert.selection_sum() == 7


def test_partition_empty():
    cert = solve_partition(ms())
    assert cert is not None and cert.counts == {}


def test_num3dm_worked_example():
    a, b, c = ms(1, 2), ms(1, 2), ms(3, 3)
    assert brute_num3dm(a, b, c, 6)
    cover = solve_num_3dm(a, b, c, 6)
    assert sorted(cover.triples) == [(1, 2, 3, 1), (2, 1, 3, 1)]
    assert validate_num3dm_cover(a, b, c, 6, cover)


def test_num3dm_forced_and_impossible():
    cover = solve_num_3dm(ms(1), ms(1), ms(1), 3)
    assert cover.triples == ((1, 1, 1, 1),)
    assert solve_num_3dm(ms(1), ms(1), ms(1), 0) is None


def test_num3dm_cardinality_mismatch():
    with pytest.raises(CardinalityMismatch):
        solve_num_3dm(ms(1, 2), ms(1), ms(1), 3)


def test_nmts_examples():
    cover = solve_nmts(ms(1, 2), ms(3, 4), ms(4, 6))
    assert sorted(cover.triples) == [(1, 3, 4, 1), (2, 4, 6, 1)]
    assert solve_nmts(ms(1), ms(1), ms(2)).triples == ((1, 1, 2, 1),)
    assert solve_nmts(ms(1), ms(1), ms(3)) is None


def test_3partition_examples():
    cover = solve_3partition(Multiset(((1, 2), (2, 2), (3, 2))))
    assert cover.triples == ((1, 2, 3, 2),)
    assert solve_3partition(Multiset(((2, 6),))).triples == ((2, 2, 2, 2),)
    with pytest.raises(NotDivisibleBy3):
        solve_3partition(Multiset(((1, 4),)))


def test_num3dm_total_sum_cliff_settles_at_root():
    # Total 690 differs from n*s = 60*11: the equality rows have no rational
    # solution, although every row alone fits its boxes.
    a = Multiset(tuple((v, 10) for v in range(1, 7)))
    c = Multiset(tuple((v, 10) for v in range(2, 8)))
    begin = time.perf_counter()
    assert solve_num_3dm(a, a, c, 11) is None
    assert time.perf_counter() - begin < 1.0


def test_3partition_cliff_solves():
    # 48 triples (x, y, 20-x-y) with one unit moved between two values.
    a, _ = parse_multiset((FIXTURES / "tp_cliff.txt").read_text())
    begin = time.perf_counter()
    cover = solve_3partition(a)
    assert time.perf_counter() - begin < 1.0
    assert validate_3partition_cover(a, cover)


def test_subsetsum_cliff_solves():
    # Eight values near 10**6, 10**4 copies each, and a planted target: a
    # search starting every box at its low end runs far past the limit.
    a, s = parse_multiset((FIXTURES / "ss_cliff.txt").read_text(),
                          expect_target=True)
    begin = time.perf_counter()
    cert = solve_subset_sum(a, s)
    assert time.perf_counter() - begin < 1.0
    assert validate_subset_certificate(a, s, cert)


def test_3partition_non_integral_target():
    # Cardinality 6, total 13: no integral per-triple sum.
    assert solve_3partition(ms(1, 1, 1, 1, 1, 8)) is None


def test_variety_bound_on_built_programs():
    a = ms(3, 3, 5, 7, 7, 7)
    assert len(subset_sum_program(a, 10).variables) <= a.variety()
    assert len(partition_program(ms(2, 2, 4)).variables) <= 2
    b, c = ms(1, 2, 2), ms(4, 5, 6)
    k = len({*a.values(), *b.values(), *c.values()})
    assert len(num3dm_program(a, b, c, 12).variables) <= k ** 3
    assert len(nmts_program(a, b, c).variables) <= k ** 3
    d = ms(1, 1, 2, 2, 3, 3)
    k = d.variety()
    assert len(three_partition_program(d).variables) <= comb(k + 2, 3)


def test_num3dm_pair_sum_variety_remark():
    # When C has more distinct values than {a+b} has, no matching can exist.
    a, b = ms(1, 1, 1, 1), ms(2, 2, 2, 2)
    c = ms(3, 4, 5, 6)
    pair_sums = {x + y for x in a.values() for y in b.values()}
    assert c.variety() > len(pair_sums)
    for s in range(0, 12):
        assert solve_num_3dm(a, b, c, s) is None


def test_num3dm_pair_sum_variety_remark_randomized():
    from varsolve.corpus import make_rng
    rng = make_rng(13)
    found = 0
    while found < 40:
        n = rng.randint(1, 5)
        a = Multiset.from_values(rng.randint(0, 4) for _ in range(n))
        b = Multiset.from_values(rng.randint(0, 4) for _ in range(n))
        c = Multiset.from_values(rng.randint(0, 20) for _ in range(n))
        pair_sums = {x + y for x in a.values() for y in b.values()}
        if c.variety() <= len(pair_sums):
            continue
        for s in range(-1, 26):
            assert solve_num_3dm(a, b, c, s) is None
        found += 1


def test_negative_values_accepted():
    a = ms(-3, -3, 5, 1)
    cert = solve_subset_sum(a, 2)
    assert cert is not None
    assert validate_subset_certificate(a, 2, cert)
    assert brute_subset_sum(a, 2)


# Oracle comparisons on small instances: each cardinality stays far under the
# oracle's cap of 20, values run negative, and every multiset may be empty.
# A planted instance is a YES by construction, a perturbed one mostly a NO.
VALUES = st.integers(-6, 9)
ORACLE_SETTINGS = settings(derandomize=True, database=None, max_examples=150,
                           deadline=None)


@st.composite
def subset_sum_instances(draw):
    picked = draw(st.lists(VALUES, max_size=5))
    rest = draw(st.lists(VALUES, max_size=5))
    s = draw(st.one_of(st.just(sum(picked)), st.integers(-30, 40)))
    return Multiset.from_values(picked + rest), s


@st.composite
def partition_instances(draw):
    half = draw(st.lists(VALUES, max_size=5))
    other = draw(st.lists(VALUES, min_size=1, max_size=5))
    if draw(st.booleans()):
        other[-1] += sum(half) - sum(other)
    return Multiset.from_values(half + other)


@st.composite
def triple_columns(draw, rule):
    """Three equal-length columns whose rows obey ``rule(x, y)`` until
    perturbed: one entry moved off its row, or the third column redrawn."""
    n = draw(st.integers(0, 5))
    first = draw(st.lists(VALUES, min_size=n, max_size=n))
    second = draw(st.lists(VALUES, min_size=n, max_size=n))
    third = [rule(x, y) for x, y in zip(first, second)]
    mode = draw(st.sampled_from(["planted", "perturbed", "free"]))
    if mode == "perturbed" and n:
        third[0] += draw(st.sampled_from([-2, -1, 1, 2]))
    elif mode == "free":
        third = draw(st.lists(VALUES, min_size=n, max_size=n))
    return first, second, third


@st.composite
def num3dm_instances(draw):
    s = draw(st.integers(-12, 20))
    a, b, c = draw(triple_columns(lambda x, y: s - x - y))
    return Multiset.from_values(a), Multiset.from_values(b), Multiset.from_values(c), s


@st.composite
def nmts_instances(draw):
    a, b, s = draw(triple_columns(lambda x, y: x + y))
    # A shifted S lies wholly outside the pair sums' range: the guard's No.
    shift = draw(st.sampled_from([0, 0, 0, 40, -40]))
    return (Multiset.from_values(a), Multiset.from_values(b),
            Multiset.from_values([v + shift for v in s]))


@st.composite
def three_partition_instances(draw):
    target = draw(st.integers(-6, 20))
    first, second, third = draw(triple_columns(lambda x, y: target - x - y))
    values = first + second + third
    if draw(st.integers(0, 4)) == 0:
        values += draw(st.lists(VALUES, min_size=1, max_size=2))
    return Multiset.from_values(values)


@ORACLE_SETTINGS
@given(subset_sum_instances())
@example((Multiset(), 0))
@example((Multiset(), 3))
def test_subset_sum_matches_oracle(instance):
    a, s = instance
    cert = solve_subset_sum(a, s)
    assert (cert is not None) == brute_subset_sum(a, s)
    if cert is not None:
        assert validate_subset_certificate(a, s, cert)


@ORACLE_SETTINGS
@given(partition_instances())
@example(Multiset())
def test_partition_matches_oracle(a):
    cert = solve_partition(a)
    assert (cert is not None) == brute_partition(a)
    if cert is not None:
        assert validate_partition_certificate(a, cert)


@ORACLE_SETTINGS
@given(num3dm_instances())
@example((Multiset(), Multiset(), Multiset(), 0))
def test_num3dm_matches_oracle(instance):
    a, b, c, s = instance
    cover = solve_num_3dm(a, b, c, s)
    assert (cover is not None) == brute_num3dm(a, b, c, s)
    if cover is not None:
        assert validate_num3dm_cover(a, b, c, s, cover)


@ORACLE_SETTINGS
@given(nmts_instances())
@example((Multiset(), Multiset(), Multiset()))
def test_nmts_matches_oracle(instance):
    a, b, s = instance
    cover = solve_nmts(a, b, s)
    assert (cover is not None) == brute_nmts(a, b, s)
    if cover is not None:
        assert validate_nmts_cover(a, b, s, cover)


@ORACLE_SETTINGS
@given(three_partition_instances())
@example(Multiset())
def test_3partition_matches_oracle(a):
    if a.cardinality() % 3:
        with pytest.raises(NotDivisibleBy3):
            solve_3partition(a)
        assert not brute_3partition(a)
        return
    cover = solve_3partition(a)
    assert (cover is not None) == brute_3partition(a)
    if cover is not None:
        assert validate_3partition_cover(a, cover)


@st.composite
def four_value_draws(draw):
    """Four distinct values from 667 to 1,333 with multiplicities 5 to 20, and
    a target that is either the sum of a drawn selection or within one value
    of half the total: about two in five of these pass 32 search nodes."""
    values = draw(st.lists(st.integers(667, 1_333), min_size=4, max_size=4, unique=True))
    a = Multiset(tuple([(value, draw(st.integers(5, 20))) for value in values]))
    if draw(st.booleans()):
        return a, sum([value * draw(st.integers(0, m)) for value, m in a.entries])
    return a, a.total() // 2 + draw(st.integers(-1_333, 1_333))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(four_value_draws(), st.booleans())
def test_kernel_lattice_matches_reachable_sums(draw, partition):
    a, s = draw
    if partition:
        s = a.total() // 2 if a.total() % 2 == 0 else None
    with pytest.MonkeyPatch.context() as patch:
        calls = knapsacks.lattice_calls(patch)
        cert = solve_partition(a) if partition else solve_subset_sum(a, s)
    reachable = s is not None and knapsacks.benchmark_checks().subset_sum_reference(
        dict(a.entries), s)
    assert (cert is not None) == reachable
    if cert is not None:
        assert (validate_partition_certificate(a, cert) if partition
                else validate_subset_certificate(a, s, cert))
    # Only draws that moved to the kernel lattice count as examples.
    assume(calls)
