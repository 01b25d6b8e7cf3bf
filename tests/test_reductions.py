"""Reductions: worked examples, oracle agreement, structural audits."""

import time

import pytest

from varsolve import census_solvers
from varsolve.census_solvers import solve_ewmm, solve_gwmm
from varsolve.corpus import FAMILIES, make_rng, random_multicolored_graph
from varsolve.mealy import WalkDecomposition
from varsolve.oracle import (brute_mcc_clique, brute_partition,
                             brute_subset_sum, validate_gwmm_trace)
from varsolve.reductions import (CensusSizeMismatch, HeatInstance, MalformedGraph,
                                 MulticoloredGraph, SplitsInstance, TargetOutOfRange,
                                 _pair_edges, heat_to_ewmm, mcc_to_gwmm,
                                 splits_to_gwmm, subsetsum_to_partition)
from varsolve.variety import Multiset


def ms(*values):
    return Multiset.from_values(values)


def test_partition_reduction_lower_half():
    a = ms(1, 2)
    image = subsetsum_to_partition(a, 1)
    assert sorted(image.expand()) == [1, 1, 2]
    assert brute_partition(image) == brute_subset_sum(a, 1) is True


def test_partition_reduction_adds_zero_at_half():
    a = ms(2, 2)
    image = subsetsum_to_partition(a, 2)
    assert sorted(image.expand()) == [0, 2, 2]
    assert brute_partition(image)


def test_partition_reduction_complement_side():
    a = ms(1, 2)
    image = subsetsum_to_partition(a, 3)
    assert sorted(image.expand()) == [1, 2, 3]
    assert brute_partition(image) == brute_subset_sum(a, 3) is True


def test_partition_reduction_target_out_of_range():
    with pytest.raises(TargetOutOfRange):
        subsetsum_to_partition(ms(1, 2), 4)
    with pytest.raises(TargetOutOfRange):
        subsetsum_to_partition(ms(1, 2), -1)


def test_partition_reduction_oracle_agreement():
    assert FAMILIES["reduce-partition"](42, 500) == 500


def triangle():
    return MulticoloredGraph(k=3, classes=(("a",), ("b",), ("c",)),
                             edges=(("a", "b"), ("a", "c"), ("b", "c")))


def test_mcc_size_audit_k3():
    m, x, c = mcc_to_gwmm(triangle())
    assert len(m.input_alphabet) == 21
    assert len(m.output_alphabet) == 13
    assert len(m.states) == 31


def test_mcc_triangle_is_yes():
    g = triangle()
    assert brute_mcc_clique(g)
    m, x, c = mcc_to_gwmm(g)
    trace = solve_gwmm(m, x, c)
    assert trace is not None
    assert validate_gwmm_trace(m, x, c, trace)


def test_mcc_missing_pair_is_no():
    g = MulticoloredGraph(
        k=3, classes=(("a1", "a2", "a3"), ("b1", "b2", "b3"), ("c1",)),
        edges=(("a1", "c1"), ("a2", "c1"), ("a3", "c1"),
               ("b1", "c1"), ("b2", "c1"), ("b3", "c1")))
    assert not brute_mcc_clique(g)
    m, x, c = mcc_to_gwmm(g)
    assert solve_gwmm(m, x, c) is None


def test_mcc_rejects_disconnected_and_small_k():
    disconnected = MulticoloredGraph(
        k=2, classes=(("a1", "a2"), ("b1", "b2")), edges=(("a1", "b1"),))
    with pytest.raises(MalformedGraph):
        mcc_to_gwmm(disconnected)
    single = MulticoloredGraph(k=1, classes=(("a",),), edges=())
    with pytest.raises(MalformedGraph):
        mcc_to_gwmm(single)


def _path_graph(n, skip=None):
    """A path v0 - v1 - ... - v(n-1) alternating between two classes,
    without the edge leaving vertex ``skip``."""
    vertices = [f"v{i}" for i in range(n)]
    return MulticoloredGraph(
        k=2, classes=(tuple(vertices[0::2]), tuple(vertices[1::2])),
        edges=tuple((vertices[i], vertices[i + 1]) for i in range(n - 1) if i != skip))


def test_is_connected_is_linear_on_a_long_path():
    # Scanning every edge for each popped vertex took about 18 s on this path.
    g = _path_graph(20_000)
    begin = time.perf_counter()
    assert g.is_connected()
    assert time.perf_counter() - begin < 0.5


def test_is_connected_detects_a_disconnected_graph():
    assert not _path_graph(20_000, skip=10_000).is_connected()
    assert not _path_graph(7, skip=5).is_connected()
    assert not _path_graph(7, skip=0).is_connected()
    isolated = MulticoloredGraph(k=2, classes=(("a1", "a2"), ("b1",)),
                                 edges=(("a1", "b1"),))
    assert not isolated.is_connected()
    assert _path_graph(1).is_connected() and _path_graph(2).is_connected()


def test_mcc_graph_type_invariants():
    with pytest.raises(ValueError):
        MulticoloredGraph(k=2, classes=(("a1", "a2"), ("b",)),
                          edges=(("a1", "a2"),))


def _decode_selection(g, machine, trace):
    """Read the selected vertices and edge indices off an accepting trace."""
    k = g.k
    vertices = {}
    edge_index = {}
    for i in range(1, k + 1):
        from_choose = sum(
            1 for t in trace if machine.transitions[t].source == f"choose{i}")
        assert from_choose % (k - 1) == 0
        vertices[i] = g.classes[i - 1][from_choose // (k - 1) - 1]
        for j in range(1, k + 1):
            if j == i:
                continue
            gadget = {f"edge{i}.{j}.1", f"edge{i}.{j}.2"}
            edge_index[(i, j)] = sum(
                1 for t in trace
                if machine.transitions[t].source in gadget
                and machine.transitions[t].writes == f"M{i}.{j}")
    return vertices, edge_index


def test_mcc_accepting_traces_decode_to_cliques():
    # Any census-meeting computation selects one edge per class pair incident
    # on the selected vertices, and both sides pick the same edge; together
    # the selected vertices must form a multicolored clique.
    rng = make_rng(77)
    decoded = 0
    while decoded < 10:
        g = random_multicolored_graph(rng)
        m, x, c = mcc_to_gwmm(g)
        trace = solve_gwmm(m, x, c)
        if trace is None:
            assert not brute_mcc_clique(g)
            continue
        vertices, edge_index = _decode_selection(g, m, trace)
        for i in range(1, g.k + 1):
            for j in range(1, g.k + 1):
                if i == j:
                    continue
                q = edge_index[(i, j)]
                assert q == edge_index[(j, i)]
                listing = _pair_edges(g)[(i, j)]
                assert 1 <= q <= len(listing)
                u, v = listing[q - 1]
                assert u == vertices[i] and v == vertices[j]
        chosen = [vertices[i] for i in range(1, g.k + 1)]
        assert all(g.adjacent(u, v)
                   for n, u in enumerate(chosen) for v in chosen[n + 1:])
        decoded += 1


def test_mcc_reduction_oracle_agreement():
    assert FAMILIES["mcc"](42, 50) == 50


def test_heat_single_hot_job():
    m, c = heat_to_ewmm(HeatInstance(threshold=1, job_census={2: 1}, deadline=1))
    assert solve_ewmm(m, c) is not None


def test_heat_two_hot_jobs_never_cool():
    for deadline in range(2, 8):
        m, c = heat_to_ewmm(
            HeatInstance(threshold=1, job_census={2: 2}, deadline=deadline))
        assert solve_ewmm(m, c) is None


def test_heat_trivial_empty():
    m, c = heat_to_ewmm(HeatInstance(threshold=1, job_census={}, deadline=0))
    assert solve_ewmm(m, c) is not None


def test_heat_machine_shape():
    m, c = heat_to_ewmm(HeatInstance(threshold=3, job_census={5: 1}, deadline=4))
    assert len(m.states) == 4
    assert len(m.output_alphabet) == 7
    assert c.get("0") == 3 and c.get("5") == 1


def test_heat_exhaustive_equivalence():
    assert FAMILIES["heat"]() == 238


def test_heat_random_thresholds_up_to_three():
    assert FAMILIES["heat-random"](42, 150) == 150


def test_heat_rejects_overfull_census():
    with pytest.raises(ValueError):
        HeatInstance(threshold=1, job_census={1: 3}, deadline=2)


def test_splits_winning_figure():
    instance = SplitsInstance(gaps=(4, 1, 2, 1, 1, 1, 4),
                              job_census={1: 1, 3: 3, 4: 1, 5: 2})
    m, x, c = splits_to_gwmm(instance)
    assert len(m.states) == 7
    trace = solve_gwmm(m, x, c)
    assert trace is not None
    assert c.as_dict() == {"1": 1, "3": 3, "4": 1, "5": 2}
    assert validate_gwmm_trace(m, x, c, trace)


def test_splits_single_job():
    m, x, c = splits_to_gwmm(SplitsInstance(gaps=(3,), job_census={3: 1}))
    assert solve_gwmm(m, x, c) is not None


def test_splits_unreachable_length():
    m, x, c = splits_to_gwmm(SplitsInstance(gaps=(1, 1), job_census={1: 1, 3: 1}))
    assert solve_gwmm(m, x, c) is None


def test_splits_census_size_mismatch():
    with pytest.raises(CensusSizeMismatch):
        SplitsInstance(gaps=(1, 1), job_census={1: 1})


def test_splits_oracle_agreement():
    assert FAMILIES["splits"](42, 200) == 200


def test_families_reject_tampered_certificates(monkeypatch):
    # Each YES certificate loses its last step; the harness must notice,
    # whether the shortened trace or walk then misses the census or fails
    # to run at all.
    solve_gwmm_ = census_solvers.solve_gwmm
    solve_ewmm_ = census_solvers.solve_ewmm

    def short_trace(*args):
        trace = solve_gwmm_(*args)
        return trace if trace is None else trace[:-1]

    def short_walk(*args):
        cert = solve_ewmm_(*args)
        return cert if cert is None else WalkDecomposition(cert.base_walk[:-1], cert.loops)

    monkeypatch.setattr(census_solvers, "solve_gwmm", short_trace)
    monkeypatch.setattr(census_solvers, "solve_ewmm", short_walk)
    for name, count in (("mcc", 50), ("splits", 200), ("heat-random", 150)):
        with pytest.raises(AssertionError, match="bad certificate"):
            FAMILIES[name](42, count)
