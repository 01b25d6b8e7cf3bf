"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion carries the instance counts, size caps, and wall-clock
limits it must meet; a test fails if agreement breaks, a certificate does
not validate, or the time limit is exceeded.  Run with ``pytest -s`` to see
the per-criterion lines.
"""

import time
from collections import Counter

from varsolve.census_solvers import solve_ewmm, solve_gwmm
from varsolve.corpus import (FAMILIES, make_rng, random_machine,
                             random_simple_machine, random_walk)
from varsolve.mealy import decompose_walk, subdivide
from varsolve.oracle import brute_splits_game, validate_gwmm_trace
from varsolve.reductions import SplitsInstance, splits_to_gwmm

SEED = 42


class _Criterion:
    def __init__(self, number, description, limit_seconds):
        self.number = number
        self.description = description
        self.limit = limit_seconds

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, kind, value, traceback):
        elapsed = time.perf_counter() - self.started
        status = "PASS" if kind is None and elapsed < self.limit else "FAIL"
        print(f"criterion {self.number} [{self.description}]: {status} "
              f"({elapsed:.1f}s, limit {self.limit}s)")
        if kind is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded {self.limit}s")
        return False


def test_criterion_1_splits_figure_reproduction():
    with _Criterion(1, "splits figure reproduction", 5):
        wins = SplitsInstance(gaps=(4, 1, 2, 1, 1, 1, 4),
                              job_census={1: 1, 3: 3, 4: 1, 5: 2})
        machine, word, census = splits_to_gwmm(wins)
        trace = solve_gwmm(machine, word, census)
        assert trace is not None
        assert validate_gwmm_trace(machine, word, census, trace)
        assert brute_splits_game(wins)
        mutated = SplitsInstance(gaps=(4, 1, 2, 1, 1, 1, 4),
                                 job_census={1: 2, 3: 2, 4: 1, 5: 2})
        machine2, word2, census2 = splits_to_gwmm(mutated)
        assert solve_gwmm(machine2, word2, census2) is None
        assert not brute_splits_game(mutated)


def test_criterion_2_variety_oracle_equivalence():
    with _Criterion(2, "variety solvers vs oracles, 500 each", 120):
        assert FAMILIES["subsetsum"](SEED, 500) == 500
        assert FAMILIES["partition"](SEED + 1, 500) == 500
        assert FAMILIES["num3dm"](SEED + 2, 500) == 500
        assert FAMILIES["nmts"](SEED + 3, 500) == 500
        assert FAMILIES["threepartition"](SEED + 4, 500) == 500


def test_criterion_3_ewmm_oracle_equivalence():
    with _Criterion(3, "exists-word solver vs oracle, 300 machines", 120):
        # the ewmm family lets BudgetExceeded propagate, so no machine running
        # out of the default budget of integer-program nodes is part of the
        # assertion.
        assert FAMILIES["ewmm"](SEED, 300) == 300


def test_criterion_4_gwmm_oracle_equivalence():
    with _Criterion(4, "given-word solver vs oracle, 300 + 30 guard", 120):
        assert FAMILIES["gwmm"](SEED, 300) == 300
        assert FAMILIES["gwmm-guard"](SEED, 30) == 30


def test_criterion_5_mcc_reduction():
    with _Criterion(5, "clique reduction vs brute force, 50 graphs", 600):
        # Size formulas (21/13/31 letters/letters/states for k=3) are checked
        # inside the harness for every generated graph.
        assert FAMILIES["mcc"](SEED, 50) == 50


def test_criterion_6_heat_scheduling_exhaustive():
    with _Criterion(6, "heat scheduling, exhaustive threshold-1 grid", 60):
        assert FAMILIES["heat"]() == 238
        # Forced-No family: two heat-2 jobs can never both run.
        from varsolve.reductions import HeatInstance, heat_to_ewmm
        for count in (2, 3):
            for deadline in range(count, 8):
                m, c = heat_to_ewmm(HeatInstance(
                    threshold=1, job_census={2: count}, deadline=deadline))
                assert solve_ewmm(m, c) is None


def test_criterion_7_walk_decomposition():
    with _Criterion(7, "200 random walks decompose in shape", 30):
        rng = make_rng(SEED)
        for _ in range(200):
            machine = random_simple_machine(rng)
            walk = random_walk(rng, machine, max_len=40)
            decomposition = decompose_walk(machine, walk)
            n = len(machine.states)
            assert decomposition.arc_census() == Counter(walk)
            assert len(decomposition.base_walk) <= n * n
            base_states = set(decomposition.base_states()) | {machine.start}
            for loop in decomposition.loops:
                assert len(loop.cycle) <= n
                assert loop.anchor in base_states


def test_criterion_8_subdivision_audit():
    with _Criterion(8, "100 subdivisions simple and size-bounded", 10):
        rng = make_rng(SEED)
        for _ in range(100):
            machine = random_machine(rng, max_states=4, max_letters=3,
                                     max_transitions=10)
            sub = subdivide(machine)
            assert sub.is_simple()
            k = (len(machine.states) + len(machine.input_alphabet)
                 + len(machine.output_alphabet))
            assert (len(sub.states)
                    <= len(machine.states) + len(machine.transitions)
                    <= k + k ** 4)
