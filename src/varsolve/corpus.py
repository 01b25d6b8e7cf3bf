"""Seeded random instance generators and solver/oracle pairing harnesses.

All randomness in the toolkit flows through the Random objects created
here, so every corpus is reproducible from a single seed.  ``FAMILIES``
maps each family name to its ``check(seed, count)``, which returns the
number of instances checked and raises AssertionError on the first
disagreement, naming the offending instance.  Every family that runs a
solver compares each verdict with its brute-force oracle and checks every
YES certificate with the oracle's validator.  Most families are one row of
``_paired``: a generator, the solver, the oracle and the certificate check.
"""

from __future__ import annotations

import random
from itertools import product

from . import census_solvers, oracle
from .ilp import Constraint, IntegerProgram, satisfies, solve_feasibility
from .mealy import EMPTY, CensusRequirement, MealyMachine, Transition
from .reductions import (HeatInstance, MulticoloredGraph, SplitsInstance,
                         heat_to_ewmm, mcc_to_gwmm, splits_to_gwmm,
                         subsetsum_to_partition)
from .variety import (Multiset, solve_3partition, solve_num_3dm, solve_nmts,
                      solve_partition, solve_subset_sum)


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def random_program(rng: random.Random, max_vars: int = 6,
                   max_bound: int = 8) -> IntegerProgram:
    """Small box-bounded program with roughly balanced verdicts."""
    n_vars = rng.randint(0, max_vars)
    variables = []
    box_product = 1
    for i in range(n_vars):
        lo = rng.randint(0, max_bound)
        hi = rng.randint(lo, max_bound)
        if box_product * (hi - lo + 1) > 4000:
            hi = lo
        box_product *= hi - lo + 1
        variables.append((f"x{i+1}", lo, hi))
    names = [name for name, _, _ in variables]
    constraints = []
    anchor = {name: rng.randint(lo, hi) for name, lo, hi in variables}
    for _ in range(rng.randint(0, 4)):
        support = [name for name in names if rng.random() < 0.7]
        coeffs = {name: rng.randint(-4, 4) for name in support}
        coeffs = {name: c for name, c in coeffs.items() if c}
        relation = rng.choice(("<=", "=", ">="))
        pivot = sum(c * anchor[name] for name, c in coeffs.items())
        rhs = pivot + rng.randint(-3, 3)
        constraints.append(Constraint(coeffs, relation, rhs))
    return IntegerProgram(tuple(variables), tuple(constraints))


def enumerate_feasibility(program: IntegerProgram):
    """Exhaustive check over the box product; independent of the solver."""
    names = [name for name, _, _ in program.variables]
    ranges = [range(lo, hi + 1) for _, lo, hi in program.variables]
    for point in product(*ranges):
        assignment = dict(zip(names, point))
        if satisfies(program, assignment):
            return assignment
    return None


def random_multiset(rng: random.Random, max_cardinality: int = 12,
                    max_value: int = 20, min_cardinality: int = 0,
                    min_value: int = 0) -> Multiset:
    cardinality = rng.randint(min_cardinality, max_cardinality)
    return Multiset.from_values(
        rng.randint(min_value, max_value) for _ in range(cardinality))


def random_subset_sum_instance(rng: random.Random) -> tuple[Multiset, int]:
    a = random_multiset(rng)
    if rng.random() < 0.5:
        target = sum(v for v in a.expand() if rng.random() < 0.5)
    else:
        target = rng.randint(0, max(1, a.total()))
    return a, target


def random_num3dm_instance(rng: random.Random, max_n: int = 6):
    n = rng.randint(0, max_n)
    if rng.random() < 0.5:
        s = rng.randint(3, 30)
        a_vals, b_vals, c_vals = [], [], []
        for _ in range(n):
            av = rng.randint(0, min(20, s))
            bv = rng.randint(0, min(20, s - av))
            a_vals.append(av)
            b_vals.append(bv)
            c_vals.append(s - av - bv)
        return (Multiset.from_values(a_vals), Multiset.from_values(b_vals),
                Multiset.from_values(c_vals), s)
    a = Multiset.from_values(rng.randint(0, 10) for _ in range(n))
    b = Multiset.from_values(rng.randint(0, 10) for _ in range(n))
    c = Multiset.from_values(rng.randint(0, 10) for _ in range(n))
    return a, b, c, rng.randint(0, 25)


def random_nmts_instance(rng: random.Random, max_n: int = 6):
    n = rng.randint(0, max_n)
    if rng.random() < 0.5:
        a_vals = [rng.randint(0, 10) for _ in range(n)]
        b_vals = [rng.randint(0, 10) for _ in range(n)]
        s_vals = [a_vals[i] + b_vals[i] for i in range(n)]
        rng.shuffle(s_vals)
        return (Multiset.from_values(a_vals), Multiset.from_values(b_vals),
                Multiset.from_values(s_vals))
    return (Multiset.from_values(rng.randint(0, 10) for _ in range(n)),
            Multiset.from_values(rng.randint(0, 10) for _ in range(n)),
            Multiset.from_values(rng.randint(0, 20) for _ in range(n)))


def random_3partition_instance(rng: random.Random, max_n: int = 4) -> Multiset:
    n = rng.randint(0, max_n)
    if rng.random() < 0.5:
        s = rng.randint(3, 24)
        values = []
        for _ in range(n):
            x = rng.randint(0, min(8, s))
            y = rng.randint(0, min(8, s - x))
            values.extend((x, y, s - x - y))
        return Multiset.from_values(values)
    return Multiset.from_values(rng.randint(0, 8) for _ in range(3 * n))


_LETTERS = ("a", "b", "c")


def random_machine(rng: random.Random, max_states: int = 3, max_letters: int = 3,
                   max_transitions: int = 6, allow_empty: bool = True) -> MealyMachine:
    n_states = rng.randint(1, max_states)
    states = tuple(f"q{i}" for i in range(n_states))
    inputs = list(_LETTERS[:rng.randint(1, max_letters)])
    outputs = list(_LETTERS[:rng.randint(1, max_letters)])
    if allow_empty and rng.random() < 0.5:
        inputs.append(EMPTY)
    if allow_empty and rng.random() < 0.5:
        outputs.append(EMPTY)
    transitions = set()
    for _ in range(rng.randint(0, max_transitions)):
        transitions.add(Transition(rng.choice(states), rng.choice(inputs),
                                   rng.choice(states), rng.choice(outputs)))
    return MealyMachine(
        states=frozenset(states), start="q0",
        input_alphabet=frozenset(inputs), output_alphabet=frozenset(outputs),
        transitions=tuple(sorted(transitions)))


def random_simple_machine(rng: random.Random, max_states: int = 6,
                          arc_probability: float = 0.5) -> MealyMachine:
    """Machine whose underlying digraph is simple (one arc per state pair)."""
    n_states = rng.randint(1, max_states)
    states = tuple(f"q{i}" for i in range(n_states))
    transitions = []
    for source in states:
        for target in states:
            if source == target and rng.random() < 0.8:
                continue
            if rng.random() < arc_probability:
                transitions.append(Transition(source, "a", target, "x"))
    return MealyMachine(
        states=frozenset(states), start="q0",
        input_alphabet=frozenset(("a",)), output_alphabet=frozenset(("x",)),
        transitions=tuple(transitions))


def random_walk(rng: random.Random, m: MealyMachine, max_len: int = 40):
    """Random transition walk from the start state."""
    state = m.start
    walk = []
    for _ in range(rng.randint(0, max_len)):
        options = [t for t in m.transitions if t.source == state]
        if not options:
            break
        t = rng.choice(options)
        walk.append(t)
        state = t.target
    return walk


def random_census(rng: random.Random, m: MealyMachine,
                  max_total: int = 6) -> CensusRequirement:
    """Half the time the census of an actual random walk, else random counts."""
    letters = sorted(l for l in m.output_alphabet if l != EMPTY)
    if rng.random() < 0.5:
        counts: dict[str, int] = {}
        state = m.start
        for _ in range(rng.randint(0, max_total)):
            moves = m.transitions_from(state)
            if not moves:
                break
            t = rng.choice(moves)
            if t.writes != EMPTY:
                counts[t.writes] = counts.get(t.writes, 0) + 1
            state = t.target
        return CensusRequirement.of(counts)
    total = rng.randint(0, max_total)
    counts = {}
    for _ in range(total):
        if not letters:
            break
        letter = rng.choice(letters)
        counts[letter] = counts.get(letter, 0) + 1
    return CensusRequirement.of(counts)


def random_word(rng: random.Random, m: MealyMachine, max_len: int = 6) -> tuple:
    letters = sorted(l for l in m.input_alphabet if l != EMPTY)
    if not letters:
        return ()
    return tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len)))


def random_gwmm_census(rng: random.Random, m: MealyMachine,
                       x: tuple) -> CensusRequirement:
    """Census of a random computation reading x when one is found, else random."""
    if rng.random() < 0.5:
        state = m.start
        pos = 0
        counts: dict[str, int] = {}
        for _ in range(len(x) + 2 * len(m.states) + 2):
            moves = [t for t in m.transitions_from(state)
                     if t.reads == EMPTY or (pos < len(x) and t.reads == x[pos])]
            if not moves:
                break
            t = rng.choice(moves)
            if t.reads != EMPTY:
                pos += 1
            if t.writes != EMPTY:
                counts[t.writes] = counts.get(t.writes, 0) + 1
            state = t.target
            if pos == len(x) and rng.random() < 0.4:
                break
        if pos == len(x):
            return CensusRequirement.of(counts)
    return random_census(rng, m)


def random_multicolored_graph(rng: random.Random, k: int = 3,
                              max_class_size: int = 3) -> MulticoloredGraph:
    """Connected graph with independent color classes and random cross edges."""
    classes = tuple(
        tuple(f"{chr(ord('a') + i)}{p+1}" for p in range(rng.randint(1, max_class_size)))
        for i in range(k))
    density = rng.uniform(0.2, 0.9)
    edges = []
    for i in range(k):
        for j in range(i + 1, k):
            for u in classes[i]:
                for v in classes[j]:
                    if rng.random() < density:
                        edges.append((u, v))
    vertices = [v for cls in classes for v in cls]
    # Patch connectivity with cross-class edges along a vertex chain.
    def connected(edge_list):
        return MulticoloredGraph(k=k, classes=classes,
                                 edges=tuple(edge_list)).is_connected()
    owner = {v: i for i, cls in enumerate(classes) for v in cls}
    attempts = 0
    while not connected(edges) and attempts < 100:
        u, v = rng.sample(vertices, 2)
        if owner[u] != owner[v] and (u, v) not in edges and (v, u) not in edges:
            edges.append((u, v))
        attempts += 1
    return MulticoloredGraph(k=k, classes=classes, edges=tuple(edges))


def random_splits_instance(rng: random.Random, max_gaps: int = 7,
                           max_gap: int = 4) -> SplitsInstance:
    gaps = tuple(rng.randint(1, max_gap) for _ in range(rng.randint(0, max_gaps)))
    if rng.random() < 0.5 and gaps:
        # Census of an actual random play, so roughly half are winnable.
        stops = [0, 0]
        deadline = 0
        census: dict[int, int] = {}
        for gap in gaps:
            deadline += gap
            side = rng.randint(0, 1)
            job = deadline - stops[side]
            stops[side] = deadline
            census[job] = census.get(job, 0) + 1
        return SplitsInstance(gaps=gaps, job_census=census)
    census = {}
    for _ in gaps:
        job = rng.randint(1, max_gap + 3)
        census[job] = census.get(job, 0) + 1
    return SplitsInstance(gaps=gaps, job_census=census)


def _machine_census(rng: random.Random) -> tuple:
    m = random_machine(rng)
    return m, random_census(rng, m)


def _machine_word_census(rng: random.Random, allow_empty: bool = True) -> tuple:
    m = random_machine(rng, allow_empty=allow_empty)
    x = random_word(rng, m)
    return m, x, random_gwmm_census(rng, m, x)


def _random_heat(rng: random.Random) -> HeatInstance:
    """Random thresholds up to 3, census totals up to 6, deadlines up to 8."""
    threshold = rng.randint(1, 3)
    deadline = rng.randint(0, 8)
    census: dict[int, int] = {}
    for _ in range(rng.randint(0, min(6, deadline))):
        level = rng.randint(0, 2 * threshold)
        census[level] = census.get(level, 0) + 1
    return HeatInstance(threshold=threshold, job_census=census, deadline=deadline)


def _audited_mcc(g: MulticoloredGraph) -> tuple:
    """The graph and its given-word image, after checking the image's size."""
    m, x, c = mcc_to_gwmm(g)
    k = g.k
    if len(m.input_alphabet) != k + 3 * k * (k - 1):
        raise AssertionError("input alphabet size off")
    if len(m.output_alphabet) != 1 + 2 * k * (k - 1):
        raise AssertionError("output alphabet size off")
    if len(m.states) != 1 + k * (2 + 4 * (k - 1)):
        raise AssertionError("state count off")
    # Exact word length: per class pair the edge listing is walked once
    # per class-i vertex between |V(i)|+1 delimiters.
    expected_len = 0
    for i in range(1, k + 1):
        size = len(g.classes[i - 1])
        expected_len += (k - 1) * size + 1
        for j in range(1, k + 1):
            if j == i:
                continue
            pair = sum(1 for u, v in g.edges if {g.owner[u], g.owner[v]} == {i, j})
            expected_len += (size + 1) * (1 + pair)
    if len(x) != expected_len:
        raise AssertionError("word length off")
    return g, m, x, c


# The census engines are looked up at call time, so a replaced module
# attribute (a tracer, or a test's tampered solver) is the one checked.
def _ewmm(m: MealyMachine, c: CensusRequirement):
    return census_solvers.solve_ewmm(m, c)


def _gwmm(m: MealyMachine, x: tuple, c: CensusRequirement):
    return census_solvers.solve_gwmm(m, x, c)


def _compare(index: int, instance: tuple, solve, reference, certified) -> None:
    """Raise AssertionError unless ``solve(*instance)`` agrees with
    ``reference(*instance)`` and a YES answer passes ``certified``."""
    answer = solve(*instance)
    if (answer is not None) != reference(*instance):
        problem = "verdict mismatch"
    elif answer is None or certified(*instance, answer):
        return
    else:
        problem = "bad certificate"
    shown = " ".join(map(str, instance))
    raise AssertionError(f"{problem} at instance {index}: {shown}")


def _paired(count: int, generate, solve, reference, certified):
    """The ``check(seed, count)`` of one family: ``count`` instances drawn by
    ``generate(rng)`` as argument tuples, each passed to ``_compare``."""
    def check(seed: int, count: int = count) -> int:
        rng = make_rng(seed)
        for index in range(count):
            _compare(index, generate(rng), solve, reference, certified)
        return count
    return check


_HEAT = (lambda h, m, c: _ewmm(m, c),
         lambda h, m, c: oracle.brute_heat_schedule(h),
         lambda h, *walk: oracle.validate_ewmm_decomposition(*walk))


def _check_heat(seed: int = 0) -> int:
    """Exhaustive over threshold 1: censuses totalling <= 5, deadlines <= 7."""
    grid = [HeatInstance(threshold=1, job_census={0: c0, 1: c1, 2: c2},
                         deadline=deadline)
            for deadline in range(8) for c0 in range(6)
            for c1 in range(6 - c0) for c2 in range(6 - c0 - c1)
            if c0 + c1 + c2 <= deadline]
    for index, h in enumerate(grid):
        _compare(index, (h, *heat_to_ewmm(h)), *_HEAT)
    return len(grid)


def _check_gwmm_guard(seed: int, count: int = 30) -> int:
    """Instances whose census total exceeds the word length; all No."""
    rng = make_rng(seed)
    for _ in range(count):
        m = random_machine(rng, allow_empty=False)
        x = random_word(rng, m)
        letters = sorted(l for l in m.output_alphabet if l != EMPTY)
        counts: dict[str, int] = {}
        for _ in range(len(x) + rng.randint(1, 3)):
            letter = rng.choice(letters)
            counts[letter] = counts.get(letter, 0) + 1
        if _gwmm(m, x, CensusRequirement.of(counts)) is not None:
            raise AssertionError("census above the word length met")
    return count


def _check_reduce_partition(seed: int, count: int = 500) -> int:
    """Subset sum against the partition image, oracle against oracle; every
    other instance holds signed values, with a target between the sum of
    its negative values and the sum of its positive ones."""
    rng = make_rng(seed)
    for index in range(count):
        a = random_multiset(rng, max_cardinality=8, max_value=10,
                            min_value=-10 if index % 2 else 0)
        s = rng.randint(sum(v for v in a.expand() if v < 0),
                        sum(v for v in a.expand() if v > 0))
        image = subsetsum_to_partition(a, s)
        if oracle.brute_partition(image) != oracle.brute_subset_sum(a, s):
            raise AssertionError(f"partition reduction mismatch at instance {index}")
        if image.variety() > a.variety() + 1:
            raise AssertionError("variety grew by more than one")
    return count


FAMILIES = {
    "ilp": _paired(1000, lambda rng: (random_program(rng),), solve_feasibility,
                   lambda p: enumerate_feasibility(p) is not None,
                   lambda p, witness: satisfies(p, witness.values)),
    "subsetsum": _paired(500, random_subset_sum_instance, solve_subset_sum,
                         oracle.brute_subset_sum, oracle.validate_subset_certificate),
    "partition": _paired(500, lambda rng: (random_multiset(rng),), solve_partition,
                         oracle.brute_partition, oracle.validate_partition_certificate),
    "num3dm": _paired(500, random_num3dm_instance, solve_num_3dm,
                      oracle.brute_num3dm, oracle.validate_num3dm_cover),
    "nmts": _paired(500, random_nmts_instance, solve_nmts,
                    oracle.brute_nmts, oracle.validate_nmts_cover),
    "threepartition": _paired(500, lambda rng: (random_3partition_instance(rng),),
                              solve_3partition, oracle.brute_3partition,
                              oracle.validate_3partition_cover),
    "ewmm": _paired(300, _machine_census, _ewmm, oracle.brute_ewmm,
                    oracle.validate_ewmm_decomposition),
    "gwmm": _paired(300, _machine_word_census, _gwmm, oracle.brute_gwmm,
                    oracle.validate_gwmm_trace),
    "gwmm-guard": _check_gwmm_guard,
    "gwmm-empty-free": _paired(200, lambda rng: _machine_word_census(rng, False),
                               _gwmm, oracle.brute_gwmm, oracle.validate_gwmm_trace),
    "mcc": _paired(50, lambda rng: _audited_mcc(random_multicolored_graph(rng)),
                   lambda g, *image: _gwmm(*image),
                   lambda g, *image: oracle.brute_mcc_clique(g),
                   lambda g, *trace: oracle.validate_gwmm_trace(*trace)),
    "heat": _check_heat,
    "heat-random": _paired(150, lambda rng: (h := _random_heat(rng), *heat_to_ewmm(h)),
                           *_HEAT),
    "splits": _paired(200, lambda rng: (s := random_splits_instance(rng),
                                        *splits_to_gwmm(s)),
                      lambda s, *image: _gwmm(*image),
                      lambda s, *image: oracle.brute_splits_game(s),
                      lambda s, *trace: oracle.validate_gwmm_trace(*trace)),
    "reduce-partition": _check_reduce_partition,
}
