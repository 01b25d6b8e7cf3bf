"""Machine model: subdivision, execution, censuses, walk decomposition."""

from collections import Counter

import pytest

from varsolve.corpus import make_rng, random_machine
from varsolve.mealy import (EMPTY, CensusRequirement, IllegalChoice,
                            InputNotConsumed, Loop, MealyMachine, NotAWalk,
                            Transition, WalkDecomposition, census_of,
                            decompose_counts, decompose_walk, run, subdivide,
                            subdivide_part)


def machine(states, start, inputs, outputs, transitions):
    return MealyMachine(states=frozenset(states), start=start,
                        input_alphabet=frozenset(inputs),
                        output_alphabet=frozenset(outputs),
                        transitions=tuple(Transition(*t) for t in transitions))


IDENTITY = machine({"q"}, "q", {"a", "b"}, {"a", "b"},
                   [("q", "a", "q", "a"), ("q", "b", "q", "b")])


def test_run_identity():
    assert run(IDENTITY, "aab", [0, 0, 1]) == ("a", "a", "b")


def test_run_all_empty_writer():
    m = machine({"q"}, "q", {"a"}, {EMPTY}, [("q", "a", "q", EMPTY)])
    assert run(m, "aaa", [0, 0, 0]) == ()


def test_run_rejects_illegal_choice():
    with pytest.raises(IllegalChoice):
        run(IDENTITY, "ab", [0, 0])


def test_run_requires_full_consumption():
    with pytest.raises(InputNotConsumed):
        run(IDENTITY, "ab", [0])


def test_census_of():
    assert census_of("abab").as_dict() == {"a": 2, "b": 2}
    assert census_of("").as_dict() == {}
    assert census_of(("x", EMPTY, "x")).as_dict() == {"x": 2}


def test_census_requirement_normalization():
    assert CensusRequirement.of({"a": 0, "b": 2}) == CensusRequirement.of({"b": 2})
    with pytest.raises(ValueError):
        CensusRequirement.of({"a": -1})


def test_subdivide_parallel_transitions():
    m = machine({"s", "t"}, "s", {"a", "b"}, {"x", "y"},
                [("s", "a", "t", "x"), ("s", "b", "t", "y")])
    sub = subdivide(m)
    assert len(sub.states) == 4
    assert len(sub.transitions) == 4
    assert sub.is_simple()


def test_subdivide_self_loop():
    m = machine({"s"}, "s", {"a"}, {"x"}, [("s", "a", "s", "x")])
    sub = subdivide(m)
    assert len(sub.states) == 2
    assert len(sub.transitions) == 2
    assert sub.is_simple()


def test_subdivide_size_bounds():
    rng = make_rng(5)
    for _ in range(100):
        m = random_machine(rng, max_states=4, max_letters=3, max_transitions=8)
        sub = subdivide(m)
        assert sub.is_simple()
        assert len(sub.states) == len(m.states) + len(m.transitions)
        k = len(m.states) + len(m.input_alphabet) + len(m.output_alphabet)
        assert len(sub.states) <= k + k ** 4


# State names that clash with fresh ones (t0 ... t8), that look like them but
# are other names (t00, t, T1, a Devanagari digit), and plain ones.
T_NAMES = ("t0", "t1", "t2", "t3", "t5", "t8", "t00", "t", "T1", "t\u0967", "q", "s")


def renamed(m, names):
    """m with its states renamed, in sorted order, to ``names``."""
    to = dict(zip(sorted(m.states), names))
    return MealyMachine(frozenset(to.values()), to[m.start], m.input_alphabet,
                        m.output_alphabet,
                        tuple(Transition(to[t.source], t.reads, to[t.target], t.writes)
                              for t in m.transitions))


def subdivision_cases():
    """Random machines, some renamed onto T_NAMES, and self-loop machines."""
    rng = make_rng(17)
    for _ in range(300):
        m = random_machine(rng, max_states=5, max_letters=3, max_transitions=10)
        if rng.random() < 0.6:
            m = renamed(m, rng.sample(T_NAMES, len(m.states)))
        yield m
    for state in ("s", "t0", "t1"):
        yield machine({state}, state, {"a"}, {"x", EMPTY},
                      [(state, "a", state, "x"), (state, "a", state, EMPTY)])


def test_subdivision_names_and_validity():
    rng = make_rng(3)
    for m in subdivision_cases():
        sub = subdivide(m)
        # The checking constructor accepts what subdivide built unchecked.
        assert MealyMachine(*sub) == sub
        # Transition i's fresh state is the i-th free name t0, t1, ...
        free = (f"t{j}" for j in range(len(m.states) + len(m.transitions))
                if f"t{j}" not in m.states)
        assert [hop.target for hop in sub.transitions[::2]] == \
            [next(free) for _ in m.transitions]
        # A part holds the same hops, in the order of its indices.
        indices = rng.sample(range(len(m.transitions)), rng.randint(0, len(m.transitions)))
        part = subdivide_part(m, indices)
        assert part.transitions == tuple(sub.transitions[2 * i + hop]
                                         for i in indices for hop in (0, 1))
        assert part.states == m.states | {hop.target for hop in part.transitions[::2]}
        assert MealyMachine(*part) == part


def test_subdivided_replay_preserves_census():
    rng = make_rng(9)
    for _ in range(100):
        m = random_machine(rng, max_transitions=8)
        if not m.transitions:
            continue
        # Random walk on the original machine, then the doubled trace on the
        # subdivision: original transition i becomes transitions 2i and 2i+1.
        state = m.start
        choices = []
        for _ in range(rng.randint(0, 10)):
            options = [i for i, t in enumerate(m.transitions) if t.source == state]
            if not options:
                break
            i = rng.choice(options)
            choices.append(i)
            state = m.transitions[i].target
        word = tuple(m.transitions[i].reads for i in choices
                     if m.transitions[i].reads != EMPTY)
        sub = subdivide(m)
        doubled = [j for i in choices for j in (2 * i, 2 * i + 1)]
        assert census_of(run(m, word, choices)) == census_of(run(sub, word, doubled))


def _arc_census(walk):
    return Counter(walk)


def _check_shape(m, walk, decomposition):
    n = len(m.states)
    assert decomposition.arc_census() == _arc_census(walk)
    assert len(decomposition.base_walk) <= n * n
    base_states = set(decomposition.base_states()) | {m.start}
    for loop in decomposition.loops:
        assert 1 <= len(loop.cycle) <= n
        assert loop.count >= 1
        assert loop.anchor in base_states
        assert loop.cycle[0].source == loop.anchor
        assert loop.cycle[-1].target == loop.anchor
    full = decomposition.walk()
    assert _arc_census(full) == _arc_census(walk)
    word = [t.reads for t in full if t.reads != EMPTY]
    run(m, word, [m.transitions.index(t) for t in full])


def test_decompose_triple_two_cycle():
    m = machine({"s", "t"}, "s", {"a"}, {"x"},
                [("s", "a", "t", "x"), ("t", "a", "s", "x")])
    walk = [m.transitions[0], m.transitions[1]] * 3
    d = decompose_walk(m, walk)
    assert d.base_walk == ()
    assert len(d.loops) == 1
    assert d.loops[0].count == 3
    assert len(d.loops[0].cycle) == 2
    _check_shape(m, walk, d)


def test_decompose_simple_path():
    m = machine({"1", "2", "3"}, "1", {"a"}, {"x"},
                [("1", "a", "2", "x"), ("2", "a", "3", "x")])
    walk = [m.transitions[0], m.transitions[1]]
    d = decompose_walk(m, walk)
    assert d.base_walk == tuple(walk)
    assert d.loops == ()


def test_decompose_stranded_anchor_is_repaired():
    # Walk a b c b d a: the cycle b c b is peeled at b, which the later peel
    # of a b d a removes from the base walk.  Walk s a b c b a, ending at a:
    # the base walk is s a, and the cycle b c b shares no state with it, so
    # one run of the cycle a b a is spliced in to connect it.  Either way
    # the repair must leave every anchor on the base walk.
    for states in ("a b c b d a", "s a b c b a"):
        hops = list(zip(states.split(), states.split()[1:]))
        m = machine(set(states.split()), hops[0][0], {"g"}, {"x"},
                    [(u, "g", v, "x") for u, v in hops])
        walk = list(m.transitions)
        d = decompose_walk(m, walk)
        _check_shape(m, walk, d)


@pytest.mark.parametrize("counts, message", [
    ({("s", "a"): 1, ("a", "b"): 2}, "do not balance"),
    ({("s", "a"): 1, ("b", "c"): 1, ("c", "b"): 1}, "not reached from the start"),
    ({("s", "a"): -1}, "negative"),
], ids=["unbalanced", "cycle-off-the-start", "negative"])
def test_decompose_counts_rejects_counts_of_no_walk(counts, message):
    m = machine({"s", "a", "b", "c"}, "s", {"g"}, {"x"},
                [("s", "g", "a", "x"), ("a", "g", "b", "x"), ("b", "g", "c", "x"),
                 ("c", "g", "b", "x")])
    arc = {(t.source, t.target): t for t in m.transitions}
    with pytest.raises(NotAWalk, match=message):
        decompose_counts(m, {arc[hop]: n for hop, n in counts.items()})


def test_walk_splices_loops_at_first_anchor_visit():
    m = machine({"1", "2"}, "1", {"a"}, {"x", "y"},
                [("1", "a", "2", "x"), ("2", "a", "1", "x"), ("2", "a", "2", "y")])
    there, back, stay = m.transitions
    d = WalkDecomposition(base_walk=(there, back, there),
                          loops=(Loop("2", (stay,), 2), Loop("1", (there, back), 1)))
    assert d.walk() == (there, back, there, stay, stay, back, there)
    assert WalkDecomposition((), (Loop("1", (there, back), 2),)).walk() == (
        there, back, there, back)
    with pytest.raises(ValueError, match="not on the base walk"):
        WalkDecomposition((back,), (Loop("3", (stay,), 1),)).walk()


def test_decompose_rejects_non_walk():
    m = machine({"1", "2"}, "1", {"a"}, {"x"}, [("1", "a", "2", "x")])
    with pytest.raises(NotAWalk):
        decompose_walk(m, [Transition("2", "a", "1", "x")])


def test_decompose_random_walks_arc_census():
    rng = make_rng(21)
    done = 0
    while done < 200:
        m = random_machine(rng, max_states=4, max_letters=2, max_transitions=8)
        sub = subdivide(m)
        state = sub.start
        walk = []
        for _ in range(rng.randint(0, 40)):
            options = [t for t in sub.transitions if t.source == state]
            if not options:
                break
            t = rng.choice(options)
            walk.append(t)
            state = t.target
        d = decompose_walk(sub, walk)
        _check_shape(sub, walk, d)
        done += 1


def test_census_depends_only_on_arc_multiset():
    # Two computations traversing the same transition multiset have equal
    # censuses: reordering loop executions cannot change the verdict.
    m = machine({"s", "t"}, "s", {"a"}, {"x", "y"},
                [("s", "a", "t", "x"), ("t", "a", "s", "y"), ("s", "a", "s", "x")])
    first = [m.transitions[i] for i in (2, 0, 1, 0, 1)]
    second = [m.transitions[i] for i in (0, 1, 2, 0, 1)]
    assert Counter(first) == Counter(second)
    assert (census_of(t.writes for t in first)
            == census_of(t.writes for t in second))
