"""Constructive reductions between the toolkit's problem families.

Covers: subset-sum to partition, multicolored clique to the given-word
census problem, heat-sensitive unit-job scheduling to the exists-word
census problem, and the two-processor splits game to the given-word
census problem.

Only ``subsetsum_to_partition`` builds a ``variety`` type, and it reaches
it as an attribute of the package, which loads ``variety`` on first access,
so the machine reductions load no ``variety``.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .mealy import EMPTY, CensusRequirement, MealyMachine, Transition

if TYPE_CHECKING:
    from .variety import Multiset

_package = sys.modules[__package__]


class TargetOutOfRange(ValueError):
    """Subset-sum target outside [sum of the negative values, sum of the
    positive ones], where no selection's sum lies."""


class MalformedGraph(ValueError):
    """Graph breaks a reduction precondition (disconnected, k < 2)."""


class CensusSizeMismatch(ValueError):
    """Splits census total differs from the number of gaps."""


def subsetsum_to_partition(a: Multiset, s: int) -> Multiset:
    """Add one integer so the result partitions iff a selection sums to s.

    For a target in the lower half the added integer is total - 2s; a target
    in the upper half is first replaced by its complement total - s, which
    yields the same added integer |total - 2s|.  Variety grows by at most 1.
    """
    total = a.total()
    low = sum(v * m for v, m in a.entries if v < 0)
    if not low <= s <= total - low:
        raise TargetOutOfRange(f"target {s} outside [{low}, {total - low}]")
    extra = abs(total - 2 * s)
    entries = []
    bumped = False
    for value, mult in a.entries:
        if value == extra:
            entries.append((value, mult + 1))
            bumped = True
        else:
            entries.append((value, mult))
    if not bumped:
        entries.append((extra, 1))
    return _package.Multiset(tuple(entries))


# typing.NamedTuple forbids a __new__ of its own, so a record type that checks
# its arguments subclasses a NamedTuple of its fields.
class _GraphFields(NamedTuple):
    k: int
    classes: tuple[tuple[str, ...], ...]
    edges: tuple[tuple[str, str], ...]


class MulticoloredGraph(_GraphFields):
    """Vertex classes (each an independent set) plus cross-class edges.

    The edge tuple is ordered; per-class-pair edge sublists inherit this
    order, which the clique reduction relies on.  ``owner`` maps each vertex
    to its class index (from 1); it is derived from ``classes``, so it is
    not a field and takes no part in ``==`` or ``repr``.
    """

    def __new__(cls, k: int, classes: tuple[tuple[str, ...], ...],
                edges: tuple[tuple[str, str], ...]):
        if k != len(classes):
            raise ValueError("k must equal the number of classes")
        owner = {}
        for index, members in enumerate(classes, start=1):
            for v in members:
                if v in owner:
                    raise ValueError(f"vertex {v!r} appears twice")
                owner[v] = index
        seen = set()
        for u, v in edges:
            if u not in owner or v not in owner:
                raise ValueError(f"edge endpoint {u!r}/{v!r} not a vertex")
            if owner[u] == owner[v]:
                raise ValueError(f"edge {u!r}-{v!r} inside one class")
            if frozenset((u, v)) in seen:
                raise ValueError(f"duplicate edge {u!r}-{v!r}")
            seen.add(frozenset((u, v)))
        self = super().__new__(cls, k, classes, edges)
        object.__setattr__(self, "owner", owner)
        return self

    # No ``__slots__ = ()`` here: ``owner`` lives in the instance dict, which
    # this keeps as frozen as the fields.
    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def adjacent(self, u: str, v: str) -> bool:
        return any({u, v} == {a, b} for a, b in self.edges)

    def is_connected(self) -> bool:
        """Whether every vertex is reached from the first, walking a
        neighbour map built once from the edges (O(V + E))."""
        vertices = [v for cls in self.classes for v in cls]
        if not vertices:
            return True
        neighbours: dict[str, list[str]] = {v: [] for v in vertices}
        for a, b in self.edges:
            neighbours[a].append(b)
            neighbours[b].append(a)
        reached = {vertices[0]}
        frontier = [vertices[0]]
        while frontier:
            for w in neighbours[frontier.pop()]:
                if w not in reached:
                    reached.add(w)
                    frontier.append(w)
        return len(reached) == len(vertices)


def _pair_edges(g: MulticoloredGraph) -> dict[tuple[int, int], list[tuple[str, str]]]:
    """The edges between classes i and j under (i, j), oriented (class-i
    vertex first), in edge order, for every ordered pair of classes."""
    pairs = {(i, j): [] for i in range(1, g.k + 1) for j in range(1, g.k + 1) if i != j}
    owner = g.owner
    for u, v in g.edges:
        pairs[owner[u], owner[v]].append((u, v))
        pairs[owner[v], owner[u]].append((v, u))
    return pairs


def mcc_to_gwmm(g: MulticoloredGraph) -> tuple[MealyMachine, tuple, CensusRequirement]:
    """Encode multicolored-clique existence as a given-word census instance.

    The machine depends only on k.  Part i selects one vertex of class i and
    one incident edge toward every other class; the input word lists the
    edges of each class pair grouped by their class-i endpoint, and the
    census forces the selected edges to be incident on the selected vertices
    and to agree across parts.
    """
    if g.k < 2:
        raise MalformedGraph("reduction needs at least two classes")
    if not g.is_connected():
        raise MalformedGraph("graph must be connected")

    k = g.k
    others = {i: [j for j in range(1, k + 1) if j != i] for i in range(1, k + 1)}

    def choose(i):
        return f"choose{i}"

    def chosen(i):
        return f"chosen{i}"

    def gadget(i, j, n):
        return f"edge{i}.{j}.{n}"

    def part_letter(i):
        return f"p{i}"

    def vletter(i, j):
        return f"v{i}.{j}"

    def skip(i, j):
        return f"s{i}.{j}"

    def pick(i, j):
        return f"e{i}.{j}"

    def vertex_count(i, j):
        return f"L{i}.{j}"

    def edge_match(i, j):
        return f"M{i}.{j}"

    states = {"done"}
    input_alphabet = set()
    output_alphabet = {EMPTY}
    transitions: list[Transition] = []
    for i in range(1, k + 1):
        states.add(choose(i))
        states.add(chosen(i))
        input_alphabet.add(part_letter(i))
        for j in others[i]:
            states.update(gadget(i, j, n) for n in (1, 2, 3, 4))
            input_alphabet.update((vletter(i, j), skip(i, j), pick(i, j)))
            output_alphabet.update((vertex_count(i, j), edge_match(i, j)))

    for i in range(1, k + 1):
        js = others[i]
        last = js[-1]
        for r in js:
            transitions.append(Transition(choose(i), vletter(i, r), choose(i),
                                          vertex_count(i, r)))
        transitions.append(Transition(choose(i), vletter(i, last), chosen(i),
                                      vertex_count(i, last)))
        for r in js:
            transitions.append(Transition(chosen(i), vletter(i, r), chosen(i), EMPTY))
        transitions.append(Transition(chosen(i), vletter(i, js[0]),
                                      gadget(i, js[0], 1), EMPTY))
        for pos, j in enumerate(js):
            s1, s2, s3, s4 = (gadget(i, j, n) for n in (1, 2, 3, 4))
            transitions.append(Transition(s1, vletter(i, j), s1, EMPTY))
            transitions.append(Transition(s1, skip(i, j), s1, EMPTY))
            transitions.append(Transition(s1, pick(i, j), s1, EMPTY))
            transitions.append(Transition(s1, skip(i, j), s2, edge_match(i, j)))
            transitions.append(Transition(s2, skip(i, j), s2, edge_match(i, j)))
            transitions.append(Transition(s2, pick(i, j), s2, EMPTY))
            transitions.append(Transition(s2, pick(i, j), s3, EMPTY))
            transitions.append(Transition(s3, skip(i, j), s3, edge_match(j, i)))
            transitions.append(Transition(s3, pick(i, j), s3, EMPTY))
            transitions.append(Transition(s3, vletter(i, j), s4, vertex_count(i, j)))
            transitions.append(Transition(s4, vletter(i, j), s4, vertex_count(i, j)))
            transitions.append(Transition(s4, skip(i, j), s4, EMPTY))
            transitions.append(Transition(s4, pick(i, j), s4, EMPTY))
            if pos + 1 < len(js):
                nxt = js[pos + 1]
                transitions.append(Transition(s4, vletter(i, nxt),
                                              gadget(i, nxt, 1), EMPTY))
            else:
                target = choose(i + 1) if i < k else "done"
                transitions.append(Transition(s4, part_letter(i), target, EMPTY))

    machine = MealyMachine(
        states=frozenset(states),
        start=choose(1),
        input_alphabet=frozenset(input_alphabet),
        output_alphabet=frozenset(output_alphabet),
        transitions=tuple(transitions),
    )

    pair_edges = _pair_edges(g)

    def gaps(i: int, j: int, vertex: str) -> list[int]:
        """Positions of the vertex's incident edges inside the pair list,
        returned as successive index differences, closed by the list end."""
        listing = pair_edges[(i, j)]
        incident = [t for t, (u, _) in enumerate(listing, start=1) if u == vertex]
        bounds = [0] + incident + [len(listing)]
        return [bounds[q + 1] - bounds[q] for q in range(len(bounds) - 1)]

    word: list[str] = []
    for i in range(1, k + 1):
        js = others[i]
        for _ in g.classes[i - 1]:
            word.extend(vletter(i, r) for r in js)
        for j in js:
            word.append(vletter(i, j))
            for vertex in g.classes[i - 1]:
                for q, gap in enumerate(gaps(i, j, vertex)):
                    if q > 0:
                        word.append(pick(i, j))
                    word.extend([skip(i, j)] * gap)
                word.append(vletter(i, j))
        word.append(part_letter(i))

    census: dict[str, int] = {}
    for i in range(1, k + 1):
        for j in others[i]:
            census[vertex_count(i, j)] = len(g.classes[i - 1]) + 1
            census[edge_match(i, j)] = len(pair_edges[(i, j)])
    return machine, tuple(word), CensusRequirement.of(census)


class _HeatFields(NamedTuple):
    threshold: int
    job_census: Mapping[int, int]
    deadline: int


class HeatInstance(_HeatFields):
    """Unit jobs with discrete heat levels, a temperature cap, a deadline."""

    __slots__ = ()

    def __new__(cls, threshold: int, job_census: Mapping[int, int], deadline: int):
        if threshold < 0 or deadline < 0:
            raise ValueError("threshold and deadline must be non-negative")
        total = 0
        for level, count in job_census.items():
            if not 0 <= level <= 2 * threshold:
                raise ValueError(f"heat level {level} outside 0..{2*threshold}")
            if count < 0:
                raise ValueError("negative job count")
            total += count
        if total > deadline:
            raise ValueError("more jobs than time slots")
        return super().__new__(cls, threshold, job_census, deadline)

    def total_jobs(self) -> int:
        return sum(self.job_census.values())


def heat_to_ewmm(h: HeatInstance) -> tuple[MealyMachine, CensusRequirement]:
    """States are processor temperatures; each step writes its job's heat.

    Scheduling a job of heat H at temperature T moves to ceil((T+H)/2),
    which must stay within the threshold.  Unused time slots become
    heat-0 jobs, so the census totals the deadline exactly.  The starting
    temperature is 0.
    """
    k = h.threshold
    states = frozenset(str(t) for t in range(k + 1))
    levels = range(2 * k + 1)
    transitions = []
    for t in range(k + 1):
        for level in levels:
            after = (t + level + 1) // 2
            if after <= k:
                transitions.append(Transition(str(t), "t", str(after), str(level)))
    counts = {str(level): count for level, count in h.job_census.items() if count}
    idle = h.deadline - h.total_jobs()
    if idle:
        counts["0"] = counts.get("0", 0) + idle
    machine = MealyMachine(
        states=states,
        start="0",
        input_alphabet=frozenset(("t",)),
        output_alphabet=frozenset(str(level) for level in levels),
        transitions=tuple(transitions),
    )
    return machine, CensusRequirement.of(counts)


class _SplitsFields(NamedTuple):
    gaps: tuple[int, ...]
    job_census: Mapping[int, int]


class SplitsInstance(_SplitsFields):
    """Gap sequence plus an exact census of two-processor job lengths."""

    __slots__ = ()

    def __new__(cls, gaps: tuple[int, ...], job_census: Mapping[int, int] | None = None):
        if job_census is None:
            job_census = {}  # a fresh empty census per instance, never one shared default
        for gap in gaps:
            if gap <= 0:
                raise ValueError("gaps must be positive")
        for length, count in job_census.items():
            if length <= 0:
                raise ValueError("job lengths must be positive")
            if count < 0:
                raise ValueError("negative job count")
        if sum(job_census.values()) != len(gaps):
            raise CensusSizeMismatch(
                "census total must equal the number of gaps: one job per step")
        return super().__new__(cls, gaps, job_census)


def splits_to_gwmm(s: SplitsInstance) -> tuple[MealyMachine, tuple, CensusRequirement]:
    """Encode the two-processor splits game as a given-word census instance.

    The state is the lag of the idle processor behind the current deadline.
    Reading gap g from lag d, scheduling on the processor that was at the
    deadline writes a job of length g and moves the lag to d+g; scheduling
    on the idle processor writes d+g and moves the lag to g.  Lags beyond
    the largest requested job length collapse into one absorbing state from
    which only the first move remains, since the idle processor can never
    take a legal job again.
    """
    longest = max((length for length, count in s.job_census.items() if count > 0),
                  default=0)
    over = "over"
    states = [str(d) for d in range(longest + 1)] + [over]
    gap_values = sorted(set(s.gaps))
    transitions = []
    seen = set()

    def add(source: str, reads: str, target: str, writes: str) -> None:
        t = Transition(source, reads, target, writes)
        if t not in seen:
            seen.add(t)
            transitions.append(t)

    for d in range(longest + 1):
        for g in gap_values:
            if g <= longest:
                lead_target = str(d + g) if d + g <= longest else over
                add(str(d), str(g), lead_target, str(g))
            if d + g <= longest:
                add(str(d), str(g), str(g), str(d + g))
    for g in gap_values:
        if g <= longest:
            add(over, str(g), over, str(g))

    machine = MealyMachine(
        states=frozenset(states),
        start="0",
        input_alphabet=frozenset(str(g) for g in gap_values),
        output_alphabet=frozenset(str(length) for length in range(1, longest + 1)),
        transitions=tuple(transitions),
    )
    # A list comprehension, not tuple(<generator>): its shrunk tuples pile up on free lists.
    word = tuple([str(g) for g in s.gaps])
    census = CensusRequirement.of(
        {str(length): count for length, count in s.job_census.items()})
    return machine, word, census
