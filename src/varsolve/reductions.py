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
from functools import partial
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .mealy import EMPTY, CensusRequirement, MealyMachine, Transition

if TYPE_CHECKING:
    from .variety import Multiset

_package = sys.modules[__package__]

# Transition(*row) without the Python call of Transition's own __new__.
_transition = partial(tuple.__new__, Transition)


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
        return cls._checked(k, classes, edges, owner)

    @classmethod
    def _checked(cls, k: int, classes: tuple[tuple[str, ...], ...],
                 edges: tuple[tuple[str, str], ...],
                 owner: dict[str, int]) -> "MulticoloredGraph":
        """The graph of fields that have passed the checks above, with
        ``owner`` their vertex -> class map; ``formats.parse_graph`` makes
        the same checks with located errors and builds its graph here."""
        self = tuple.__new__(cls, (k, classes, edges))
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
    # The ten names of class pair (i, j), formatted once: its vertex, skip
    # and pick input letters, its vertex-count and edge-match output letters,
    # the edge-match letter of (j, i), and its four gadget states.
    names = {(i, j): (f"v{i}.{j}", f"s{i}.{j}", f"e{i}.{j}", f"L{i}.{j}", f"M{i}.{j}",
                      f"M{j}.{i}", f"edge{i}.{j}.1", f"edge{i}.{j}.2", f"edge{i}.{j}.3",
                      f"edge{i}.{j}.4")
             for i in others for j in others[i]}

    states = {"done"}
    input_alphabet = set()
    output_alphabet = {EMPTY}
    rows: list[tuple[str, str, str, str]] = []  # (source, reads, target, writes)
    for i in range(1, k + 1):
        choose, chosen, part = f"choose{i}", f"chosen{i}", f"p{i}"
        leave = f"choose{i + 1}" if i < k else "done"
        pairs = [names[i, j] for j in others[i]]
        states.update((choose, chosen))
        input_alphabet.add(part)
        rows += [(choose, v, choose, count) for v, _, _, count, *_ in pairs]
        v, _, _, count, *_ = pairs[-1]
        rows.append((choose, v, chosen, count))
        rows += [(chosen, v, chosen, EMPTY) for v, *_ in pairs]
        rows.append((chosen, pairs[0][0], pairs[0][6], EMPTY))
        for pos, (v, skip, pick, count, match, back, s1, s2, s3, s4) in enumerate(pairs):
            states.update((s1, s2, s3, s4))
            input_alphabet.update((v, skip, pick))
            output_alphabet.update((count, match))
            nxt = pairs[pos + 1] if pos + 1 < len(pairs) else None
            rows += [
                (s1, v, s1, EMPTY), (s1, skip, s1, EMPTY), (s1, pick, s1, EMPTY),
                (s1, skip, s2, match), (s2, skip, s2, match), (s2, pick, s2, EMPTY),
                (s2, pick, s3, EMPTY), (s3, skip, s3, back), (s3, pick, s3, EMPTY),
                (s3, v, s4, count), (s4, v, s4, count), (s4, skip, s4, EMPTY),
                (s4, pick, s4, EMPTY),
                (s4, nxt[0], nxt[6], EMPTY) if nxt else (s4, part, leave, EMPTY)]

    machine = MealyMachine(
        states=frozenset(states),
        start="choose1",
        input_alphabet=frozenset(input_alphabet),
        output_alphabet=frozenset(output_alphabet),
        transitions=tuple(map(_transition, rows)),
    )

    # Part i reads, per vertex of class i, one vertex letter per other class;
    # then per class j a vertex letter and, for each vertex x of class i, the
    # (i, j) edge listing spelled as one skip per edge, each edge at x
    # followed by a pick, closed by a vertex letter; then its part letter.
    pair_edges = _pair_edges(g)
    word: list[str] = []
    for i in range(1, k + 1):
        members = g.classes[i - 1]
        pairs = [names[i, j] for j in others[i]]
        word += [v for v, *_ in pairs] * len(members)
        for j, (v, skip, pick, *_) in zip(others[i], pairs):
            listing = pair_edges[i, j]
            incident: dict[str, list[int]] = {vertex: [] for vertex in members}
            for position, (u, _) in enumerate(listing, start=1):
                incident[u].append(position)
            word.append(v)
            for vertex in members:
                last = 0
                for position in incident[vertex]:
                    word += [skip] * (position - last)
                    word.append(pick)
                    last = position
                word += [skip] * (len(listing) - last)
                word.append(v)
        word.append(f"p{i}")

    census: dict[str, int] = {}
    for (i, j), (_, _, _, count, match, *_) in names.items():
        census[count] = len(g.classes[i - 1]) + 1
        census[match] = len(pair_edges[i, j])
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
    spelled = [str(d) for d in range(longest + 1)]
    gaps = {g: str(g) for g in sorted(set(s.gaps))}  # gap -> its letter
    rows: dict[tuple[str, str, str, str], None] = {}  # without repeats, in order
    for d, source in enumerate(spelled):
        for g, reads in gaps.items():
            if g <= longest:
                rows[source, reads, spelled[d + g] if d + g <= longest else over, reads] = None
            if d + g <= longest:
                rows[source, reads, reads, spelled[d + g]] = None
    for g, reads in gaps.items():
        if g <= longest:
            rows[over, reads, over, reads] = None

    machine = MealyMachine(
        states=frozenset(spelled + [over]),
        start="0",
        input_alphabet=frozenset(gaps.values()),
        output_alphabet=frozenset(spelled[1:]),
        transitions=tuple(map(_transition, rows)),
    )
    # A list comprehension, not tuple(<generator>): its shrunk tuples pile up on free lists.
    word = tuple([gaps[g] for g in s.gaps])
    census = CensusRequirement.of(
        {str(length): count for length, count in s.job_census.items()})
    return machine, word, census
