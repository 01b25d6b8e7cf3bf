"""Solvers for multiset problems parameterized by the number of distinct values.

Each solver encodes its instance as a small integer program whose variable
count depends only on the number of distinct values (not on multiplicities),
hands it to the exact feasibility engine, and converts the witness back into
a human-checkable certificate.  The three triple problems share one cover
program, a count per value triple: 3-Partition over the triples i <= j <= l
of A, Numerical 3-DM over A x B x C, and Numerical Matching with Target Sums
as Numerical 3-DM on (A, B, -S) with target 0.  A ``*_program`` builder
returns the program its solver solves, or None where a guard answers without
one: an empty instance is a Yes with an empty certificate, any other a No.
Every solver takes ``budget``, a cap on integer-program search nodes (None:
no cap; the engine raises BudgetExceeded when it runs out), and
``on_program``, a callable handed the program before it is solved, so that a
caller can show the program without building it again.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, NamedTuple, Optional

from .ilp import EQ, Constraint, IntegerProgram, solve_feasibility


class CardinalityMismatch(ValueError):
    """The three input multisets do not have equal cardinality."""


class NotDivisibleBy3(ValueError):
    """Cardinality is not a multiple of three."""


# typing.NamedTuple forbids a __new__ of its own, so a record type that checks
# its arguments subclasses a NamedTuple of its fields.
class _MultisetFields(NamedTuple):
    entries: tuple[tuple[int, int], ...]


class Multiset(_MultisetFields):
    """Integer multiset stored as (value, multiplicity) entries.

    Entry values are pairwise distinct and multiplicities positive; the
    entry order is preserved and determines certificate ordering.
    """

    __slots__ = ()

    def __new__(cls, entries: tuple[tuple[int, int], ...] = ()):
        seen = set()
        for value, mult in entries:
            if value in seen:
                raise ValueError(f"duplicate value {value} in multiset")
            seen.add(value)
            if mult <= 0:
                raise ValueError(f"multiplicity of {value} must be positive")
        return super().__new__(cls, entries)

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "Multiset":
        counts: dict[int, int] = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        return cls(tuple(counts.items()))

    def cardinality(self) -> int:
        return sum(m for _, m in self.entries)

    def variety(self) -> int:
        return len(self.entries)

    def total(self) -> int:
        return sum(v * m for v, m in self.entries)

    def values(self) -> list[int]:
        # A list comprehension, not tuple(<generator>): its shrunk tuples pile up on free lists.
        return [v for v, _ in self.entries]

    def multiplicity(self, value: int) -> int:
        for v, m in self.entries:
            if v == value:
                return m
        return 0

    def expand(self) -> list[int]:
        out: list[int] = []
        for v, m in self.entries:
            out.extend([v] * m)
        return out


class SubsetCertificate(NamedTuple):
    """How many copies of each distinct value a selected submultiset takes."""

    counts: Mapping[int, int]

    def selection_sum(self) -> int:
        return sum(v * c for v, c in self.counts.items())


class TripleCover(NamedTuple):
    """Triples (first, second, third) with execution counts."""

    triples: tuple[tuple[int, int, int, int], ...]


def subset_sum_program(a: Multiset, s: int) -> IntegerProgram:
    """One variable per distinct value, boxed by its multiplicity."""
    variables = tuple([(f"x{i+1}", 0, m) for i, (_, m) in enumerate(a.entries)])
    coeffs = {f"x{i+1}": v for i, (v, _) in enumerate(a.entries)}
    return IntegerProgram(variables=variables,
                          constraints=(Constraint(coeffs, EQ, s),))


def _selection_certificate(a: Multiset, assignment) -> SubsetCertificate:
    counts = {}
    for i, (v, _) in enumerate(a.entries):
        taken = assignment[f"x{i+1}"]
        if taken:
            counts[v] = taken
    return SubsetCertificate(counts=counts)


def _solve(program: Optional[IntegerProgram], budget: Optional[int],
           on_program: Optional[Callable[[IntegerProgram], None]]):
    """The engine's witness for ``program``, or None where a guard said No."""
    if program is None:
        return None
    if on_program is not None:
        on_program(program)
    return solve_feasibility(program, budget=budget)


def solve_subset_sum(a: Multiset, s: int, budget: Optional[int] = None,
                     on_program=None) -> Optional[SubsetCertificate]:
    """Select copies of distinct values so the selection sums exactly to s."""
    assignment = _solve(subset_sum_program(a, s), budget, on_program)
    if assignment is None:
        return None
    return _selection_certificate(a, assignment)


def partition_program(a: Multiset) -> Optional[IntegerProgram]:
    """Subset sum to half the total, or None when the total is odd."""
    total = a.total()
    return subset_sum_program(a, total // 2) if total % 2 == 0 else None


def solve_partition(a: Multiset, budget: Optional[int] = None,
                    on_program=None) -> Optional[SubsetCertificate]:
    """Split the multiset into two halves of equal sum."""
    assignment = _solve(partition_program(a), budget, on_program)
    if assignment is None:
        return None
    return _selection_certificate(a, assignment)


class _CoverProgram(IntegerProgram):
    """A cover program that keeps ``patterns``, one per variable in declaration
    order, so that a witness is read back by position."""

    # No __slots__: a tuple subclass keeps ``patterns`` in its instance dict.


def _cover_program(sources: tuple[Multiset, ...], patterns) -> _CoverProgram:
    """Counting variables for the patterns of a cover by triples.

    A pattern is a tuple of (source, entry) slots, indices into ``sources``
    and into that source's entries; its variable ``x{i}_{j}_{l}`` is named by
    the 1-based entry indices and declared in pattern order.  Its coefficient
    in an entry's ``=`` row is the number of slots holding that entry, so each
    row states that the entry is used exactly its multiplicity times.  Its box
    is the cover size (the total cardinality // 3), or less where a slotted
    entry's multiplicity // its slot count is smaller.
    """
    entries = [ms.entries for ms in sources]
    cover = sum([m for source in entries for _, m in source]) // 3
    rows: list[list[dict[str, int]]] = [[{} for _ in source] for source in entries]
    variables = []
    for slots in patterns:
        (_, i), (_, j), (_, l) = slots
        name = f"x{i+1}_{j+1}_{l+1}"
        upper = cover
        for source, entry in slots:
            row = rows[source][entry]
            slotted = row[name] = row.get(name, 0) + 1
            # m // slotted only falls as slotted grows, so the last one binds.
            bound = entries[source][entry][1] // slotted
            if bound < upper:
                upper = bound
        variables.append((name, 0, upper))
    constraints = [Constraint(row, EQ, m)
                   for source, source_rows in zip(entries, rows)
                   for row, (_, m) in zip(source_rows, source)]
    program = _CoverProgram(tuple(variables), tuple(constraints))
    program.patterns = patterns
    return program


def num3dm_program(a: Multiset, b: Multiset, c: Multiset,
                   s: int) -> Optional[IntegerProgram]:
    """Cover program for the triples (i, j, l) with first+second+third = s.

    None when a multiset is empty or s lies outside the triple sums' range.
    """
    if not (a.entries and b.entries and c.entries):
        return None
    lo = min(a.values()) + min(b.values()) + min(c.values())
    hi = max(a.values()) + max(b.values()) + max(c.values())
    if not lo <= s <= hi:
        return None
    third = {vc: l for l, (vc, _) in enumerate(c.entries)}
    patterns = []
    for i, (va, _) in enumerate(a.entries):
        for j, (vb, _) in enumerate(b.entries):
            l = third.get(s - va - vb)
            if l is not None:
                patterns.append(((0, i), (1, j), (2, l)))
    return _cover_program((a, b, c), patterns)


def _extract_triples(a: Multiset, b: Multiset, c: Multiset, program: _CoverProgram,
                     assignment) -> TripleCover:
    """Read every used count back as a value triple.

    The witness lists the counts in declaration order, which is the order of
    the program's patterns, so each count's pattern gives its entry indices
    into (a, b, c), and the cover lists triples in that order.
    """
    triples = []
    counts = assignment.values.values()
    for ((_, i), (_, j), (_, l)), count in zip(program.patterns, counts):
        if count:
            triples.append((a.entries[i][0], b.entries[j][0], c.entries[l][0], count))
    return TripleCover(triples=tuple(triples))


def _solve_cover(program: Optional[_CoverProgram], a: Multiset, b: Multiset,
                 c: Multiset, budget: Optional[int],
                 on_program) -> Optional[TripleCover]:
    """The cover the program's witness gives, or the guard's answer."""
    if not a.cardinality() == b.cardinality() == c.cardinality():
        raise CardinalityMismatch("the three multisets must have equal cardinality")
    if program is None:
        return TripleCover(triples=()) if a.cardinality() == 0 else None
    assignment = _solve(program, budget, on_program)
    if assignment is None:
        return None
    return _extract_triples(a, b, c, program, assignment)


def solve_num_3dm(a: Multiset, b: Multiset, c: Multiset, s: int,
                  budget: Optional[int] = None,
                  on_program=None) -> Optional[TripleCover]:
    """Perfect matching into triples (one element per source) summing to s."""
    return _solve_cover(num3dm_program(a, b, c, s), a, b, c, budget, on_program)


def nmts_program(a: Multiset, b: Multiset, s: Multiset) -> Optional[IntegerProgram]:
    """Numerical 3-DM on (A, B, -S) with target 0: first+second = third."""
    # The negated entries keep S's checked values distinct and multiplicities positive.
    return num3dm_program(a, b, Multiset._make((tuple([(-v, m) for v, m in s.entries]),)), 0)


def solve_nmts(a: Multiset, b: Multiset, s: Multiset, budget: Optional[int] = None,
               on_program=None) -> Optional[TripleCover]:
    """Perfect matching into triples with first+second = third."""
    return _solve_cover(nmts_program(a, b, s), a, b, s, budget, on_program)


def three_partition_program(a: Multiset) -> Optional[IntegerProgram]:
    """Cover program for the unordered index triples i <= j <= l of sum |A|/3.

    A value repeated in a triple has that many slots in it, so its row
    coefficient is 1, 2 or 3.  None when there is no triple or the total does
    not split evenly among them.
    """
    n = a.cardinality() // 3
    if n == 0 or a.total() % n != 0:
        return None
    s = a.total() // n
    values = a.values()
    index = {v: l for l, v in enumerate(values)}
    patterns = []
    for i, vi in enumerate(values):
        for j in range(i, len(values)):
            l = index.get(s - vi - values[j])
            if l is not None and l >= j:
                patterns.append(((0, i), (0, j), (0, l)))
    return _cover_program((a,), patterns)


def solve_3partition(a: Multiset, budget: Optional[int] = None,
                     on_program=None) -> Optional[TripleCover]:
    """Partition the multiset into |A|/3 triples of equal sum.

    Each used index triple is emitted with its values sorted.
    """
    if a.cardinality() % 3 != 0:
        raise NotDivisibleBy3(f"cardinality {a.cardinality()} is not a multiple of 3")
    cover = _solve_cover(three_partition_program(a), a, a, a, budget, on_program)
    if cover is None:
        return None
    return TripleCover(triples=tuple([(*sorted(t[:3]), t[3]) for t in cover.triples]))
