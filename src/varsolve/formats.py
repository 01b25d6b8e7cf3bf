"""Instance text formats: parsing with positioned errors, and writers.

All formats are line-oriented and whitespace-tolerant.  The empty letter is
spelled ``_`` in machine files; otherwise letters, states and vertices are
arbitrary non-whitespace tokens.  Parse errors carry file, line, and column:
the column is the 1-based character offset of the token at fault (a tab
counts as one character), and it is found only when the error is raised, so
a valid file pays nothing for it.

The parsers make every check the record constructors make, each with its
located error, and then build ``MealyMachine`` and ``MulticoloredGraph``
without the constructor's checks; those checks run only for library
callers that build the records themselves, the reductions included.

The parsers and writers reach the ``mealy``, ``reductions`` and ``variety``
types as attributes of the package, which resolves each on first access.
So loading this module loads no other varsolve module, and a call loads
only the modules of the types it builds.  (A function-level import would
run the import machinery's look-ups on every call; a package attribute,
once resolved, is one dict look-up.)
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .mealy import CensusRequirement, MealyMachine, Transition
    from .reductions import HeatInstance, MulticoloredGraph, SplitsInstance
    from .variety import Multiset

_package = sys.modules[__package__]


class ParseError(ValueError):
    def __init__(self, path: str, line: int, column: int, message: str):
        super().__init__(f"{path}:{line}:{column}: {message}")
        self.path = path
        self.line = line
        self.column = column


class _Reader(NamedTuple):
    path: str
    lines: list[str]

    @classmethod
    def of(cls, text: str, path: str) -> "_Reader":
        return cls(path=path, lines=text.splitlines())

    def tokens(self) -> list[tuple[int, list[str]]]:
        """(line_number, line.split()) for each non-blank line."""
        return [(number, parts) for number, line in enumerate(self.lines, start=1)
                if (parts := line.split())]

    def fail(self, line: int, index: int, message: str, offset: int = 0):
        """Raise at token ``index`` of ``line``, ``offset`` characters in; each
        token is searched for after the one before it, so a repeat is not
        taken for an earlier token."""
        text = self.lines[line - 1]
        end = 0
        for token in text.split()[:index + 1]:
            start = text.index(token, end)
            end = start + len(token)
        raise ParseError(self.path, line, start + 1 + offset, message)

    def fail_at_end(self, message: str):
        """Raise at column 1 of the last non-blank line (or line 1), where
        errors about the whole instance go."""
        last = next((number for number in range(len(self.lines), 0, -1)
                     if self.lines[number - 1].strip()), 1)
        raise ParseError(self.path, last, 1, message)


def is_int_token(token: str) -> bool:
    """Whether ``token`` is an ASCII ``-?[0-9]+`` integer, the one spelling
    instance files and the command line take; Python's other spellings
    (``+5``, ``1_0``, `` 5``, non-ASCII digits) are not."""
    digits = token[1:] if token[:1] == "-" else token
    return digits.isascii() and digits.isdigit()


def _int(reader: _Reader, token: str, line: int, index: int, what: str,
         least: int | None = None, offset: int = 0) -> int:
    """The integer an ASCII ``-?[0-9]+`` token spells; any other token is an
    error at token ``index`` of ``line``, ``offset`` characters in."""
    if not is_int_token(token):
        reader.fail(line, index, f"expected {what}, got {token!r}", offset)
    value = int(token)
    if least is not None and value < least:
        reader.fail(line, index, f"{what} must be at least {least}, got {value}", offset)
    return value


def _alone(reader: _Reader, parts: list[str], line: int, what: str) -> None:
    """Reject a token after the first on a line that holds only ``what``."""
    if len(parts) > 1:
        reader.fail(line, 1, f"unexpected {parts[1]!r} after the {what}")


def _target(reader: _Reader, parts: list[str], line: int, previous: int | None,
            expected: bool) -> int:
    """The integer of an ``s=<int>`` line that stands alone, comes once, and
    belongs to a problem that takes a target."""
    if not expected:
        reader.fail(line, 0, "unexpected 's=' line; this problem takes no target")
    if previous is not None:
        reader.fail(line, 0, "second 's=' line; the target is given once")
    _alone(reader, parts, line, "target")
    return _int(reader, parts[0][2:], line, 0, "target integer", offset=2)


def _entry(reader: _Reader, parts: list[str], line: int, seen: set[int],
           where: str = "") -> tuple[int, int]:
    """The ``(value, multiplicity)`` of a ``value multiplicity`` line whose
    value is not in ``seen`` (then added); ``where`` ends the duplicate error."""
    if len(parts) != 2:
        reader.fail(line, 0, "expected 'value multiplicity'")
    value = _int(reader, parts[0], line, 0, "integer value")
    mult = _int(reader, parts[1], line, 1, "multiplicity")
    if value in seen:
        reader.fail(line, 0, f"duplicate value {value}{where}")
    if mult <= 0:
        reader.fail(line, 1, f"multiplicity of {value} must be positive")
    seen.add(value)
    return value, mult


def parse_multiset(text: str, path: str = "<instance>",
                   expect_target: bool = False) -> tuple[Multiset, int | None]:
    """Lines of ``value multiplicity``; an ``s=<int>`` line iff ``expect_target``."""
    reader = _Reader.of(text, path)
    entries: list[tuple[int, int]] = []
    seen: set[int] = set()
    target = None
    for line, parts in reader.tokens():
        if parts[0].startswith("s="):
            target = _target(reader, parts, line, target, expect_target)
            continue
        entries.append(_entry(reader, parts, line, seen))
    if expect_target and target is None:
        reader.fail_at_end("missing 's=<int>' line")
    return _package.Multiset(tuple(entries)), target


def parse_multiset_sections(text: str, names: tuple[str, ...],
                            path: str = "<instance>",
                            expect_target: bool = False):
    """Multisets under ``A:`` section markers; an ``s=`` line iff ``expect_target``."""
    reader = _Reader.of(text, path)
    sections: dict[str, list[tuple[int, int]]] = {name: [] for name in names}
    seen: dict[str, set[int]] = {name: set() for name in names}
    current = None
    target = None
    for line, parts in reader.tokens():
        token = parts[0]
        if token.rstrip(":") in names and token.endswith(":"):
            current = token.rstrip(":")
            continue
        if token.startswith("s="):
            target = _target(reader, parts, line, target, expect_target)
            continue
        if current is None:
            reader.fail(line, 0,
                        f"expected a section marker, one of {', '.join(n + ':' for n in names)}")
        sections[current].append(
            _entry(reader, parts, line, seen[current], f" in section {current}"))
    if expect_target and target is None:
        reader.fail_at_end("missing 's=<int>' line")
    # A list comprehension, not tuple(<generator>): its shrunk tuples pile up on free lists.
    multisets = [_package.Multiset(tuple(sections[name])) for name in names]
    return (*multisets, target) if expect_target else tuple(multisets)


def parse_machine_instance(text: str, path: str = "<instance>",
                           with_word: bool = False):
    """Machine headers and transitions, a census section, optionally a word.

    Layout: ``states:``, ``start:``, ``input:``, ``output:`` header lines,
    one transition per line as ``from read -> to write``, then for the
    given-word problem a ``word:`` line, then ``census:`` followed by
    ``letter count`` lines.  Each header and the word come once, ``start:``
    names one of the states, every endpoint is a ``states:`` one, every
    letter read or written is in its alphabet, and no transition repeats.
    The empty letter ``_`` neither occurs in the word nor takes a census
    count, and every word letter is an ``input:`` one.
    """
    reader = _Reader.of(text, path)
    headers: dict[str, tuple[int, list[str]]] = {}  # name -> (line, parts) of its header line
    rows = []  # (line, parts) of each transition line
    census: dict[str, int] = {}
    census_seen = False
    word = None  # (line, parts) of the ``word:`` line
    mode = "machine"
    for line, parts in reader.tokens():
        token = parts[0]
        if token in ("states:", "start:", "input:", "output:"):
            if token[:-1] in headers:
                reader.fail(line, 0, f"second {token!r} line; each header is given once")
            headers[token[:-1]] = line, parts
            continue
        if token == "word:":
            if not with_word:
                reader.fail(line, 0, "this problem takes no input word")
            if word is not None:
                reader.fail(line, 0, "second 'word:' line; the word is given once")
            word = line, parts
            continue
        if token == "census:":
            census_seen = True
            mode = "census"
            continue
        if mode == "census":
            if len(parts) != 2:
                reader.fail(line, 0, "expected 'letter count'")
            count = _int(reader, parts[1], line, 1, "census count")
            if count < 0:
                reader.fail(line, 1, "census counts are non-negative")
            if token == "_":
                reader.fail(line, 0, "the empty letter '_' takes no census count")
            if token in census:
                reader.fail(line, 0, f"duplicate census letter {token!r}")
            census[token] = count
            continue
        if len(parts) == 5 and parts[2] == "->":
            rows.append((line, parts))
            continue
        reader.fail(line, 0, "expected 'from read -> to write'")
    for required in ("states", "start", "input", "output"):
        if required not in headers:
            reader.fail_at_end(f"missing '{required}:' header")
    if not census_seen:
        reader.fail_at_end("missing 'census:' section")
    letter = {"_": _package.EMPTY}.get  # letter(token, token): ``_`` is EMPTY
    states = set(headers["states"][1][1:])
    inputs = {letter(token, token) for token in headers["input"][1][1:]}
    outputs = {letter(token, token) for token in headers["output"][1][1:]}
    line, start = headers["start"]
    if len(start) != 2:
        # Located at the second state, or at ``start:`` when none is named.
        reader.fail(line, 2 if len(start) > 2 else 0, "start: expects exactly one state")
    if start[1] not in states:
        reader.fail(line, 1, f"start state {start[1]!r} not among states")
    Transition = _package.Transition
    new = tuple.__new__  # Transition(...) would add a Python call per line
    transitions: dict[Transition, None] = {}  # in file order
    for line, (source, reads, _, target, writes) in rows:
        if source not in states:
            reader.fail(line, 0, f"state {source!r} not among states")
        read = letter(reads, reads)
        if read not in inputs:
            reader.fail(line, 1, f"read letter {reads!r} not in the input alphabet")
        if target not in states:
            reader.fail(line, 3, f"state {target!r} not among states")
        write = letter(writes, writes)
        if write not in outputs:
            reader.fail(line, 4, f"write letter {writes!r} not in the output alphabet")
        t = new(Transition, (source, read, target, write))
        if t in transitions:
            reader.fail(line, 0, f"duplicate transition {t.text()!r}")
        transitions[t] = None
    # ``_make`` builds the tuple without ``MealyMachine.__new__``, whose
    # checks the lines above have just made, each with its located error.
    machine = _package.MealyMachine._make((frozenset(states), start[1], frozenset(inputs),
                                           frozenset(outputs), tuple(transitions)))
    requirement = _package.CensusRequirement.of(census)
    if with_word:
        if word is None:
            reader.fail_at_end("missing 'word:' line")
        word_line, parts = word
        for index, letter in enumerate(parts[1:], start=1):
            if letter == "_":
                reader.fail(word_line, index, "the empty letter '_' cannot occur in the word")
            if letter not in inputs:
                reader.fail(word_line, index, f"input letter {letter!r} not in the input alphabet")
        return machine, tuple(parts[1:]), requirement
    return machine, requirement


def parse_graph(text: str, path: str = "<instance>") -> MulticoloredGraph:
    """First line k, then ``class i: v1 v2 ...`` lines, then ``edge u v``.

    No vertex is listed twice, and every edge joins two listed vertices of
    different classes and comes once.
    """
    reader = _Reader.of(text, path)
    k = None
    classes: dict[int, list[str]] = {}
    owner: dict[str, int] = {}  # vertex -> its class index
    edges = []  # (line, parts) of each edge line
    for line, parts in reader.tokens():
        token = parts[0]
        if k is None:
            k = _int(reader, token, line, 0, "class count k")
            if k < 1:
                reader.fail(line, 0, "k must be positive")
            _alone(reader, parts, line, "class count k")
            classes = {i: [] for i in range(1, k + 1)}
            continue
        if token == "class":
            if len(parts) < 2 or not parts[1].endswith(":"):
                reader.fail(line, 0, "expected 'class i: v1 v2 ...'")
            index = _int(reader, parts[1][:-1], line, 1, "class index")
            if index not in classes:
                reader.fail(line, 1, f"class index {index} outside 1..{k}")
            for position, vertex in enumerate(parts[2:], start=2):
                if vertex in owner:
                    reader.fail(line, position, f"vertex {vertex!r} appears twice")
                owner[vertex] = index
                classes[index].append(vertex)
            continue
        if token == "edge":
            if len(parts) != 3:
                reader.fail(line, 0, "expected 'edge u v'")
            edges.append((line, parts))
            continue
        reader.fail(line, 0, f"unexpected token {token!r}")
    if k is None:
        reader.fail_at_end("empty graph instance")
    seen = set()
    for line, (_, u, v) in edges:
        for position, vertex in ((1, u), (2, v)):
            if vertex not in owner:
                reader.fail(line, position, f"edge endpoint {vertex!r} not a vertex")
        if owner[u] == owner[v]:
            reader.fail(line, 0, f"edge {u!r}-{v!r} inside one class")
        if frozenset((u, v)) in seen:
            reader.fail(line, 0, f"duplicate edge {u!r}-{v!r}")
        seen.add(frozenset((u, v)))
    # The checks above are the constructor's, each with its located error,
    # so the graph is built without running them again.
    return _package.MulticoloredGraph._checked(
        k, tuple([tuple(classes[i]) for i in range(1, k + 1)]),
        tuple([(u, v) for _, (_, u, v) in edges]), owner)


def parse_heat(text: str, path: str = "<instance>") -> HeatInstance:
    """First line threshold, second line deadline, then ``job H count``."""
    reader = _Reader.of(text, path)
    threshold = None
    deadline = None
    census: dict[int, int] = {}
    for line, parts in reader.tokens():
        if threshold is None:
            threshold = _int(reader, parts[0], line, 0, "temperature threshold", 0)
            _alone(reader, parts, line, "temperature threshold")
            continue
        if deadline is None:
            deadline = _int(reader, parts[0], line, 0, "deadline", 0)
            _alone(reader, parts, line, "deadline")
            continue
        if parts[0] != "job" or len(parts) != 3:
            reader.fail(line, 0, "expected 'job heat count'")
        heat = _int(reader, parts[1], line, 1, "heat level")
        count = _int(reader, parts[2], line, 2, "job count", 0)
        if not 0 <= heat <= 2 * threshold:
            reader.fail(line, 1, f"heat level {heat} outside 0..{2 * threshold}")
        if heat in census:
            reader.fail(line, 1, f"duplicate heat level {heat}")
        census[heat] = count
    if threshold is None or deadline is None:
        reader.fail_at_end("expected threshold and deadline lines")
    try:
        return _package.HeatInstance(threshold=threshold, job_census=census,
                                     deadline=deadline)
    except ValueError as error:
        reader.fail_at_end(str(error))


def parse_splits(text: str, path: str = "<instance>") -> SplitsInstance:
    """A ``gaps: g1 g2 ...`` line, then ``job length count`` lines."""
    reader = _Reader.of(text, path)
    gaps = None
    census: dict[int, int] = {}
    for line, parts in reader.tokens():
        if parts[0] == "gaps:":
            if gaps is not None:
                reader.fail(line, 0, "second 'gaps:' line; the gaps are given once")
            gaps = tuple([_int(reader, token, line, index, "gap", 1)
                          for index, token in enumerate(parts[1:], start=1)])
            continue
        if parts[0] != "job" or len(parts) != 3:
            reader.fail(line, 0, "expected 'job length count'")
        length = _int(reader, parts[1], line, 1, "job length", 1)
        count = _int(reader, parts[2], line, 2, "job count", 0)
        if length in census:
            reader.fail(line, 1, f"duplicate job length {length}")
        census[length] = count
    if gaps is None:
        reader.fail_at_end("missing 'gaps:' line")
    try:
        return _package.SplitsInstance(gaps=gaps, job_census=census)
    except ValueError as error:
        reader.fail_at_end(str(error))


def write_multiset(a: Multiset, target: int | None = None) -> str:
    lines = [f"{value} {mult}" for value, mult in a.entries]
    if target is not None:
        lines.append(f"s={target}")
    return "\n".join(lines) + "\n" if lines else ""


def write_multiset_sections(names: tuple[str, ...], multisets, target=None) -> str:
    lines = []
    for name, ms in zip(names, multisets):
        lines.append(f"{name}:")
        lines.extend(f"{value} {mult}" for value, mult in ms.entries)
    if target is not None:
        lines.append(f"s={target}")
    return "\n".join(lines) + "\n"


def write_machine_instance(m: MealyMachine, census: CensusRequirement,
                           word=None) -> str:
    letter_text = _package.mealy.letter_text
    lines = [
        "states: " + " ".join(sorted(m.states)),
        "start: " + m.start,
        "input: " + " ".join(letter_text(l) for l in sorted(m.input_alphabet)),
        "output: " + " ".join(letter_text(l) for l in sorted(m.output_alphabet)),
    ]
    lines.extend(t.text() for t in m.transitions)
    if word is not None:
        lines.append("word: " + " ".join(str(l) for l in word))
    lines.append("census:")
    lines.extend(f"{letter} {count}" for letter, count in census.counts)
    return "\n".join(lines) + "\n"


def write_graph(g: MulticoloredGraph) -> str:
    lines = [str(g.k)]
    for index, cls in enumerate(g.classes, start=1):
        lines.append(f"class {index}: " + " ".join(cls))
    lines.extend(f"edge {u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def write_heat(h: HeatInstance) -> str:
    lines = [str(h.threshold), str(h.deadline)]
    lines.extend(f"job {heat} {count}"
                 for heat, count in sorted(h.job_census.items()) if count)
    return "\n".join(lines) + "\n"


def write_splits(s: SplitsInstance) -> str:
    lines = ["gaps: " + " ".join(str(g) for g in s.gaps)]
    lines.extend(f"job {length} {count}"
                 for length, count in sorted(s.job_census.items()) if count)
    return "\n".join(lines) + "\n"
