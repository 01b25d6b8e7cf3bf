"""Instance grammar: parsing, positioned errors, writer round-trips."""

from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from varsolve import corpus
from varsolve.formats import (ParseError, parse_graph, parse_heat,
                              parse_machine_instance, parse_multiset,
                              parse_multiset_sections, parse_splits,
                              write_graph, write_heat, write_machine_instance,
                              write_multiset, write_multiset_sections,
                              write_splits)
from varsolve.mealy import EMPTY, MealyMachine
from varsolve.reductions import HeatInstance, MulticoloredGraph, SplitsInstance
from varsolve.variety import Multiset


def test_multiset_grammar_example():
    multiset, target = parse_multiset("3 2\n5 1\ns=11\n", expect_target=True)
    assert multiset == Multiset(((3, 2), (5, 1)))
    assert target == 11


def test_multiset_duplicate_value_names_value():
    with pytest.raises(ParseError) as info:
        parse_multiset("3 2\n3 1\n", path="bad.txt")
    assert "duplicate value 3" in str(info.value)
    assert "bad.txt:2:1" in str(info.value)


def test_multiset_negative_multiplicity():
    with pytest.raises(ParseError) as info:
        parse_multiset("3 -2\n")
    assert ":1:3" in str(info.value)


def test_second_target_line_rejected():
    with pytest.raises(ParseError) as info:
        parse_multiset("3 2\n5 1\ns=11\ns=8\n", path="two.txt", expect_target=True)
    assert "two.txt:4:1" in str(info.value)
    with pytest.raises(ParseError) as info:
        parse_multiset_sections("A:\n1 1\ns=3\nB:\n2 1\ns=4\n", ("A", "B"),
                                path="two.txt", expect_target=True)
    assert "two.txt:6:1" in str(info.value)


def test_tokens_after_target_rejected():
    with pytest.raises(ParseError) as info:
        parse_multiset("3 2\n5 1\ns=11 99\n", path="extra.txt", expect_target=True)
    assert "extra.txt:3:6" in str(info.value)
    with pytest.raises(ParseError) as info:
        parse_multiset_sections("A:\n1 1\n  s=3 x\n", ("A",), path="extra.txt",
                                expect_target=True)
    assert "extra.txt:3:7" in str(info.value)


@pytest.mark.parametrize("text, where, message", [
    ("1_0 2\n", "1:1", "expected integer value, got '1_0'"),
    ("\u0663 1\n", "1:1", "expected integer value, got '\u0663'"),
    ("3 +1\n", "1:3", "expected multiplicity, got '+1'"),
    ("3 1\ns=+20\n", "2:3", "expected target integer, got '+20'"),
    ("3 1\ns=-\n", "2:3", "expected target integer, got '-'"),
], ids=["underscore", "arabic-indic", "plus-multiplicity", "plus-target", "bare-minus"])
def test_multiset_integers_are_ascii_digits(text, where, message):
    with pytest.raises(ParseError) as info:
        parse_multiset(text, path="i.txt", expect_target=True)
    assert str(info.value) == f"i.txt:{where}: {message}"


def test_empty_file_is_empty_multiset():
    multiset, target = parse_multiset("")
    assert multiset == Multiset(())
    assert target is None


def test_multiset_roundtrip():
    a = Multiset(((3, 2), (-5, 1), (0, 4)))
    text = write_multiset(a, target=7)
    parsed, target = parse_multiset(text, expect_target=True)
    assert parsed == a and target == 7


def test_sections_roundtrip():
    a, b, c = Multiset(((1, 1), (2, 1))), Multiset(((1, 2),)), Multiset(((3, 2),))
    text = write_multiset_sections(("A", "B", "C"), (a, b, c), target=6)
    pa, pb, pc, target = parse_multiset_sections(
        text, ("A", "B", "C"), expect_target=True)
    assert (pa, pb, pc, target) == (a, b, c, 6)


def test_machine_roundtrip_with_word():
    text = ("states: q r\nstart: q\ninput: _ a\noutput: _ b\n"
            "q a -> r b\nr _ -> q _\nword: a a\ncensus:\nb 2\n")
    machine, word, census = parse_machine_instance(text, with_word=True)
    assert machine.start == "q"
    assert EMPTY in machine.input_alphabet
    assert word == ("a", "a")
    assert census.get("b") == 2
    rewritten = write_machine_instance(machine, census, word=word)
    machine2, word2, census2 = parse_machine_instance(rewritten, with_word=True)
    assert (machine2, word2, census2) == (machine, word, census)


def test_machine_missing_header():
    with pytest.raises(ParseError) as info:
        parse_machine_instance("start: q\ninput: a\noutput: b\ncensus:\n")
    assert "states" in str(info.value)


def test_machine_bad_transition_line():
    with pytest.raises(ParseError) as info:
        parse_machine_instance(
            "states: q\nstart: q\ninput: a\noutput: b\nq a r b\ncensus:\n")
    assert ":5:1" in str(info.value)


@pytest.mark.parametrize("word, census, where, message", [
    ("a b", "a 1", "6:9", "input letter 'b' not in the input alphabet"),
    ("a _", "a 1", "6:9", "the empty letter '_' cannot occur in the word"),
    ("a", "a 1\n_ 2", "9:1", "the empty letter '_' takes no census count"),
])
def test_machine_letter_errors_located_at_their_token(word, census, where, message):
    text = ("states: q\nstart: q\ninput: _ a\noutput: a\nq a -> q a\n"
            f"word: {word}\ncensus:\n{census}\n")
    with pytest.raises(ParseError) as info:
        parse_machine_instance(text, path="m.txt", with_word=True)
    assert str(info.value) == f"m.txt:{where}: {message}"


MACHINE = ("states: q r\nstart: q\ninput: _ a\noutput: b\nq a -> r b\n"
           "word: a\ncensus:\nb 1\n")


@pytest.mark.parametrize("old, new, where, message", [
    ("word: a\n", "word: a\nword: a a\n", "7:1",
     "second 'word:' line; the word is given once"),
    ("output: b\n", "output: b\ninput: a\n", "5:1",
     "second 'input:' line; each header is given once"),
    ("start: q\n", "start: q r\n", "2:10", "start: expects exactly one state"),
    ("start: q\n", "start: s\n", "2:8", "start state 's' not among states"),
    ("q a -> r b", "q a -> s b", "5:8", "state 's' not among states"),
    ("q a -> r b", "q c -> r b", "5:3", "read letter 'c' not in the input alphabet"),
    ("q a -> r b", "q a -> r z", "5:10", "write letter 'z' not in the output alphabet"),
    ("q a -> r b\n", "q a -> r b\nq a -> r b\n", "6:1",
     "duplicate transition 'q a -> r b'"),
    ("b 1\n", "b \uff11\n", "8:3", "expected census count, got '\uff11'"),
    # One line with several faults reports the first of source, read letter,
    # target, write letter.
    ("q a -> r b", "s c -> t z", "5:1", "state 's' not among states"),
    ("q a -> r b", "q c -> t z", "5:3", "read letter 'c' not in the input alphabet"),
    ("q a -> r b", "q a -> t z", "5:8", "state 't' not among states"),
], ids=["second-word", "second-header", "two-starts", "start-outside-states",
        "endpoint-outside-states", "read-letter", "write-letter", "duplicate-transition",
        "fullwidth-census-count", "faults-from-source", "faults-from-read-letter",
        "faults-from-target"])
def test_machine_errors_located_at_their_token(old, new, where, message):
    with pytest.raises(ParseError) as info:
        parse_machine_instance(MACHINE.replace(old, new), path="m.txt", with_word=True)
    assert str(info.value) == f"m.txt:{where}: {message}"


def test_graph_roundtrip():
    g = MulticoloredGraph(k=2, classes=(("a1", "a2"), ("b1",)),
                          edges=(("a1", "b1"), ("a2", "b1")))
    assert parse_graph(write_graph(g)) == g


def test_graph_errors():
    with pytest.raises(ParseError):
        parse_graph("2\nclass 1: a\nclass 5: b\n")
    with pytest.raises(ParseError) as info:
        parse_graph("2\nclass 1: a b\nclass 2: c\nedge a b\n")
    assert "inside one class" in str(info.value)


GRAPH = "2\nclass 1: a1 a2\nclass 2: b1 b2\nedge a1 b1\nedge a2 b2\n"


@pytest.mark.parametrize("old, new, where, message", [
    ("2\n", "2 7\n", "1:3", "unexpected '7' after the class count k"),
    ("class 2: b1 b2", "class 2: b1 a1", "3:13", "vertex 'a1' appears twice"),
    ("edge a1 b1", "edge zz b1", "4:6", "edge endpoint 'zz' not a vertex"),
    ("edge a1 b1", "edge a1 zz", "4:9", "edge endpoint 'zz' not a vertex"),
    ("edge a1 b1", "edge a1 a2", "4:1", "edge 'a1'-'a2' inside one class"),
    ("edge a1 b1\n", "edge a1 b1\nedge b1 a1\n", "5:1", "duplicate edge 'b1'-'a1'"),
], ids=["k-line", "vertex-twice", "first-endpoint", "second-endpoint", "in-class-edge",
        "duplicate-edge"])
def test_graph_errors_located_at_their_token(old, new, where, message):
    with pytest.raises(ParseError) as info:
        parse_graph(GRAPH.replace(old, new, 1), path="g.txt")
    assert str(info.value) == f"g.txt:{where}: {message}"


def test_heat_roundtrip():
    h = HeatInstance(threshold=2, job_census={1: 2, 4: 1}, deadline=5)
    assert parse_heat(write_heat(h)) == h


def test_splits_roundtrip():
    s = SplitsInstance(gaps=(4, 1, 2, 1, 1, 1, 4),
                       job_census={1: 1, 3: 3, 4: 1, 5: 2})
    assert parse_splits(write_splits(s)) == s


@pytest.mark.parametrize("parse, text, where, message", [
    (parse_heat, "1\n5\njob 0 -1\n\n", "3:7", "job count must be at least 0, got -1"),
    (parse_heat, "1\n5\njob 3 1\n\n", "3:5", "heat level 3 outside 0..2"),
    (parse_heat, "-1\n5\n", "1:1", "temperature threshold must be at least 0, got -1"),
    (parse_heat, "2 5\n5\njob 0 1\n", "1:3", "unexpected '5' after the temperature threshold"),
    (parse_heat, "1\n2 5\njob 0 1\n", "2:3", "unexpected '5' after the deadline"),
    (parse_splits, "gaps: 1\njob 1 -1\n\n", "2:7", "job count must be at least 0, got -1"),
    (parse_splits, "gaps: 1 0\njob 1 1\n\n", "1:9", "gap must be at least 1, got 0"),
    (parse_splits, "gaps: 1\njob 0 1\n\n", "2:5", "job length must be at least 1, got 0"),
    (parse_splits, "gaps: 1 2\ngaps: 3\njob 3 1\n", "2:1",
     "second 'gaps:' line; the gaps are given once"),
    (parse_heat, "1\n5\njob 0 1_0\n\n", "3:7", "expected job count, got '1_0'"),
    (parse_splits, "gaps: 1 +1\njob 1 2\n\n", "1:9", "expected gap, got '+1'"),
], ids=["heat-negative-count", "heat-level", "threshold", "threshold-line", "deadline-line",
        "splits-negative-count", "gap", "job-length", "second-gaps", "heat-underscore",
        "splits-plus"])
def test_job_errors_located_at_their_token(parse, text, where, message):
    with pytest.raises(ParseError) as info:
        parse(text, path="j.txt")
    assert str(info.value) == f"j.txt:{where}: {message}"


@pytest.mark.parametrize("parse, text, where, message", [
    (parse_heat, "1\n1\njob 0 2\n\n", "3:1", "more jobs than time slots"),
    (parse_splits, "gaps: 1 1\njob 1 1\n\n", "2:1",
     "census total must equal the number of gaps: one job per step"),
    (parse_splits, "\njob 1 1\n\n", "2:1", "missing 'gaps:' line"),
    (parse_graph, "2\nclass 1: a b\nclass 2: c\nedge a b\n\n \n", "4:1",
     "edge 'a'-'b' inside one class"),
], ids=["heat", "splits", "splits-no-gaps", "graph"])
def test_instance_errors_located_at_the_last_nonblank_line(parse, text, where, message):
    with pytest.raises(ParseError) as info:
        parse(text, path="x.txt")
    assert str(info.value) == f"x.txt:{where}: {message}"


# One bad line per located error of every parser, written with tabs, runs of
# blanks, leading blanks and tokens that repeat earlier on their line.  A
# column is the 1-based character offset of the token at fault (a tab counts
# as one), so these pin where each error points as well as what it says.
PARSERS = {
    "multiset": partial(parse_multiset, expect_target=True),
    "multiset_bare": parse_multiset,
    "sections": partial(parse_multiset_sections, names=("A", "B"), expect_target=True),
    "sections_bare": partial(parse_multiset_sections, names=("A", "B")),
    "machine": partial(parse_machine_instance, with_word=True),
    "machine_bare": parse_machine_instance,
    "graph": parse_graph,
    "heat": parse_heat,
    "splits": parse_splits,
}
TABBED = ("states:\tq  r\n  start: q\ninput:  _\ta\n output: b\nq a -> r  b\n"
          "word:\ta  a\ncensus:\n\tb 1\n")
TABBED_NO_WORD = TABBED.replace("word:\ta  a\n", "")
TABBED_GRAPH = "  2\nclass 1:\ta1  a2\n class  2: b1\tb2\nedge a1 b1\n"
IRREGULAR_ERRORS = [
    # multiset
    ("multiset", "entry-shape", "3 2\n\t 5  1 \t7\ns=1\n",
     "s.txt:2:3: expected 'value multiplicity'"),
    ("multiset", "entry-value", "  x\t1\ns=1\n",
     "s.txt:1:3: expected integer value, got 'x'"),
    ("multiset", "entry-multiplicity", "3\t\tx\ns=1\n",
     "s.txt:1:4: expected multiplicity, got 'x'"),
    ("multiset", "entry-duplicate", "3 2\n \t3   3\ns=1\n",
     's.txt:2:3: duplicate value 3'),
    ("multiset", "entry-nonpositive", "  0\t 0\ns=1\n",
     's.txt:1:6: multiplicity of 0 must be positive'),
    ("multiset_bare", "target-unexpected", "3 1\n\t s=4\n",
     "s.txt:2:3: unexpected 's=' line; this problem takes no target"),
    ("multiset", "target-second", "3 1\ns=4\n   s=4\n",
     "s.txt:3:4: second 's=' line; the target is given once"),
    ("multiset", "target-extra", "3 1\n  s=4\ts=4\n",
     "s.txt:2:7: unexpected 's=4' after the target"),
    ("multiset", "target-integer", "3 1\n \ts=x\n",
     "s.txt:2:5: expected target integer, got 'x'"),
    ("multiset", "target-empty", "3 1\n \t s=\n",
     "s.txt:2:6: expected target integer, got ''"),
    ("multiset", "target-missing", "3 1\n\n  5 2\n \t\n",
     "s.txt:3:1: missing 's=<int>' line"),
    # sections
    ("sections", "marker-missing", "  1 1\ns=1\n",
     's.txt:1:3: expected a section marker, one of A:, B:'),
    ("sections", "entry-shape", "A:\n\t1\ns=1\n",
     "s.txt:2:2: expected 'value multiplicity'"),
    ("sections", "entry-value", "A:\n 1_0  1\ns=1\n",
     "s.txt:2:2: expected integer value, got '1_0'"),
    ("sections", "entry-multiplicity", "B:\n2 \t+1\ns=1\n",
     "s.txt:2:4: expected multiplicity, got '+1'"),
    ("sections", "entry-duplicate", " A:\n 1 1\n\t1  2\ns=1\n",
     's.txt:3:2: duplicate value 1 in section A'),
    ("sections", "entry-nonpositive", "A:\nB:\n  2\t-1\ns=1\n",
     's.txt:3:5: multiplicity of 2 must be positive'),
    ("sections_bare", "target-unexpected", "A:\n1 1\n  s=2\n",
     "s.txt:3:3: unexpected 's=' line; this problem takes no target"),
    ("sections", "target-second", "A:\n1 1\ns=2\n\tB:\n s=3\n",
     "s.txt:5:2: second 's=' line; the target is given once"),
    ("sections", "target-extra", "A:\n1 1\n s=2  s=2\n",
     "s.txt:3:7: unexpected 's=2' after the target"),
    ("sections", "target-integer", "A:\n\ts=-x\n",
     "s.txt:2:4: expected target integer, got '-x'"),
    ("sections", "target-missing", "A:\n1 1\n  B:\n\n",
     "s.txt:3:1: missing 's=<int>' line"),
    # machine
    ("machine", "header-second", TABBED.replace(" output: b\n", " output: b\n \tinput: a\n"),
     "s.txt:5:3: second 'input:' line; each header is given once"),
    ("machine_bare", "word-unexpected", TABBED_NO_WORD.replace("census:", "  word: a\ncensus:"),
     's.txt:6:3: this problem takes no input word'),
    ("machine", "word-second", TABBED.replace("census:", " word:  a\ncensus:"),
     "s.txt:7:2: second 'word:' line; the word is given once"),
    ("machine", "census-shape", TABBED.replace("\tb 1", "\tb 1 1"),
     "s.txt:8:2: expected 'letter count'"),
    ("machine", "census-count", TABBED.replace("\tb 1", "b\t\tx"),
     "s.txt:8:4: expected census count, got 'x'"),
    ("machine", "census-negative", TABBED.replace("\tb 1", "  -1 -1"),
     's.txt:8:6: census counts are non-negative'),
    ("machine", "census-empty-letter", TABBED.replace("\tb 1", "\t_ 2"),
     "s.txt:8:2: the empty letter '_' takes no census count"),
    ("machine", "census-duplicate", TABBED.replace("\tb 1", "b 1\n \tb 1"),
     "s.txt:9:3: duplicate census letter 'b'"),
    ("machine", "transition-shape", TABBED.replace("q a -> r  b", "\tq a -> r"),
     "s.txt:5:2: expected 'from read -> to write'"),
    ("machine", "header-missing", TABBED.replace(" output: b\n", "") + " \t\n",
     "s.txt:7:1: missing 'output:' header"),
    ("machine", "census-missing", TABBED.replace("census:\n\tb 1\n", ""),
     "s.txt:6:1: missing 'census:' section"),
    ("machine", "start-two", TABBED.replace("  start: q", "  start: q\tq"),
     's.txt:2:12: start: expects exactly one state'),
    ("machine", "start-none", TABBED.replace("  start: q", "start:\t"),
     's.txt:2:1: start: expects exactly one state'),
    ("machine", "start-outside", TABBED.replace("  start: q", "start:  s"),
     "s.txt:2:9: start state 's' not among states"),
    ("machine", "source-outside", TABBED.replace("q a -> r  b", "s\ta -> r b"),
     "s.txt:5:1: state 's' not among states"),
    ("machine", "read-letter", TABBED.replace("q a -> r  b", "q  c -> r b"),
     "s.txt:5:4: read letter 'c' not in the input alphabet"),
    ("machine", "target-outside", TABBED.replace("q a -> r  b", "q a\t->  s b"),
     "s.txt:5:9: state 's' not among states"),
    ("machine", "write-letter", TABBED.replace("q a -> r  b", "q a -> q a"),
     "s.txt:5:10: write letter 'a' not in the output alphabet"),
    ("machine", "transition-duplicate",
     TABBED.replace("q a -> r  b\n", "q a -> r  b\n  q\ta -> r  b\n"),
     "s.txt:6:3: duplicate transition 'q a -> r b'"),
    ("machine", "word-missing", TABBED_NO_WORD,
     "s.txt:7:1: missing 'word:' line"),
    ("machine", "word-empty-letter", TABBED.replace("word:\ta  a", "word: a _ a"),
     "s.txt:6:9: the empty letter '_' cannot occur in the word"),
    ("machine", "word-letter", TABBED.replace("word:\ta  a", "word:  a\ta c"),
     "s.txt:6:12: input letter 'c' not in the input alphabet"),
    # graph
    ("graph", "k-integer", "  x\n",
     "s.txt:1:3: expected class count k, got 'x'"),
    ("graph", "k-positive", "\t0\n",
     's.txt:1:2: k must be positive'),
    ("graph", "k-extra", "2\t2\n",
     "s.txt:1:3: unexpected '2' after the class count k"),
    ("graph", "class-shape", TABBED_GRAPH.replace("class 1:", "class 1"),
     "s.txt:2:1: expected 'class i: v1 v2 ...'"),
    ("graph", "class-index", TABBED_GRAPH.replace("class  2:", "class \tx:"),
     "s.txt:3:9: expected class index, got 'x'"),
    ("graph", "class-outside", TABBED_GRAPH.replace("class  2:", "class  5:"),
     's.txt:3:9: class index 5 outside 1..2'),
    ("graph", "vertex-twice", TABBED_GRAPH.replace("b1\tb2", "a1\ta1"),
     "s.txt:3:12: vertex 'a1' appears twice"),
    ("graph", "edge-shape", TABBED_GRAPH + "  edge a1\n",
     "s.txt:5:3: expected 'edge u v'"),
    ("graph", "token-unexpected", TABBED_GRAPH + "\tvertex a1\n",
     "s.txt:5:2: unexpected token 'vertex'"),
    ("graph", "empty", "\n \t\n",
     's.txt:1:1: empty graph instance'),
    ("graph", "endpoint-first", TABBED_GRAPH + "edge zz\tzz\n",
     "s.txt:5:6: edge endpoint 'zz' not a vertex"),
    ("graph", "endpoint-second", TABBED_GRAPH + " edge a1  zz\n",
     "s.txt:5:11: edge endpoint 'zz' not a vertex"),
    ("graph", "edge-inside", TABBED_GRAPH + "\tedge a1 a1\n",
     "s.txt:5:2: edge 'a1'-'a1' inside one class"),
    ("graph", "edge-duplicate", TABBED_GRAPH + " edge b1 a1\n\n",
     "s.txt:5:2: duplicate edge 'b1'-'a1'"),
    # heat
    ("heat", "threshold-integer", " x\n5\n",
     "s.txt:1:2: expected temperature threshold, got 'x'"),
    ("heat", "threshold-negative", "\t-1\n5\n",
     's.txt:1:2: temperature threshold must be at least 0, got -1'),
    ("heat", "threshold-extra", "1  1\n5\n",
     "s.txt:1:4: unexpected '1' after the temperature threshold"),
    ("heat", "deadline-integer", "1\n  y\n",
     "s.txt:2:3: expected deadline, got 'y'"),
    ("heat", "deadline-negative", "1\n -5\n",
     's.txt:2:2: deadline must be at least 0, got -5'),
    ("heat", "deadline-extra", "1\n\t5 5\n",
     "s.txt:2:4: unexpected '5' after the deadline"),
    ("heat", "job-shape", "1\n5\n  job 1\n",
     "s.txt:3:3: expected 'job heat count'"),
    ("heat", "job-word", "1\n5\n\twork 1 1\n",
     "s.txt:3:2: expected 'job heat count'"),
    ("heat", "heat-integer", "1\n5\njob\tx 1\n",
     "s.txt:3:5: expected heat level, got 'x'"),
    ("heat", "count-integer", "1\n5\n job 1 job\n",
     "s.txt:3:8: expected job count, got 'job'"),
    ("heat", "count-negative", "1\n5\njob 0  -1\n",
     's.txt:3:8: job count must be at least 0, got -1'),
    ("heat", "heat-outside", "0\n5\njob  2\t2\n",
     's.txt:3:6: heat level 2 outside 0..0'),
    ("heat", "heat-duplicate", "1\n5\njob 1 1\n  job 1 1\n",
     's.txt:4:7: duplicate heat level 1'),
    ("heat", "deadline-missing", "1\n\n \n",
     's.txt:1:1: expected threshold and deadline lines'),
    ("heat", "too-many-jobs", "1\n1\n job 0 2\n\t\n",
     's.txt:3:1: more jobs than time slots'),
    # splits
    ("splits", "gaps-second", "gaps: 1 2\n  gaps:\t3\njob 3 1\n",
     "s.txt:2:3: second 'gaps:' line; the gaps are given once"),
    ("splits", "gap-integer", "gaps:\t1  x\njob 1 1\n",
     "s.txt:1:10: expected gap, got 'x'"),
    ("splits", "gap-positive", "gaps:\t1  1 0\njob 1 1\n",
     's.txt:1:12: gap must be at least 1, got 0'),
    ("splits", "job-shape", "gaps: 1\n job 1\n",
     "s.txt:2:2: expected 'job length count'"),
    ("splits", "length-positive", "gaps: 1\njob\t0 1\n",
     's.txt:2:5: job length must be at least 1, got 0'),
    ("splits", "count-integer", "gaps: 1\n job 1 job\n",
     "s.txt:2:8: expected job count, got 'job'"),
    ("splits", "count-negative", "gaps: 1\njob  1\t-1\n",
     's.txt:2:8: job count must be at least 0, got -1'),
    ("splits", "length-duplicate", "gaps: 1 1\njob 1 1\n  job 1 1\n",
     's.txt:3:7: duplicate job length 1'),
    ("splits", "gaps-missing", " \njob 1 1\n\t\n",
     "s.txt:2:1: missing 'gaps:' line"),
    ("splits", "census-total", "gaps: 1 1\n job 1 1\n \n",
     's.txt:2:1: census total must equal the number of gaps: one job per step'),

]


@pytest.mark.parametrize("kind, text, expected", [
    pytest.param(kind, text, expected, id=f"{kind}-{ident}")
    for kind, ident, text, expected in IRREGULAR_ERRORS])
def test_errors_located_under_irregular_spacing(kind, text, expected):
    with pytest.raises(ParseError) as info:
        PARSERS[kind](text, path="s.txt")
    assert str(info.value) == expected


def test_splits_size_mismatch_reported_as_parse_error():
    with pytest.raises(ParseError) as info:
        parse_splits("gaps: 1 1\njob 1 1\n")
    assert "one job per step" in str(info.value)


def test_dispatch_roundtrips_every_kind():
    # (instance, writer, parser) for each instance kind of the command line.
    kinds = {
        "subsetsum": ((Multiset(((3, 2), (5, 1))), 11),
                      lambda i: write_multiset(i[0], target=i[1]),
                      lambda t: parse_multiset(t, expect_target=True)),
        "partition": (Multiset(((2, 4),)), write_multiset,
                      lambda t: parse_multiset(t)[0]),
        "threepartition": (Multiset(((1, 2), (2, 2), (3, 2))), write_multiset,
                           lambda t: parse_multiset(t)[0]),
        "num3dm": ((Multiset(((1, 2),)), Multiset(((2, 2),)),
                    Multiset(((3, 2),)), 6),
                   lambda i: write_multiset_sections(("A", "B", "C"), i[:3], target=i[3]),
                   lambda t: parse_multiset_sections(t, ("A", "B", "C"),
                                                     expect_target=True)),
        "nmts": ((Multiset(((1, 2),)), Multiset(((2, 2),)), Multiset(((3, 2),))),
                 lambda i: write_multiset_sections(("A", "B", "S"), i),
                 lambda t: parse_multiset_sections(t, ("A", "B", "S"))),
        "graph": (MulticoloredGraph(k=2, classes=(("a",), ("b",)),
                                    edges=(("a", "b"),)),
                  write_graph, parse_graph),
        "heat": (HeatInstance(threshold=1, job_census={2: 1}, deadline=3),
                 write_heat, parse_heat),
        "splits": (SplitsInstance(gaps=(3,), job_census={3: 1}),
                   write_splits, parse_splits),
    }
    for kind, (instance, write, parse) in kinds.items():
        assert parse(write(instance)) == instance, kind


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_every_writer_output_parses_back(seed):
    rng = corpus.make_rng(seed)
    a, s = corpus.random_subset_sum_instance(rng)
    assert parse_multiset(write_multiset(a, target=s), expect_target=True) == (a, s)
    signed = corpus.random_multiset(rng, min_value=-20)
    assert parse_multiset(write_multiset(signed)) == (signed, None)
    *triple, s = corpus.random_num3dm_instance(rng)
    text = write_multiset_sections(("A", "B", "C"), triple, target=s)
    assert parse_multiset_sections(text, ("A", "B", "C"), expect_target=True) == (*triple, s)
    triple = corpus.random_nmts_instance(rng)
    text = write_multiset_sections(("A", "B", "S"), triple)
    assert parse_multiset_sections(text, ("A", "B", "S")) == triple
    # The parsers build their records without the constructors' checks, so
    # each parsed record is rebuilt through its checking constructor too.
    m, x, c = corpus._machine_word_census(rng)
    parsed = parse_machine_instance(write_machine_instance(m, c, word=x), with_word=True)
    assert parsed == (m, x, c)
    assert type(parsed[0]) is MealyMachine and parsed[0] == MealyMachine(*parsed[0])
    c = corpus.random_census(rng, m)
    parsed = parse_machine_instance(write_machine_instance(m, c))
    assert parsed == (m, c) and parsed[0] == MealyMachine(*parsed[0])
    g = corpus.random_multicolored_graph(rng, k=rng.randint(1, 4))
    parsed = parse_graph(write_graph(g))
    checked = MulticoloredGraph(*parsed)
    assert type(parsed) is MulticoloredGraph and parsed == checked == g
    assert parsed.owner == checked.owner == g.owner
    h = corpus._random_heat(rng)
    assert parse_heat(write_heat(h)) == h
    splits = corpus.random_splits_instance(rng)
    assert parse_splits(write_splits(splits)) == splits
