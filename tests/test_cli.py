"""Command-line behavior: exit codes, verdict lines, pipelines, errors."""

import argparse
import ast
import gc
import io
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import varsolve
import varsolve.cli
import varsolve.variety
from varsolve.cli import build_parser, main
from varsolve.formats import parse_machine_instance
from varsolve.mealy import Loop, WalkDecomposition, subdivide
from varsolve.oracle import validate_ewmm_decomposition

FIXTURES = Path(__file__).parent / "fixtures"
DEMOS = Path(__file__).parent.parent / "demos"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_subsetsum_yes(capsys):
    code, out, _ = run_cli(capsys, "subsetsum", str(FIXTURES / "ss1.txt"))
    assert code == 0
    assert out.splitlines()[0] == "YES"


def test_partition_odd_total_no(capsys):
    code, out, _ = run_cli(capsys, "partition", str(FIXTURES / "part_odd.txt"))
    assert code == 1
    assert out.strip() == "NO"


def test_certificate_flag(capsys):
    code, out, _ = run_cli(capsys, "subsetsum", str(FIXTURES / "ss1.txt"),
                           "--certificate")
    assert code == 0
    assert out.splitlines() == ["YES", "3 2", "5 1"]


def test_dump_ilp_flag(capsys):
    code, out, _ = run_cli(capsys, "subsetsum", str(FIXTURES / "ss1.txt"),
                           "--dump-ilp")
    assert code == 0
    assert "3*x1 + 5*x2 = 11" in out


@pytest.mark.parametrize("argv, code, stream, text", [
    pytest.param([], 2, "err", "varsolve: error: the following arguments are required: "
                 "command", id="no-argument"),
    pytest.param(["-h"], 0, "out", "usage: varsolve [-h]", id="help"),
    pytest.param(["subsetsum", str(FIXTURES / "ss1.txt"), "--foo"], 2, "err",
                 "varsolve subsetsum: error: unrecognized arguments: --foo",
                 id="unrecognized-option"),
    pytest.param(["partition", str(FIXTURES / "part1.txt"), "--foo"], 2, "err",
                 "usage: varsolve partition [-h]", id="unrecognized-option-usage"),
    pytest.param(["subsetsum", "-h"], 0, "out", "usage: varsolve subsetsum [-h]",
                 id="subcommand-help"),
])
def test_command_line_surface(capsys, argv, code, stream, text):
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert text in (out if stream == "out" else err)
    if stream == "err":
        assert out == ""


def test_unknown_subcommand_rejected(capsys):
    code, out, err = run_cli(capsys, "frobnicate", "x.txt")
    assert (code, out) == (2, "")
    assert "varsolve: error: argument command: invalid choice: 'frobnicate'" in err


def test_abbreviated_and_joined_options(capsys):
    ss1 = str(FIXTURES / "ss1.txt")
    assert run_cli(capsys, "subsetsum", ss1, "--cert")[:2] == (0, "YES\n3 2\n5 1\n")
    assert run_cli(capsys, "subsetsum", ss1, "--budget=0")[:2] == (3, "UNKNOWN\n")


def test_subcommand_is_parsed_once(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the top-level parser ran for a named subcommand")

    for name in ("parse_args", "parse_known_args"):
        monkeypatch.setattr(build_parser(), name, refuse)
    ss1 = str(FIXTURES / "ss1.txt")
    assert run_cli(capsys, "subsetsum", ss1, "--certificate")[:2] == (0, "YES\n3 2\n5 1\n")
    assert run_cli(capsys, "ewmm", str(FIXTURES / "loop_ewmm.txt"))[:2] == (0, "YES\n")
    assert run_cli(capsys, "reduce-partition", ss1)[0] == 0
    assert run_cli(capsys, "verify", "--family", "heat", "--seed", "7")[0] == 0


@pytest.mark.parametrize("argv", [
    ["subsetsum", "ss1.txt", "--cert", "--budget=0"],
    ["partition", "-", "--dump-ilp"],
    ["ewmm", "m.txt", "--budget", "7"],
    ["gwmm", "--certificate", "m.txt"],
    ["reduce-mcc", "g.txt"],
    ["verify", "--family", "heat", "--family", "splits", "--seed", "-3"],
    ["verify"],
])
def test_subcommand_parser_gives_the_top_level_namespace(argv):
    parser = build_parser()
    direct = parser.subcommands[argv[0]].parse_args(argv[1:])
    assert parser.parse_args(argv) == argparse.Namespace(command=argv[0], **vars(direct))


def test_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "subsetsum", str(FIXTURES / "nope.txt"))
    assert code == 2
    assert "error" in err


def test_parse_error_reports_location(capsys):
    path = FIXTURES / "ss1.txt"
    code, _, err = run_cli(capsys, "num3dm", str(path))
    assert code == 2
    assert str(path) in err


def test_stdin_dash(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 2\n"))
    code, out, _ = run_cli(capsys, "partition", "-")
    assert code == 0
    assert out.splitlines()[0] == "YES"


def test_reduce_splits_pipes_into_gwmm(capsys, monkeypatch):
    code, reduced, _ = run_cli(capsys, "reduce-splits", str(FIXTURES / "fig2.txt"))
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(reduced))
    code, out, _ = run_cli(capsys, "gwmm", "-")
    assert code == 0
    assert out.strip() == "YES"


def test_reduce_mcc_pipes_into_gwmm(capsys, monkeypatch):
    code, reduced, _ = run_cli(capsys, "reduce-mcc", str(FIXTURES / "triangle.txt"))
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(reduced))
    code, out, _ = run_cli(capsys, "gwmm", "-")
    assert code == 0
    assert out.strip() == "YES"


def test_reduce_heat_pipes_into_ewmm(capsys, monkeypatch):
    code, reduced, _ = run_cli(capsys, "reduce-heat", str(FIXTURES / "heat1.txt"))
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(reduced))
    code, out, _ = run_cli(capsys, "ewmm", "-")
    assert code == 0
    assert out.strip() == "YES"


def test_reduce_partition_output_parses(capsys, monkeypatch):
    code, reduced, _ = run_cli(capsys, "reduce-partition", str(FIXTURES / "ss1.txt"))
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(reduced))
    code, out, _ = run_cli(capsys, "partition", "-")
    assert code == 0
    assert out.strip() == "YES"


def test_reduce_partition_takes_negative_values(capsys, monkeypatch):
    # The empty selection sums to 0, below the total -10.
    monkeypatch.setattr("sys.stdin", io.StringIO("-5 3\n5 1\ns=0\n"))
    code, reduced, _ = run_cli(capsys, "reduce-partition", "-")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(reduced))
    code, out, _ = run_cli(capsys, "partition", "-")
    assert code == 0
    assert out.strip() == "YES"


def test_gwmm_certificate_replays(capsys):
    code, out, _ = run_cli(capsys, "gwmm", str(FIXTURES / "ident_gwmm.txt"),
                           "--certificate")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "YES"
    assert len(lines) == 4  # three transitions for a three-letter word


def test_ewmm_unknown_exit_code(capsys):
    # The instance is decided at the root node, so only a zero budget runs out.
    code, out, err = run_cli(capsys, "ewmm", str(FIXTURES / "loop_ewmm.txt"),
                             "--budget", "0")
    assert code == 3
    assert out.strip() == "UNKNOWN"
    assert err == "budget: node cap 0 exceeded\n"


@pytest.mark.parametrize("budget", ["2", "3", "4"])
def test_ewmm_budget_message_names_the_given_cap(capsys, budget):
    # The budget, summed over the restarts after connectivity cuts, runs out
    # after a cut, once earlier searches spent part of it; from 5 nodes up the
    # instance answers NO.
    assert run_cli(capsys, "ewmm", str(FIXTURES / "ewmm_cut.txt"), "--budget", budget) == (
        3, "UNKNOWN\n", f"budget: node cap {budget} exceeded\n")


def test_ewmm_budget_stops_a_scaled_census(capsys, monkeypatch):
    # Every census count of the cliff instance times 10**5: the integer
    # program then needs far more nodes than this budget allows.
    head, counts = (FIXTURES / "ewmm_cliff.txt").read_text().split("census:\n")
    scaled = "".join(f"{letter} {int(count) * 10**5}\n"
                     for letter, count in map(str.split, counts.splitlines()))
    monkeypatch.setattr("sys.stdin", io.StringIO(head + "census:\n" + scaled))
    begin = time.perf_counter()
    code, out, _ = run_cli(capsys, "ewmm", "-", "--budget", "1000")
    assert time.perf_counter() - begin < 1.0
    assert (code, out) == (3, "UNKNOWN\n")


def test_gwmm_budget_reports_unknown(capsys, monkeypatch):
    code, reduced, _ = run_cli(capsys, "reduce-mcc", str(FIXTURES / "triangle.txt"))
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(reduced))
    code, out, err = run_cli(capsys, "gwmm", "-", "--budget", "10")
    assert code == 3
    assert out.strip() == "UNKNOWN"
    assert err == "budget: given-word configuration cap 10 exceeded\n"


def test_multiset_budget_reports_unknown(capsys):
    # The root node alone uses up a zero budget; the default decides it.
    cliff = str(FIXTURES / "ss_cliff.txt")
    assert run_cli(capsys, "subsetsum", cliff, "--budget", "0") == (
        3, "UNKNOWN\n", "budget: node cap 0 exceeded\n")
    assert run_cli(capsys, "subsetsum", cliff)[:2] == (0, "YES\n")


def test_dump_ilp_prints_the_program_before_unknown(capsys):
    # The zero budget runs out at the root, after the program is built.
    assert run_cli(capsys, "subsetsum", str(FIXTURES / "ss1.txt"), "--dump-ilp",
                   "--budget", "0") == (
        3, "0 <= x1 <= 2\n0 <= x2 <= 1\n3*x1 + 5*x2 = 11\nUNKNOWN\n",
        "budget: node cap 0 exceeded\n")


def test_dump_ilp_builds_the_program_once(capsys, monkeypatch):
    calls = []
    original = varsolve.variety.num3dm_program

    def counting(*args):
        calls.append(args)
        return original(*args)

    # Count calls through either module a caller may reach the builder from.
    for module in (varsolve.variety, varsolve.cli):
        monkeypatch.setattr(module, "num3dm_program", counting, raising=False)
    code, out, _ = run_cli(capsys, "num3dm", str(FIXTURES / "n3dm1.txt"), "--dump-ilp")
    assert code == 0
    assert out.endswith("YES\n") and " <= " in out
    assert len(calls) == 1


@pytest.mark.parametrize("command, fixture", [("ewmm", "loop_ewmm.txt"),
                                              ("gwmm", "ident_gwmm.txt"),
                                              ("partition", "part1.txt")])
def test_negative_budget_is_usage_error(capsys, command, fixture):
    code, out, err = run_cli(capsys, command, str(FIXTURES / fixture), "--budget", "-1")
    assert code == 2
    assert out == ""
    assert "argument --budget: expected a whole number >= 0, not '-1'" in err


@pytest.mark.parametrize("budget", ["\u0663", "\uff11", "+3", "1_0", " 3"],
                         ids=["arabic-indic", "fullwidth", "plus", "underscore", "space"])
def test_budget_takes_ascii_digits_only(capsys, budget):
    code, out, err = run_cli(capsys, "partition", str(FIXTURES / "part1.txt"),
                             "--budget", budget)
    assert (code, out) == (2, "")
    assert f"argument --budget: expected a whole number >= 0, not {budget!r}" in err


@pytest.mark.parametrize("command, text, verdict", [
    pytest.param("num3dm", "A:\n1 1\nB:\n1 1\nC:\n1 1\ns=100\n", "NO",
                 id="num3dm-range"),
    pytest.param("num3dm", "A:\nB:\nC:\ns=5\n", "YES", id="num3dm-empty"),
    pytest.param("nmts", "A:\n1 1\nB:\n1 1\nS:\n10 1\n", "NO", id="nmts-range"),
    pytest.param("nmts", "A:\nB:\nS:\n", "YES", id="nmts-empty"),
    pytest.param("threepartition", "1 5\n2 1\n", "NO", id="threepartition-uneven"),
    pytest.param("threepartition", "", "YES", id="threepartition-empty"),
    pytest.param("partition", "1 1\n2 1\n", "NO", id="partition-odd"),
])
def test_dump_ilp_prints_no_program_a_guard_answers(capsys, tmp_path, command,
                                                    text, verdict):
    path = tmp_path / "instance.txt"
    path.write_text(text)
    code, out, _ = run_cli(capsys, command, str(path), "--dump-ilp")
    assert (code, out) == (0 if verdict == "YES" else 1, verdict + "\n")


def test_internal_error_exits_2_not_no(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("true table entry without a true predecessor")

    monkeypatch.setattr(varsolve.cli, "solve_gwmm", broken)
    code, out, err = run_cli(capsys, "gwmm", str(FIXTURES / "ident_gwmm.txt"))
    assert code == 2
    assert out == ""
    assert err == ("error: internal: AssertionError: "
                   "true table entry without a true predecessor\n")


def test_interrupt_is_not_an_internal_error(monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(varsolve.cli, "solve_gwmm", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["gwmm", str(FIXTURES / "ident_gwmm.txt")])


def test_ewmm_certificate_format(capsys):
    code, out, _ = run_cli(capsys, "ewmm", str(FIXTURES / "loop_ewmm.txt"),
                           "--certificate")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "YES"
    assert lines[1] == "base:"
    assert lines[2] == "loop q 5:"


def test_ewmm_certificate_work_does_not_grow_with_the_census(capsys, monkeypatch):
    # The loops are peeled from the transition counts, and the printed
    # certificate is validated loop by loop: no walk of 2·10⁹ transitions is built.
    text = (FIXTURES / "loop_ewmm.txt").read_text().replace("b 5\n", "b 1000000000\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    begin = time.perf_counter()
    code, out, _ = run_cli(capsys, "ewmm", "-", "--certificate")
    m, c = parse_machine_instance(text)
    loop = Loop("q", subdivide(m).transitions, 10**9)
    assert validate_ewmm_decomposition(m, c, WalkDecomposition((), (loop,)))
    assert not validate_ewmm_decomposition(
        m, c, WalkDecomposition((), (Loop("q", loop.cycle, 10**9 + 1),)))
    assert time.perf_counter() - begin < 1.0
    assert code == 0
    assert out.splitlines() == ["YES", "base:", "loop q 1000000000:",
                                *(t.text() for t in loop.cycle)]


def package_imports():
    """(file name, line, top-level module) for each absolute import in the package."""
    for path in sorted(Path(varsolve.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                yield path.name, node.lineno, name.split(".")[0]


def test_package_imports_only_the_standard_library():
    # pyproject.toml declares no dependencies; this keeps that true.
    for file, line, module in package_imports():
        assert module in sys.stdlib_module_names, (file, line, module)


def test_package_imports_no_dataclasses_or_inspect():
    # Either module costs every command line about 11 ms to import (``dataclasses``
    # imports ``inspect``); the record types are NamedTuples instead.
    for file, line, module in package_imports():
        assert module not in ("dataclasses", "inspect"), (file, line, module)


def test_package_compares_the_empty_letter_by_value():
    # EMPTY is the string "": an ``is`` on it holds only while CPython interns "".
    # The package, the tests and the demos are scanned.
    def empty(node):
        return (isinstance(node, ast.Name) and node.id == "EMPTY"
                or isinstance(node, ast.Attribute) and node.attr == "EMPTY")

    folders = (Path(varsolve.__file__).parent, Path(__file__).parent, DEMOS)
    for path in sorted(path for folder in folders for path in folder.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if isinstance(op, (ast.Is, ast.IsNot)):
                    assert not (empty(left) or empty(right)), (path.name, node.lineno)


def test_verify_single_family(capsys):
    code, out, _ = run_cli(capsys, "verify", "--family", "splits", "--seed", "7")
    assert code == 0
    assert "splits:" in out and "ok" in out


@pytest.mark.parametrize("seed", ["\u0663", "\uff11", "+3", "1_0", " 3", "-", "--3"],
                         ids=["arabic-indic", "fullwidth", "plus", "underscore", "space",
                              "minus-alone", "double-minus"])
def test_verify_seed_takes_ascii_digits_only(capsys, seed):
    code, out, err = run_cli(capsys, "verify", "--family", "ilp", f"--seed={seed}")
    assert (code, out) == (2, "")
    assert f"argument --seed: expected a whole number, not {seed!r}" in err


def test_verify_takes_a_negative_seed(capsys):
    code, out, _ = run_cli(capsys, "verify", "--family", "splits", "--seed", "-7")
    assert (code, out) == (0, "splits: 200 instances ok\n")


def test_num3dm_fixture(capsys):
    code, out, _ = run_cli(capsys, "num3dm", str(FIXTURES / "n3dm1.txt"),
                           "--certificate")
    assert code == 0
    assert out.splitlines()[0] == "YES"


def test_nmts_fixture(capsys):
    code, out, _ = run_cli(capsys, "nmts", str(FIXTURES / "nmts1.txt"))
    assert code == 0


def test_threepartition_requires_multiple_of_three(capsys):
    code, _, err = run_cli(capsys, "threepartition", str(FIXTURES / "part_odd.txt"))
    assert code == 0  # 1x3 has cardinality 3: a single triple summing to 3
    code, out, err = run_cli(capsys, "threepartition", str(FIXTURES / "part1.txt"))
    assert code == 2
    assert "multiple of 3" in err


def test_census_of_the_empty_letter_is_usage_error(capsys, tmp_path):
    # A malformed census, not a census no walk meets: exit 2, never 1 (No).
    path = tmp_path / "instance.txt"
    path.write_text("states: q\nstart: q\ninput: a\noutput: a\nq a -> q a\n"
                    "census:\na 1\n_ 2\n")
    code, out, err = run_cli(capsys, "ewmm", str(path))
    assert code == 2
    assert out == ""
    assert f"{path}:8:1: the empty letter '_' takes no census count" in err


@pytest.mark.parametrize("command, text, location", [
    ("ewmm", "states: q\nstart: q\ninput: a\noutput: x\nq a -> q x\ncensus: x 1\n",
     ":6:9: unexpected 'x' after the census marker"),
    ("num3dm", "A: 5 2\nB:\n5 2\nC:\n5 2\ns=15\n",
     ":1:4: unexpected '5' after the section marker"),
], ids=["census", "section"])
def test_data_on_a_marker_line_is_usage_error(capsys, tmp_path, command, text, location):
    # Not dropped: an empty census there would let ewmm answer YES with an
    # empty walk, and a dropped entry would change the instance.
    path = tmp_path / "instance.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert f"{path}{location}" in err


def test_directory_instance_is_usage_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "subsetsum", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
@pytest.mark.parametrize("command, fixture", [("subsetsum", "ss1.txt"),
                                              ("ewmm", "loop_ewmm.txt")])
def test_line_endings_read_alike(capsys, tmp_path, newline, command, fixture):
    lf = FIXTURES / fixture
    copy = tmp_path / fixture
    copy.write_bytes(lf.read_bytes().replace(b"\n", newline.encode()))
    assert (run_cli(capsys, command, str(copy), "--certificate")[:2]
            == run_cli(capsys, command, str(lf), "--certificate")[:2])


def test_undecodable_instance_is_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"3 2\n\xff 1\n")
    code, out, err = run_cli(capsys, "partition", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("command, text, location", [
    ("partition", "3 2\n5 1\ns=11\n", ":3:1: "),
    ("threepartition", "3 2\n5 1\ns=11\n", ":3:1: "),
    ("nmts", "A:\n1 1\nB:\n2 1\nS:\n3 1\n  s=3\n", ":7:3: "),
])
def test_untargeted_problem_rejects_target_line(capsys, tmp_path, command, text,
                                                location):
    path = tmp_path / "instance.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, command, str(path), "--certificate")
    assert code == 2
    assert out == ""
    assert f"{path}{location}" in err and "takes no target" in err


# The names through which the traced benchmark run wraps the command line's
# solvers and reductions; each subcommand must call its name exactly once.
CLI_CALLS = (
    ("solve_subset_sum", "subsetsum", "ss1.txt"),
    ("solve_partition", "partition", "part1.txt"),
    ("solve_3partition", "threepartition", "tp1.txt"),
    ("solve_num_3dm", "num3dm", "n3dm1.txt"),
    ("solve_nmts", "nmts", "nmts1.txt"),
    ("solve_ewmm", "ewmm", "loop_ewmm.txt"),
    ("solve_gwmm", "gwmm", "ident_gwmm.txt"),
    ("subsetsum_to_partition", "reduce-partition", "ss1.txt"),
    ("mcc_to_gwmm", "reduce-mcc", "triangle.txt"),
    ("heat_to_ewmm", "reduce-heat", "heat1.txt"),
    ("splits_to_gwmm", "reduce-splits", "fig2.txt"),
)


def test_cli_calls_cover_every_row():
    commands = [command for _, command, _ in CLI_CALLS]
    assert sorted(commands) == sorted([*varsolve.cli.SOLVERS, *varsolve.cli.REDUCTIONS])


@pytest.mark.parametrize("name, command, fixture", CLI_CALLS)
def test_subcommand_calls_module_attribute(capsys, monkeypatch, name, command, fixture):
    calls = []
    original = getattr(varsolve.cli, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(varsolve.cli, name, counting)
    code, _, _ = run_cli(capsys, command, str(FIXTURES / fixture))
    assert code == 0
    assert calls == [name]


def argv_draws(command, instance, count=150):
    """Argument lists for one subcommand: its two plainest calls, then lists
    drawn from plain spellings and spellings that only argparse takes, with
    a seed fixed by the command."""
    yield [command, instance]
    yield [command, "-"]
    rng = random.Random(command)
    units = ([[instance]] * 6 + [["-"]] * 2 + [["--certificate"]] * 3 + [["--dump-ilp"]] * 2
             + [["--budget", "3"]] * 2 + [["--budget", "0"], ["--budget", "-1"],
                                          ["--budget", "x"], ["--budget"], ["--cert"],
                                          ["--budget=3"], ["--"], ["-h"]])
    for _ in range(count):
        yield [command] + [token for unit in rng.choices(units, k=rng.randint(0, 4))
                           for token in unit]


@pytest.mark.parametrize("command, fixture", [call[1:] for call in CLI_CALLS])
def test_plain_argv_matches_argparse(capsys, monkeypatch, command, fixture):
    text = (FIXTURES / fixture).read_text()
    plain = 0
    for argv in argv_draws(command, str(FIXTURES / fixture)):
        outcomes = []
        for plain_path in (varsolve.cli._plain_args, lambda argv: None):
            monkeypatch.setattr(varsolve.cli, "_plain_args", plain_path)
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            outcomes.append(run_cli(capsys, *argv))
        assert outcomes[0] == outcomes[1], argv
        monkeypatch.undo()
        args = varsolve.cli._plain_args(argv)
        if args is not None:
            plain += 1
            assert args == build_parser().subcommands[command].parse_args(
                argv[1:], argparse.Namespace(command=command)), argv
    assert plain >= 8


def package_env():
    package_root = str(Path(varsolve.__file__).resolve().parent.parent)
    search_path = [package_root, os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in search_path if p))


def test_cli_import_loads_no_numpy():
    subprocess.run([sys.executable, "-c",
                    "import varsolve.cli, sys; assert 'numpy' not in sys.modules"],
                   env=package_env(), check=True, timeout=60)


def fresh_python(code, *argv, stdin=""):
    """The stdout of ``code`` run with ``argv`` in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", code, *argv], env=package_env(),
                          input=stdin, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


# Runs one command line (with no arguments, the benchmark's set-up code) and
# prints its exit code and the varsolve modules loaded by then, and on a
# second line which of ``dataclasses`` and ``inspect`` were loaded too: no
# varsolve module uses either, and they cost about 11 ms a call to import.
LOADED = """
import contextlib, io, sys
import varsolve.cli as cli
code = 0
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(sys.argv[1:])
else:
    cli.build_parser()
print(code, *sorted(name[9:] for name in sys.modules if name.startswith("varsolve.")))
print(*sorted({"dataclasses", "inspect"} & set(sys.modules)))
"""

FRONT = "cli formats ilp"


@pytest.mark.parametrize("argv, stdin, loaded", [
    ([], "", FRONT),
    (["num3dm", "n3dm1.txt", "--certificate"], "", f"{FRONT} variety"),
    (["ewmm", "loop_ewmm.txt", "--certificate"], "", f"census_solvers {FRONT} mealy"),
    (["gwmm", "-", "--certificate"], "ident_gwmm.txt", f"census_solvers {FRONT} mealy"),
    (["reduce-mcc", "triangle.txt"], "", f"{FRONT} mealy reductions"),
    (["reduce-partition", "ss1.txt"], "", f"{FRONT} mealy reductions variety"),
    (["verify", "--family", "splits", "--seed", "1"], "",
     "census_solvers cli corpus formats ilp mealy oracle reductions variety"),
])
def test_each_call_loads_only_its_modules(argv, stdin, loaded):
    argv = [str(FIXTURES / token) if token.endswith(".txt") else token for token in argv]
    text = (FIXTURES / stdin).read_text() if stdin else ""
    modules, unwanted = fresh_python(LOADED, *argv, stdin=text).splitlines()
    assert modules.split() == ["0", *loaded.split()]
    assert unwanted == ""


def test_package_resolves_names_on_first_access():
    fresh_python("""
import sys
import varsolve
assert not [name for name in sys.modules if name.startswith("varsolve.")]
assert varsolve.variety is sys.modules["varsolve.variety"]
listed = dir(varsolve)
assert set(varsolve.__all__) <= set(listed) and {"cli", "corpus", "oracle"} <= set(listed)
namespace = {}
exec("from varsolve import *", namespace)
assert sorted(set(namespace) - {"__builtins__"}) == sorted(varsolve.__all__)
for name in varsolve.__all__:
    home = sys.modules["varsolve." + varsolve._HOME[name]]
    assert namespace[name] is getattr(home, name) is getattr(varsolve, name), name
try:
    varsolve.nope
except AttributeError:
    pass
else:
    raise AssertionError("varsolve.nope resolved")
""")


def test_demos_run():
    demos = sorted(DEMOS.glob("*.py"))
    assert len(demos) == 3
    for demo in demos:
        done = subprocess.run([sys.executable, str(demo)], env=package_env(),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, (demo.name, done.stderr)
        assert done.stdout.strip(), demo.name


def test_python_m_varsolve_matches_main(capsys):
    argv = ["subsetsum", str(FIXTURES / "ss1.txt"), "--certificate"]
    code, out, _ = run_cli(capsys, *argv)
    for module in ("varsolve", "varsolve.cli"):
        done = subprocess.run([sys.executable, "-m", module, *argv], env=package_env(),
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (code, out)


def test_cached_parser_keeps_no_state(capsys):
    assert build_parser() is build_parser()
    ewmm = str(FIXTURES / "loop_ewmm.txt")
    assert run_cli(capsys, "ewmm", ewmm, "--budget", "0")[0] == 3
    code, out, _ = run_cli(capsys, "ewmm", ewmm)
    assert (code, out) == (0, "YES\n")
    ss1 = str(FIXTURES / "ss1.txt")
    assert run_cli(capsys, "subsetsum", ss1, "--certificate")[1] == "YES\n3 2\n5 1\n"
    assert run_cli(capsys, "subsetsum", ss1)[1] == "YES\n"
    run_cli(capsys, "verify", "--family", "splits", "--seed", "7")
    code, out, err = run_cli(capsys, "verify", "--family", "heat", "--seed", "7")
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines()] == ["heat"]
    assert [line.split(":")[0] for line in err.splitlines()] == ["heat"]


def test_repeated_solves_leave_the_heap_flat(capsys):
    # tuple(<generator>) and f(*<generator>) build a tuple for ten items and
    # shrink it; CPython files every shrunk tuple on the free list of its new
    # length (up to 2,000 a length), and later calls never take them back.
    # A full collection empties the free lists, so the collector is paused,
    # not run, while the blocks are counted.
    runs = [("num3dm", "n3dm1.txt"), ("nmts", "nmts1.txt"),
            ("threepartition", "tp1.txt"), ("subsetsum", "ss1.txt"),
            ("ewmm", "loop_ewmm.txt")]

    def solve_all():
        for command, fixture in runs:
            assert main([command, str(FIXTURES / fixture), "--certificate"]) == 0
            capsys.readouterr()

    for _ in range(5):
        solve_all()
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        for _ in range(300):
            solve_all()
        grown = sys.getallocatedblocks() - before
    finally:
        if enabled:
            gc.enable()
    # One tuple left behind per round reads 300; with none, CPython 3.11 reads under 40.
    assert grown < 200
