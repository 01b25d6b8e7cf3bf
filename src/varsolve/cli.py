"""Command-line front end: parse instances, dispatch solvers, print verdicts.

Exit codes: 0 for a Yes verdict (or a clean verification run), 1 for No,
2 for usage, parse and cardinality errors, an ``s=`` line in a problem that
takes no target, an unreadable instance file, and any other exception (an
internal error, printed as ``error: internal: <Type>: <message>``, never
read as No), 3 for an unknown verdict (a budget ran out: integer-program
nodes for ``ewmm`` and the five multiset subcommands, given-word
configurations for ``gwmm``; stderr then says which, as ``budget: <message>``).

A solver or reduction call spelled plainly (one instance argument and, for
a solver, the exact flag ``--certificate``) gets its namespace from
``_plain_args`` without argparse, the same namespace argparse would build.  Every other call that names a subcommand is
parsed by that subcommand's parser alone, so help, abbreviations and every
error message stay argparse's, and an unrecognized option is reported under
the subcommand's usage (``varsolve subsetsum: error: unrecognized arguments:
--foo``).

Every solver subcommand is a row of ``SOLVERS`` and every reduction a row
of ``REDUCTIONS``.  A row reaches its solver, reduction, parser and writer
through this module's or ``formats``' attribute at call time, never through
a function object it holds, so a wrapper put on such an attribute sees
every call.

Loading this module loads ``formats`` and ``ilp``, which every solve and
reduce call needs, and no other varsolve module.  The solvers, the
reductions and ``corpus`` (for ``verify``) become attributes of this module
on first access (PEP 562 ``__getattr__``), resolved through the package's
table of which module holds each name.  So a call loads only the modules
its subcommand runs, and only ``verify`` loads ``corpus`` and ``oracle``.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from typing import Callable, NamedTuple, Optional

from . import _load, formats
from .ilp import DEFAULT_BUDGET, BudgetExceeded, dump_program

YES, NO, UNKNOWN = 0, 1, 3
USAGE = 2

# This module: the rows call the solvers and reductions as its attributes.
_cli = sys.modules[__name__]


def __getattr__(name: str):
    """A solver, reduction or ``corpus`` the rows call, resolved through the
    package's table on first use and kept as this module's attribute."""
    value = globals()[name] = _load(__name__, name)
    return value


def _read(path: str) -> tuple[str, str]:
    if path == "-":
        return sys.stdin.read(), "<stdin>"
    with open(path, "rb") as handle:
        return handle.read().decode("utf-8"), path


def _print_selection(cert, instance) -> None:
    for value, count in cert.counts.items():
        print(f"{value} {count}")


def _print_cover(cover, instance) -> None:
    for first, second, third, count in cover.triples:
        print(f"{first} {second} {third} {count}")


def _print_transitions(transitions) -> None:
    for t in transitions:
        print(t.text())


def _print_walk(decomposition, instance) -> None:
    print("base:")
    _print_transitions(decomposition.base_walk)
    for loop in decomposition.loops:
        print(f"loop {loop.anchor} {loop.count}:")
        _print_transitions(loop.cycle)


def _subset_sum_instance(text: str, path: str):
    return formats.parse_multiset(text, path, expect_target=True)


def _multiset(text: str, path: str):
    return formats.parse_multiset(text, path)[:1]


class Solver(NamedTuple):
    """A solver subcommand: parse, solve, dump, verdict, certificate."""

    help: str
    parse: Callable  # (text, path) -> instance tuple
    # (*instance, budget=N[, on_program=f]) -> certificate, or None for NO
    solve: Callable
    show: Callable   # (certificate, instance): print the certificate
    budget: str      # --budget N: the unit N counts, passed on to solve
    # --dump-ilp: solve hands the program it builds to on_program, if it
    # builds one (a guard may answer without).
    dump_ilp: bool = False


_ILP_NODES = "integer-program nodes"

SOLVERS = {
    "subsetsum": Solver(
        "does a submultiset sum to the target?",
        parse=_subset_sum_instance,
        solve=lambda multiset, target, **options: _cli.solve_subset_sum(
            multiset, target, **options),
        show=_print_selection, dump_ilp=True, budget=_ILP_NODES),
    "partition": Solver(
        "does the multiset split into two equal-sum halves?",
        parse=_multiset,
        solve=lambda multiset, **options: _cli.solve_partition(multiset, **options),
        show=_print_selection, dump_ilp=True, budget=_ILP_NODES),
    "threepartition": Solver(
        "does the multiset split into equal-sum triples?",
        parse=_multiset,
        solve=lambda multiset, **options: _cli.solve_3partition(multiset, **options),
        show=_print_cover, dump_ilp=True, budget=_ILP_NODES),
    "num3dm": Solver(
        "do the three multisets match into triples summing to s?",
        parse=lambda text, path: formats.parse_multiset_sections(
            text, ("A", "B", "C"), path, expect_target=True),
        solve=lambda a, b, c, s, **options: _cli.solve_num_3dm(a, b, c, s, **options),
        show=_print_cover, dump_ilp=True, budget=_ILP_NODES),
    "nmts": Solver(
        "do the three multisets match into triples with A+B=S?",
        parse=lambda text, path: formats.parse_multiset_sections(
            text, ("A", "B", "S"), path),
        solve=lambda a, b, s, **options: _cli.solve_nmts(a, b, s, **options),
        show=_print_cover, dump_ilp=True, budget=_ILP_NODES),
    "ewmm": Solver(
        "is there an input word whose output meets the census?",
        parse=lambda text, path: formats.parse_machine_instance(text, path),
        solve=lambda machine, census, budget: _cli.solve_ewmm(
            machine, census, budget=budget),
        show=_print_walk,
        budget=f"{_ILP_NODES} (summed over the restarts after connectivity cuts)"),
    "gwmm": Solver(
        "does a computation on the given word meet the census?",
        parse=lambda text, path: formats.parse_machine_instance(
            text, path, with_word=True),
        solve=lambda machine, word, census, budget: _cli.solve_gwmm(
            machine, word, census, budget=budget),
        show=lambda trace, instance: _print_transitions(
            instance[0].transitions[index] for index in trace),
        budget="given-word configurations (one per move of each stored run)"),
}


def _write_given_word(image) -> str:
    machine, word, census = image
    return formats.write_machine_instance(machine, census, word=word)


class Reduction(NamedTuple):
    """A reduction subcommand: parse, reduce, write."""

    help: str
    parse: Callable   # (text, path) -> instance
    reduce: Callable  # (instance) -> image
    write: Callable   # (image) -> instance text


REDUCTIONS = {
    "reduce-partition": Reduction(
        "rewrite a subset-sum instance as a partition instance",
        parse=_subset_sum_instance,
        reduce=lambda instance: _cli.subsetsum_to_partition(*instance),
        write=lambda multiset: formats.write_multiset(multiset)),
    "reduce-mcc": Reduction(
        "rewrite a multicolored-clique instance as a given-word instance",
        parse=lambda text, path: formats.parse_graph(text, path),
        reduce=lambda graph: _cli.mcc_to_gwmm(graph),
        write=_write_given_word),
    "reduce-heat": Reduction(
        "rewrite a heat-scheduling instance as an exists-word instance",
        parse=lambda text, path: formats.parse_heat(text, path),
        reduce=lambda heat: _cli.heat_to_ewmm(heat),
        write=lambda image: formats.write_machine_instance(*image)),
    "reduce-splits": Reduction(
        "rewrite a splits-game instance as a given-word instance",
        parse=lambda text, path: formats.parse_splits(text, path),
        reduce=lambda splits: _cli.splits_to_gwmm(splits),
        write=_write_given_word),
}


def _cmd_solve(args) -> int:
    row = SOLVERS[args.command]
    instance = row.parse(*_read(args.instance))
    options = {"budget": args.budget}
    if row.dump_ilp and args.dump_ilp:
        # Printed as soon as it is built, so an UNKNOWN verdict follows it too.
        options["on_program"] = lambda program: print(dump_program(program))
    try:
        cert = row.solve(*instance, **options)
    except BudgetExceeded as error:
        print("UNKNOWN")
        print(f"budget: {error}", file=sys.stderr)
        return UNKNOWN
    print("NO" if cert is None else "YES")
    if cert is None:
        return NO
    if args.certificate:
        row.show(cert, instance)
    return YES


def _cmd_reduce(args) -> int:
    row = REDUCTIONS[args.command]
    sys.stdout.write(row.write(row.reduce(row.parse(*_read(args.instance)))))
    return 0


def _cmd_verify(args) -> int:
    families = args.family or sorted(_cli.corpus.FAMILIES)
    failures = 0
    for name in families:
        check = _cli.corpus.FAMILIES[name]
        start = time.perf_counter()
        try:
            count = check(args.seed)
        except AssertionError as error:
            print(f"{name}: FAIL ({error})")
            failures += 1
        else:
            print(f"{name}: {count} instances ok")
        print(f"{name}: {time.perf_counter() - start:.3f} s", file=sys.stderr)
    return 0 if failures == 0 else 1


class _Families:
    """The choices of ``verify --family``: the corpus families, looked up only
    when a value is checked (or help lists them), so building the parser
    loads no ``corpus``."""

    def __contains__(self, name) -> bool:
        return name in _cli.corpus.FAMILIES

    def __iter__(self):
        return iter(sorted(_cli.corpus.FAMILIES))


def _budget(text: str) -> int:
    if not formats.is_int_token(text) or text[:1] == "-":
        raise argparse.ArgumentTypeError(f"expected a whole number >= 0, not {text!r}")
    return int(text)


def _seed(text: str) -> int:
    if not formats.is_int_token(text):
        raise argparse.ArgumentTypeError(f"expected a whole number, not {text!r}")
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it costs
    some 40 parses, and ``parse_args`` leaves no state in it.  Its
    ``subcommands`` maps each subcommand name to the parser it holds."""
    parser = argparse.ArgumentParser(
        prog="varsolve",
        description="Exact solvers for few-distinct-value problems and "
                    "Mealy-machine census problems.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, row in SOLVERS.items():
        p = sub.add_parser(name, help=row.help)
        p.add_argument("instance", help="instance file, or - for stdin")
        p.add_argument("--certificate", action="store_true",
                       help="print a certificate after a YES verdict")
        if row.dump_ilp:
            p.add_argument("--dump-ilp", action="store_true",
                           help="print the constructed integer program")
        p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET,
                       help=f"cap on {row.budget} before reporting UNKNOWN")
        p.set_defaults(handler=_cmd_solve)
    for name, row in REDUCTIONS.items():
        p = sub.add_parser(name, help=row.help)
        p.add_argument("instance", help="instance file, or - for stdin")
        p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("verify", help="run the paired solver/oracle corpus")
    p.add_argument("--seed", type=_seed, default=42, help="corpus seed")
    p.add_argument("--family", action="append", choices=_Families(), metavar="NAME",
                   help="verify one family (repeatable); default: all")
    p.set_defaults(handler=_cmd_verify)
    parser.subcommands = sub.choices
    return parser


def _plain_args(argv) -> Optional[argparse.Namespace]:
    """The namespace argparse builds for a solver or reduction call spelled
    plainly, or None for any other argv.  A plain call is one instance token
    (``-`` or a token not starting with ``-``) and, for a solver, the exact
    flag ``--certificate`` any number of times."""
    if not argv:
        return None
    command = argv[0]
    row = SOLVERS.get(command)
    if row is not None:
        args = argparse.Namespace(command=command, certificate=False,
                                  budget=DEFAULT_BUDGET, handler=_cmd_solve)
        if row.dump_ilp:
            args.dump_ilp = False
    elif command in REDUCTIONS:
        args = argparse.Namespace(command=command, handler=_cmd_reduce)
    else:
        return None
    instance = None
    for token in argv[1:]:
        if token == "-" or token[:1] != "-":
            if instance is not None:
                return None
            instance = token
        elif token == "--certificate" and row is not None:
            args.certificate = True
        else:
            return None
    if instance is None:
        return None
    args.instance = instance
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv)
    if args is None:
        parser = build_parser()
        sub = parser.subcommands.get(argv[0]) if argv else None
        try:
            args = (parser.parse_args(argv) if sub is None
                    else sub.parse_args(argv[1:], argparse.Namespace(command=argv[0])))
        except SystemExit as exit_:
            return USAGE if exit_.code not in (0, None) else 0
    try:
        return args.handler(args)
    except (ValueError, OSError) as error:
        # Parse errors, cardinality errors and unreadable instance files.
        print(f"error: {error}", file=sys.stderr)
        return USAGE
    except Exception as error:
        # A fault of the program, not an answer: exit 1 would read as No.
        # KeyboardInterrupt and other BaseExceptions still get through.
        print(f"error: internal: {type(error).__name__}: {error}", file=sys.stderr)
        return USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
