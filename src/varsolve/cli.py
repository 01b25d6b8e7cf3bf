"""Command-line front end: parse instances, dispatch solvers, print verdicts.

Exit codes: 0 for a Yes verdict (or a clean verification run), 1 for No,
2 for usage or parse errors, 3 for an unknown verdict (exists-word budget).
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from . import corpus, formats
from .census_solvers import BudgetExceeded, DEFAULT_BUDGET, solve_ewmm, solve_gwmm
from .ilp import dump_program
from .reductions import (heat_to_ewmm, mcc_to_gwmm, splits_to_gwmm,
                         subsetsum_to_partition)
from .variety import (nmts_program, num3dm_program, partition_program,
                      solve_3partition, solve_num_3dm, solve_nmts,
                      solve_partition, solve_subset_sum, subset_sum_program,
                      three_partition_program)

YES, NO, UNKNOWN = 0, 1, 3
USAGE = 2


def _read(path: str) -> tuple[str, str]:
    if path == "-":
        return sys.stdin.read(), "<stdin>"
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read(), path


def _print_selection(cert) -> None:
    for value, count in cert.counts.items():
        print(f"{value} {count}")


def _print_cover(cover) -> None:
    for first, second, third, count in cover.triples:
        print(f"{first} {second} {third} {count}")


def _verdict(found: bool) -> int:
    print("YES" if found else "NO")
    return YES if found else NO


def _cmd_subsetsum(args) -> int:
    text, path = _read(args.instance)
    multiset, target = formats.parse_multiset(text, path, expect_target=True)
    if args.dump_ilp:
        print(dump_program(subset_sum_program(multiset, target)))
    cert = solve_subset_sum(multiset, target)
    code = _verdict(cert is not None)
    if args.certificate and cert is not None:
        _print_selection(cert)
    return code


def _cmd_partition(args) -> int:
    text, path = _read(args.instance)
    multiset, _ = formats.parse_multiset(text, path)
    if args.dump_ilp and multiset.total() % 2 == 0:
        print(dump_program(partition_program(multiset)))
    cert = solve_partition(multiset)
    code = _verdict(cert is not None)
    if args.certificate and cert is not None:
        _print_selection(cert)
    return code


def _cmd_threepartition(args) -> int:
    text, path = _read(args.instance)
    multiset, _ = formats.parse_multiset(text, path)
    if multiset.cardinality() % 3 != 0:
        print(f"error: cardinality {multiset.cardinality()} is not a multiple of 3",
              file=sys.stderr)
        return USAGE
    n = multiset.cardinality() // 3
    if args.dump_ilp and n and multiset.total() % n == 0:
        print(dump_program(three_partition_program(multiset)))
    cover = solve_3partition(multiset)
    code = _verdict(cover is not None)
    if args.certificate and cover is not None:
        _print_cover(cover)
    return code


def _cmd_num3dm(args) -> int:
    text, path = _read(args.instance)
    a, b, c, target = formats.parse_multiset_sections(
        text, ("A", "B", "C"), path, expect_target=True)
    if not a.cardinality() == b.cardinality() == c.cardinality():
        print("error: the three multisets must have equal cardinality",
              file=sys.stderr)
        return USAGE
    if args.dump_ilp:
        print(dump_program(num3dm_program(a, b, c, target)))
    cover = solve_num_3dm(a, b, c, target)
    code = _verdict(cover is not None)
    if args.certificate and cover is not None:
        _print_cover(cover)
    return code


def _cmd_nmts(args) -> int:
    text, path = _read(args.instance)
    a, b, s = formats.parse_multiset_sections(text, ("A", "B", "S"), path)
    if not a.cardinality() == b.cardinality() == s.cardinality():
        print("error: the three multisets must have equal cardinality",
              file=sys.stderr)
        return USAGE
    if args.dump_ilp:
        print(dump_program(nmts_program(a, b, s)))
    cover = solve_nmts(a, b, s)
    code = _verdict(cover is not None)
    if args.certificate and cover is not None:
        _print_cover(cover)
    return code


def _cmd_ewmm(args) -> int:
    text, path = _read(args.instance)
    machine, census = formats.parse_machine_instance(text, path)
    try:
        cert = solve_ewmm(machine, census, budget=args.budget)
    except BudgetExceeded:
        print("UNKNOWN")
        return UNKNOWN
    code = _verdict(cert is not None)
    if args.certificate and cert is not None:
        print("base:")
        for index in cert.base_walk:
            print(cert.machine.transitions[index].text())
        for loop, count in cert.loop_counts:
            print(f"loop {loop.anchor} {count}:")
            for index in loop.cycle:
                print(cert.machine.transitions[index].text())
    return code


def _cmd_gwmm(args) -> int:
    text, path = _read(args.instance)
    machine, word, census = formats.parse_machine_instance(text, path, with_word=True)
    trace = solve_gwmm(machine, word, census)
    code = _verdict(trace is not None)
    if args.certificate and trace is not None:
        for index in trace:
            print(machine.transitions[index].text())
    return code


def _cmd_reduce_partition(args) -> int:
    text, path = _read(args.instance)
    multiset, target = formats.parse_multiset(text, path, expect_target=True)
    image = subsetsum_to_partition(multiset, target)
    sys.stdout.write(formats.write_multiset(image))
    return 0


def _cmd_reduce_mcc(args) -> int:
    text, path = _read(args.instance)
    graph = formats.parse_graph(text, path)
    machine, word, census = mcc_to_gwmm(graph)
    sys.stdout.write(formats.write_machine_instance(machine, census, word=word))
    return 0


def _cmd_reduce_heat(args) -> int:
    text, path = _read(args.instance)
    instance = formats.parse_heat(text, path)
    machine, census = heat_to_ewmm(instance)
    sys.stdout.write(formats.write_machine_instance(machine, census))
    return 0


def _cmd_reduce_splits(args) -> int:
    text, path = _read(args.instance)
    instance = formats.parse_splits(text, path)
    machine, word, census = splits_to_gwmm(instance)
    sys.stdout.write(formats.write_machine_instance(machine, census, word=word))
    return 0


def _cmd_verify(args) -> int:
    families = args.family or sorted(corpus.FAMILIES)
    failures = 0
    for name in families:
        check = corpus.FAMILIES[name]
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it costs
    some 40 parses, and ``parse_args`` leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="varsolve",
        description="Exact solvers for few-distinct-value problems and "
                    "Mealy-machine census problems.")
    sub = parser.add_subparsers(dest="command", required=True)

    def solver(name, handler, help_text, dump_ilp=False, budget=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("instance", help="instance file, or - for stdin")
        p.add_argument("--certificate", action="store_true",
                       help="print a certificate after a YES verdict")
        if dump_ilp:
            p.add_argument("--dump-ilp", action="store_true",
                           help="print the constructed integer program")
        if budget:
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                           help="search node cap before reporting UNKNOWN")
        p.set_defaults(handler=handler)
        return p

    solver("subsetsum", _cmd_subsetsum,
           "does a submultiset sum to the target?", dump_ilp=True)
    solver("partition", _cmd_partition,
           "does the multiset split into two equal-sum halves?", dump_ilp=True)
    solver("threepartition", _cmd_threepartition,
           "does the multiset split into equal-sum triples?", dump_ilp=True)
    solver("num3dm", _cmd_num3dm,
           "do the three multisets match into triples summing to s?",
           dump_ilp=True)
    solver("nmts", _cmd_nmts,
           "do the three multisets match into triples with A+B=S?", dump_ilp=True)
    solver("ewmm", _cmd_ewmm,
           "is there an input word whose output meets the census?", budget=True)
    solver("gwmm", _cmd_gwmm,
           "does a computation on the given word meet the census?")

    for name, handler, help_text in (
            ("reduce-partition", _cmd_reduce_partition,
             "rewrite a subset-sum instance as a partition instance"),
            ("reduce-mcc", _cmd_reduce_mcc,
             "rewrite a multicolored-clique instance as a given-word instance"),
            ("reduce-heat", _cmd_reduce_heat,
             "rewrite a heat-scheduling instance as an exists-word instance"),
            ("reduce-splits", _cmd_reduce_splits,
             "rewrite a splits-game instance as a given-word instance")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("instance", help="instance file, or - for stdin")
        p.set_defaults(handler=handler)

    p = sub.add_parser("verify", help="run the paired solver/oracle corpus")
    p.add_argument("--seed", type=int, default=42, help="corpus seed")
    p.add_argument("--family", action="append", choices=sorted(corpus.FAMILIES),
                   help="verify one family (repeatable); default: all")
    p.set_defaults(handler=_cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exit_:
        return USAGE if exit_.code not in (0, None) else 0
    try:
        return args.handler(args)
    except formats.ParseError as error:
        print(f"error: {error}", file=sys.stderr)
        return USAGE
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return USAGE
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
