"""Spans around the public functions of each varsolve layer.

The traced run wraps each function at the module attribute through which
its caller reaches it (``varsolve.cli.solve_ewmm``, not
``varsolve.census_solvers.solve_ewmm``), records one span per call in
memory, and turns the spans into per-layer metrics when the run ends.  A
name the program no longer has is skipped and its metrics read 0.
"""

from __future__ import annotations

import importlib
import os
import resource
import time

# (module, attribute, span name, what to note about the call)
WRAPS = (
    ("varsolve.formats", "parse_multiset", "formats.parse", None),
    ("varsolve.formats", "parse_multiset_sections", "formats.parse", None),
    ("varsolve.formats", "parse_machine_instance", "formats.parse", None),
    ("varsolve.formats", "parse_graph", "formats.parse", None),
    ("varsolve.formats", "parse_heat", "formats.parse", None),
    ("varsolve.formats", "parse_splits", "formats.parse", None),
    ("varsolve.formats", "write_multiset", "formats.write", None),
    ("varsolve.formats", "write_machine_instance", "formats.write", None),
    ("varsolve.cli", "subsetsum_to_partition", "reductions.reduce", None),
    ("varsolve.cli", "mcc_to_gwmm", "reductions.reduce", None),
    ("varsolve.cli", "heat_to_ewmm", "reductions.reduce", None),
    ("varsolve.cli", "splits_to_gwmm", "reductions.reduce", None),
    ("varsolve.variety", "subset_sum_program", "variety.build", "variables"),
    ("varsolve.variety", "partition_program", "variety.build", "variables"),
    ("varsolve.variety", "num3dm_program", "variety.build", "variables"),
    ("varsolve.variety", "nmts_program", "variety.build", "variables"),
    ("varsolve.variety", "three_partition_program", "variety.build", "variables"),
    ("varsolve.cli", "solve_subset_sum", "variety.solve", None),
    ("varsolve.cli", "solve_partition", "variety.solve", None),
    ("varsolve.cli", "solve_3partition", "variety.solve", None),
    ("varsolve.cli", "solve_num_3dm", "variety.solve", None),
    ("varsolve.cli", "solve_nmts", "variety.solve", None),
    ("varsolve.variety", "solve_feasibility", "ilp.solve", "feasible"),
    ("varsolve.census_solvers", "solve_feasibility", "ilp.solve", "feasible"),
    ("varsolve.census_solvers", "subdivide", "mealy.subdivide", None),
    ("varsolve.cli", "solve_ewmm", "census_solvers.ewmm", None),
    ("varsolve.cli", "solve_gwmm", "census_solvers.gwmm", "memory"),
)

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss_kb() -> int:
    """Current resident set of this process in KiB (read-only use of /proc)."""
    try:
        with open("/proc/self/statm") as handle:
            return int(handle.read().split()[1]) * _PAGE // 1024
    except OSError:
        return 0


def _peak_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Holds spans as [name, start, end, parent, instance, note] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.instance = None

    def span(self, name, call, note=None):
        """Run ``call()`` inside a span and return its result."""
        index = len(self.spans)
        record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                  self.instance, None]
        self.spans.append(record)
        self.stack.append(index)
        if note == "memory":
            rss_before, peak_before = _rss_kb(), _peak_kb()
        record[1] = time.perf_counter()
        try:
            result = call()
        except BaseException as error:
            record[5] = type(error).__name__
            raise
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()
        if note == "variables":
            record[5] = len(getattr(result, "variables", ()))
        elif note == "feasible":
            record[5] = int(result is not None)
        elif note == "memory":
            peak_after = _peak_kb()
            # Growth counts only for a call that raised the process peak.
            record[5] = (peak_after - rss_before) / 1024 if peak_after > peak_before else 0.0
        return result

    def install(self) -> None:
        for module_name, attribute, name, note in WRAPS:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                continue
            original = getattr(module, attribute, None)
            if original is None:
                continue

            def wrapper(*args, _original=original, _name=name, _note=note, **kwargs):
                return self.span(_name, lambda: _original(*args, **kwargs), _note)

            setattr(module, attribute, wrapper)


PER_LAYER = (
    ("cli.main_s", "s"), ("cli.self_s", "s"),
    ("formats.parse_s", "s"), ("formats.write_s", "s"),
    ("reductions.reduce_s", "s"),
    ("variety.build_s", "s"), ("variety.self_s", "s"), ("variety.program_vars", "count"),
    ("ilp.solve_s", "s"), ("ilp.calls", "count"), ("ilp.feasible_frac", "frac"),
    ("census_solvers.ewmm_s", "s"), ("census_solvers.ewmm_self_s", "s"),
    ("census_solvers.ewmm_unknown", "count"),
    ("census_solvers.gwmm_s", "s"), ("census_solvers.gwmm_peak_mb", "MB"),
    ("mealy.subdivide_s", "s"),
    ("setup.import_s", "s"), ("setup.numpy_import_s", "s"),
)


def layer_metrics(spans: list[list], rounds: int) -> dict[str, float]:
    """Per-round totals for each layer (``setup.*`` is filled in elsewhere).

    A layer's time counts only its outermost spans, so a builder that calls
    another builder is not counted twice.  Self time is a span's duration
    minus the durations of its direct children.
    """
    child_time = [0.0] * len(spans)
    outermost = [True] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for index, (name, _, _, parent, _, _) in enumerate(spans):
        while parent >= 0:
            if spans[parent][0] == name:
                outermost[index] = False
                break
            parent = spans[parent][3]

    total: dict[str, float] = {}
    own: dict[str, float] = {}
    count: dict[str, int] = {}
    for index, (name, start, end, _, _, _) in enumerate(spans):
        if outermost[index]:
            total[name] = total.get(name, 0.0) + end - start
            own[name] = own.get(name, 0.0) + end - start - child_time[index]
            count[name] = count.get(name, 0) + 1

    def notes(name):
        return [s[5] for i, s in enumerate(spans) if s[0] == name and outermost[i]]

    feasible = [n for n in notes("ilp.solve") if isinstance(n, int)]
    per_round = {
        "cli.main_s": total.get("cli.main", 0.0),
        "cli.self_s": own.get("cli.main", 0.0),
        "formats.parse_s": total.get("formats.parse", 0.0),
        "formats.write_s": total.get("formats.write", 0.0),
        "reductions.reduce_s": total.get("reductions.reduce", 0.0),
        "variety.build_s": total.get("variety.build", 0.0),
        "variety.self_s": own.get("variety.solve", 0.0),
        "variety.program_vars": sum(n for n in notes("variety.build")
                                    if isinstance(n, int)),
        "ilp.solve_s": total.get("ilp.solve", 0.0),
        "ilp.calls": count.get("ilp.solve", 0),
        "census_solvers.ewmm_s": total.get("census_solvers.ewmm", 0.0),
        "census_solvers.ewmm_self_s": own.get("census_solvers.ewmm", 0.0),
        "census_solvers.ewmm_unknown": notes("census_solvers.ewmm").count("BudgetExceeded"),
        "census_solvers.gwmm_s": total.get("census_solvers.gwmm", 0.0),
        "mealy.subdivide_s": total.get("mealy.subdivide", 0.0),
    }
    out = {name: value / rounds for name, value in per_round.items()}
    out["ilp.feasible_frac"] = sum(feasible) / len(feasible) if feasible else 0.0
    out["census_solvers.gwmm_peak_mb"] = max(
        [n for n in notes("census_solvers.gwmm") if isinstance(n, float)], default=0.0)
    return out
