"""Exact solvers for problems whose hardness hides in repeated numbers.

The toolkit covers multiset decision problems parameterized by the number
of distinct values (subset sum, partition, 3-partition, numerical
3-dimensional matching, numerical matching with target sums), the two
output-census problems over nondeterministic Mealy machines they connect
to, constructive reductions between all of these, and exhaustive oracles
for verification.

``import varsolve`` loads no submodule.  Each ``__all__`` name and each
submodule is resolved on first access (PEP 562 ``__getattr__``), through
``_HOME``, which names the module that holds each public name, and is then
kept as a package attribute; ``from varsolve import *`` loads them all.
``varsolve.cli`` resolves the solvers and reductions it calls through the
same table, and ``formats`` and ``reductions`` reach the types they build
as package attributes, so a command-line call loads only the modules its
subcommand runs.
"""

import importlib

_SUBMODULES = frozenset({"census_solvers", "cli", "corpus", "formats", "ilp",
                         "mealy", "oracle", "reductions", "variety"})

_EXPORTS = {
    "census_solvers": ("solve_ewmm", "solve_gwmm"),
    "ilp": ("Assignment", "BudgetExceeded", "Constraint", "IntegerProgram",
            "MalformedProgram", "dump_program", "solve_feasibility"),
    "mealy": ("EMPTY", "CensusRequirement", "Loop", "MealyMachine", "Transition",
              "WalkDecomposition", "census_of", "decompose_counts", "run",
              "subdivide", "subdivide_part"),
    "reductions": ("HeatInstance", "MulticoloredGraph", "SplitsInstance",
                   "heat_to_ewmm", "mcc_to_gwmm", "splits_to_gwmm",
                   "subsetsum_to_partition"),
    "variety": ("Multiset", "SubsetCertificate", "TripleCover", "solve_3partition",
                "solve_num_3dm", "solve_nmts", "solve_partition", "solve_subset_sum"),
}
# Each public name -> the submodule that holds it.
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def _load(owner: str, name: str):
    """The public name or submodule ``name``, importing the module that holds
    it; for any other name, AttributeError on module ``owner``."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {owner!r} has no attribute {name!r}")


def __getattr__(name: str):
    value = globals()[name] = _load(__name__, name)
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
