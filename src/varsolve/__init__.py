"""Exact solvers for problems whose hardness hides in repeated numbers.

The toolkit covers multiset decision problems parameterized by the number
of distinct values (subset sum, partition, 3-partition, numerical
3-dimensional matching, numerical matching with target sums), the two
output-census problems over nondeterministic Mealy machines they connect
to, constructive reductions between all of these, and exhaustive oracles
for verification.
"""

from .census_solvers import solve_ewmm, solve_gwmm
from .ilp import (Assignment, BudgetExceeded, Constraint, IntegerProgram,
                  MalformedProgram, ProvenInfeasible, dump_program,
                  propagate_bounds, solve_feasibility)
from .mealy import (EMPTY, CensusRequirement, Loop, MealyMachine, Transition,
                    WalkDecomposition, census_of, decompose_counts, decompose_walk,
                    run, subdivide)
from .reductions import (HeatInstance, MulticoloredGraph, SplitsInstance,
                         heat_to_ewmm, mcc_to_gwmm, splits_to_gwmm,
                         subsetsum_to_partition)
from .variety import (Multiset, SubsetCertificate, TripleCover, combined_variety,
                      solve_3partition, solve_num_3dm, solve_nmts,
                      solve_partition, solve_subset_sum)

__all__ = [
    "Assignment", "BudgetExceeded", "CensusRequirement", "Constraint", "EMPTY",
    "HeatInstance", "IntegerProgram", "Loop", "MalformedProgram",
    "MealyMachine", "MulticoloredGraph",
    "Multiset", "ProvenInfeasible", "SplitsInstance", "SubsetCertificate",
    "Transition", "TripleCover", "WalkDecomposition", "census_of",
    "combined_variety", "decompose_counts", "decompose_walk", "dump_program",
    "heat_to_ewmm", "mcc_to_gwmm", "propagate_bounds", "run", "solve_3partition",
    "solve_ewmm", "solve_feasibility", "solve_gwmm", "solve_nmts",
    "solve_num_3dm", "solve_partition", "solve_subset_sum", "splits_to_gwmm",
    "subdivide", "subsetsum_to_partition",
]
