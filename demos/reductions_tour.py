"""Tour: how scheduling and graph problems become census questions.

Run:  python3 demos/reductions_tour.py
"""

from varsolve import (EMPTY, HeatInstance, MulticoloredGraph, SplitsInstance,
                      heat_to_ewmm, mcc_to_gwmm, solve_ewmm, solve_gwmm,
                      splits_to_gwmm)
from varsolve.oracle import brute_mcc_clique

print("=== Two-processor splits game ===")
print("Nature deals time gaps 4 1 2 1 1 1 4; the player must realize")
print("jobs of lengths 1 (x1), 3 (x3), 4 (x1), 5 (x2).")
game = SplitsInstance(gaps=(4, 1, 2, 1, 1, 1, 4),
                      job_census={1: 1, 3: 3, 4: 1, 5: 2})
machine, word, census = splits_to_gwmm(game)
trace = solve_gwmm(machine, word, census)
print("winnable?", "yes" if trace else "no")
print("the play, as machine steps (state = lag of the idle processor):")
for index in trace:
    print("  ", machine.transitions[index].text())

print("\n=== Heat-sensitive unit jobs ===")
print("threshold 3, deadline 6, jobs with heat levels 4, 4, 1, 1")
instance = HeatInstance(threshold=3, job_census={4: 2, 1: 2}, deadline=6)
machine, census = heat_to_ewmm(instance)
cert = solve_ewmm(machine, census)
if cert:
    order = [t.writes for t in cert.walk() if t.writes != EMPTY]
    print("feasible heat order:", " ".join(order))
else:
    print("infeasible")

print("\n=== Multicolored clique as a census question ===")
graph = MulticoloredGraph(
    k=3,
    classes=(("a1", "a2"), ("b1", "b2"), ("c1", "c2")),
    edges=(("a1", "b1"), ("a1", "c1"), ("b1", "c1"),
           ("a2", "b2"), ("b2", "c1"), ("a2", "c2")))
machine, word, census = mcc_to_gwmm(graph)
print(f"machine: {len(machine.states)} states, word length {len(word)}, "
      f"{len(census.letters())} counted letters")
trace = solve_gwmm(machine, word, census)
print("clique found by the census solver?", "yes" if trace else "no")
print("brute-force agrees?", brute_mcc_clique(graph) == (trace is not None))
