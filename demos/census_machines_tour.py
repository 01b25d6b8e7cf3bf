"""Tour: transducers with exact output-letter quotas.

A nondeterministic machine reads letters and writes letters; a census
requirement demands each output letter exactly so many times.  Two
questions: does SOME input word admit a census-meeting computation
(exists-word), and does a GIVEN word (given-word)?
Run:  python3 demos/census_machines_tour.py
"""

from varsolve import (EMPTY, CensusRequirement, MealyMachine, Transition,
                      census_of, decompose_walk, run, solve_ewmm, solve_gwmm,
                      subdivide)

print("=== A tiny vending machine ===")
machine = MealyMachine(
    states=frozenset({"idle", "busy"}),
    start="idle",
    input_alphabet=frozenset({"coin", "button"}),
    output_alphabet=frozenset({"snack", "tune", EMPTY}),
    transitions=(
        Transition("idle", "coin", "busy", EMPTY),
        Transition("busy", "button", "idle", "snack"),
        Transition("busy", "coin", "busy", "tune"),
    ))

print("exists-word: can it ever emit exactly 2 snacks and 3 tunes?")
census = CensusRequirement.of({"snack": 2, "tune": 3})
cert = solve_ewmm(machine, census)  # a walk decomposition over subdivide(machine)
walk = cert.walk()
word = [t.reads for t in walk if t.reads != EMPTY]
print("  one such input word:", " ".join(word))
simple = subdivide(machine)
choices = [simple.transitions.index(t) for t in walk]
print("  replayed census:", census_of(run(simple, word, choices)).as_dict())

print("\ngiven-word: reading coin coin button coin button")
word = ("coin", "coin", "button", "coin", "button")
trace = solve_gwmm(machine, word, CensusRequirement.of({"snack": 2, "tune": 1}))
print("  2 snacks + 1 tune?", "yes" if trace else "no")
for index in trace:
    print("   ", machine.transitions[index].text())
trace = solve_gwmm(machine, word, CensusRequirement.of({"snack": 3}))
print("  3 snacks?", "yes" if trace else "no")

print("\n=== Walks decompose into a short base plus anchored loops ===")
state = simple.start
walk = []
for _ in range(12):
    options = [t for t in simple.transitions if t.source == state]
    if not options:
        break
    walk.append(options[0])
    state = options[0].target
decomposition = decompose_walk(simple, walk)
print(f"walk of length {len(walk)} became base of length "
      f"{len(decomposition.base_walk)} plus {len(decomposition.loops)} loop kinds")
for loop in decomposition.loops:
    print(f"  at {loop.anchor}: cycle of {len(loop.cycle)} transitions x{loop.count}")
