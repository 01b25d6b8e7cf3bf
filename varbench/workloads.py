"""Seeded instance sets for the three workloads.

Each workload is one round of instances: a part drawn from ``--seed`` and
a fixed part that does not depend on it.  The fixed part holds only the
instances that fail on every run (they exercise faults recorded in
CHANGES.md); every seeded instance is decided.  Expected answers come from
the construction or from the references in ``checks``, never from the
solvers.

An instance is a dict with keys ``id``, ``command`` (the solver
subcommand), ``reduce`` (a reduce-* subcommand piped into the solver, or
None), ``text`` (the instance file), ``expected`` (YES, NO, or None when
no reference answer is known), ``why`` (where the expected answer comes
from), ``certificate`` and ``fixed``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from . import checks

WORKLOADS = ("multiset-ilp", "census-exists", "census-given")

# Per-instance wall-time limit (seconds) in each workload.  Every seeded
# instance finishes far inside it and every fixed instance of the
# multiset workload runs far past it, so the failed count repeats exactly.
TIME_LIMIT = {"multiset-ilp": 1.0, "census-exists": 10.0, "census-given": 10.0}

EXPECTED_FILE = Path(__file__).with_name("expected.json")


def _instance(ident, command, text, expected, why, reduce=None,
              certificate=True, fixed=False):
    return {"id": ident, "command": command, "reduce": reduce, "text": text,
            "expected": expected, "why": why, "certificate": certificate,
            "fixed": fixed}


# ------------------------------------------------------------------ writers


def write_multiset(counts: dict[int, int], target=None) -> str:
    lines = [f"{v} {m}" for v, m in counts.items()]
    if target is not None:
        lines.append(f"s={target}")
    return "\n".join(lines) + "\n"


def write_sections(names, columns, target=None) -> str:
    lines = []
    for name, column in zip(names, columns):
        lines.append(f"{name}:")
        lines.extend(f"{v} {m}" for v, m in column.items())
    if target is not None:
        lines.append(f"s={target}")
    return "\n".join(lines) + "\n"


def write_machine(states, transitions, census, word=None) -> str:
    inputs = sorted(set("abc") | {t[1] for t in transitions})
    outputs = sorted(set("xyz") | {t[3] for t in transitions})
    lines = ["states: " + " ".join(states), "start: " + states[0],
             "input: " + " ".join(inputs), "output: " + " ".join(outputs)]
    lines.extend(f"{s} {r} -> {t} {w}" for s, r, t, w in transitions)
    if word is not None:
        lines.append("word: " + " ".join(word))
    lines.append("census:")
    lines.extend(f"{letter} {n}" for letter, n in sorted(census.items()) if n)
    return "\n".join(lines) + "\n"


def _counts(values) -> dict[int, int]:
    out: dict[int, int] = {}
    for v in values:
        out[v] = out.get(v, 0) + 1
    return out


# -------------------------------------------------------- multiset problems


def _subset_sum(rng, ident, want_yes):
    values = rng.sample(range(100, 1000), 3)
    counts = {v: rng.randint(20, 40) for v in values}
    total = sum(v * m for v, m in counts.items())
    if want_yes:
        target = sum(v * rng.randint(0, m) for v, m in counts.items())
        return _instance(ident, "subsetsum", write_multiset(counts, target),
                         "YES", "planted selection")
    bits = checks.reachable_sums(counts, total)
    target = rng.randint(total // 3, 2 * total // 3)
    while bits >> target & 1:
        target += 1
    return _instance(ident, "subsetsum", write_multiset(counts, target),
                     "NO", "reachable-sums DP")


def _partition(rng, ident, want_yes):
    while True:
        values = rng.sample(range(100, 1000), 4)
        counts = {v: rng.randint(10, 30) for v in values}
        total = sum(v * m for v, m in counts.items())
        if total % 2:
            continue
        if checks.subset_sum_reference(counts, total // 2) == want_yes:
            return _instance(ident, "partition", write_multiset(counts),
                             "YES" if want_yes else "NO", "reachable-sums DP")


def _triple_columns(rng, k, n, rule):
    """n planted triples over k values per source; rule completes a triple."""
    firsts = rng.sample(range(1, 40), k)
    seconds = rng.sample(range(1, 40), k)
    triples = []
    for _ in range(n):
        a, b = rng.choice(firsts), rng.choice(seconds)
        triples.append((a, b, rule(a, b)))
    return [_counts(t[i] for t in triples) for i in range(3)]


def _num3dm(rng, ident, want_yes):
    if want_yes:
        s = rng.randint(90, 120)
        a, b, c = _triple_columns(rng, 4, rng.randint(40, 80), lambda x, y: s - x - y)
        return _instance(ident, "num3dm", write_sections("ABC", (a, b, c), s),
                         "YES", "planted triples")
    # The total-sum cliff family: A = B = {o+1..o+k}, C = {o+2..o+k+1}, each
    # value m times, s = 3o+k+5.  The totals differ for k = 6, so it is NO.
    k, m, o = 6, 2, rng.randint(0, 50)
    a = {o + v: m for v in range(1, k + 1)}
    c = {o + v: m for v in range(2, k + 2)}
    s = 3 * o + k + 5
    return _instance(ident, "num3dm", write_sections("ABC", (a, dict(a), c), s),
                     "NO", "total sum differs from n*s")


def _nmts(rng, ident, want_yes):
    a, b, s = _triple_columns(rng, 4, rng.randint(40, 80), lambda x, y: x + y)
    if want_yes:
        return _instance(ident, "nmts", write_sections("ABS", (a, b, s)),
                         "YES", "planted triples")
    # Move one copy of an S value up by one: sum(S) != sum(A) + sum(B).
    value = rng.choice(sorted(s))
    s[value] -= 1
    if not s[value]:
        del s[value]
    s[value + 1] = s.get(value + 1, 0) + 1
    return _instance(ident, "nmts", write_sections("ABS", (a, b, s)),
                     "NO", "sum(S) differs from sum(A)+sum(B)")


def _three_partition(rng, ident, want_yes):
    """Triples (x, y, 20-x-y); NO instances move one unit between two values."""
    while True:
        n = rng.randint(4, 5)
        values = []
        for _ in range(n):
            x, y = rng.randint(1, 9), rng.randint(1, 9)
            values += [x, y, 20 - x - y]
        if not want_yes:
            i, j = rng.sample(range(len(values)), 2)
            values[i] += 1
            values[j] -= 1
            if values[j] <= 0:
                continue
        counts = _counts(values)
        if want_yes or not checks.three_partition_reference(counts):
            return _instance(ident, "threepartition", write_multiset(counts),
                             "YES" if want_yes else "NO",
                             "planted triples" if want_yes else "count-vector DP")


MULTISET_MIX = (("subsetsum", _subset_sum, 50, 50), ("partition", _partition, 40, 40),
                ("num3dm", _num3dm, 50, 60), ("nmts", _nmts, 50, 50),
                ("threepartition", _three_partition, 50, 25))


def multiset_ilp(seed: int) -> list[dict]:
    rng = random.Random(f"multiset-ilp/{seed}")
    out = []
    for name, make, yes, no in MULTISET_MIX:
        for i in range(yes):
            out.append(make(rng, f"{name}-yes-{i:02d}", True))
        for i in range(no):
            out.append(make(rng, f"{name}-no-{i:02d}", False))
    return out + fixed_multiset()


def fixed_multiset() -> list[dict]:
    """Fault (b): the integer-program engine runs far past the limit."""
    out = []
    a = {v: 10 for v in range(1, 7)}
    c = {v: 10 for v in range(2, 8)}
    out.append(_instance("fixed-num3dm-cliff", "num3dm",
                         write_sections("ABC", (a, dict(a), c), 11), "NO",
                         "total sum 690 differs from n*s = 660", fixed=True))
    rng = random.Random("fixed-subsetsum")
    counts = {10**6 + rng.randint(-5000, 5000): 10**4 for _ in range(8)}
    target = sum(v * rng.randint(0, m) for v, m in counts.items())
    out.append(_instance("fixed-subsetsum-cliff", "subsetsum",
                         write_multiset(counts, target), "YES",
                         "planted selection", fixed=True))
    rng = random.Random("fixed-threepartition-0")
    values = []
    for _ in range(48):
        x, y = rng.randint(1, 9), rng.randint(1, 9)
        values += [x, y, 20 - x - y]
    values[0] += 1
    values[1] -= 1
    out.append(_instance("fixed-threepartition-cliff", "threepartition",
                         write_multiset(_counts(values)), None,
                         "count-vector DP", fixed=True))
    return out


# ------------------------------------------------------- exists-word census


def _machine(rng, n_states, n_transitions, empty_writes):
    states = [f"q{i}" for i in range(n_states)]
    transitions = set()
    while len(transitions) < n_transitions:
        writes = "_" if rng.random() < empty_writes else rng.choice("xyz")
        transitions.add((rng.choice(states), rng.choice("abc"),
                         rng.choice(states), writes))
    return states, sorted(transitions)


def _walk_census(rng, states, transitions, length):
    state, census = states[0], {}
    for _ in range(length):
        moves = [t for t in transitions if t[0] == state]
        if not moves:
            break
        t = rng.choice(moves)
        state = t[2]
        if t[3] != "_":
            census[t[3]] = census.get(t[3], 0) + 1
    return census


def _ewmm(rng, ident):
    """Machines whose every transition writes, census from a random walk,
    half of them with one letter added to the census."""
    n = rng.randint(4, 6)
    states, transitions = _machine(rng, n, 2 * n, 0.0)
    census = _walk_census(rng, states, transitions, rng.randint(6, 9))
    if rng.random() < 0.5:
        letter = rng.choice("xyz")
        census[letter] = census.get(letter, 0) + 1
    text = write_machine(states, transitions, census)
    answer = checks.exists_word_reference(checks.Machine(text))
    return _instance(ident, "ewmm", text, "YES" if answer else "NO",
                     "search over (state, partial census)")


def write_heat(threshold, deadline, jobs) -> str:
    lines = [str(threshold), str(deadline)]
    lines.extend(f"job {h} {n}" for h, n in sorted(jobs.items()) if n)
    return "\n".join(lines) + "\n"


def _heat_instance(rng, ident, threshold, deadline, fixed=False):
    jobs: dict[int, int] = {}
    for _ in range(rng.randint(deadline // 2, deadline)):
        level = rng.randint(0, 2 * threshold)
        jobs[level] = jobs.get(level, 0) + 1
    answer = checks.heat_reference(threshold, deadline, jobs)
    return _instance(ident, "ewmm", write_heat(threshold, deadline, jobs),
                     "YES" if answer else "NO", "memoised play of the schedule",
                     reduce="reduce-heat", fixed=fixed)


def census_exists(seed: int) -> list[dict]:
    rng = random.Random(f"census-exists/{seed}")
    out = [_ewmm(rng, f"ewmm-{i:03d}") for i in range(960)]
    for i in range(200):
        out.append(_heat_instance(rng, f"heat1-{i:03d}", 1, rng.randint(8, 14)))
    for i in range(200):
        out.append(_heat_instance(rng, f"heat2-{i:03d}", 2, rng.randint(5, 8)))
    return out + fixed_exists()


# Machine 4 of the fixed seed-11 family exhausts the exists-word node
# budget (fault (a)), as do machines 35, 40 and 55, left out to keep the
# round short.  The family has 3..8 states, three transitions per state, a
# third of them writing nothing, and censuses from walks of length 1..12.
FIXED_EWMM = (4,)


def fixed_exists() -> list[dict]:
    """Fault (a): UNKNOWN at the default budget although a search decides."""
    rng = random.Random(11)
    family = []
    for _ in range(max(FIXED_EWMM) + 1):
        n = rng.randint(3, 8)
        states, transitions = _machine(rng, n, 3 * n, 1 / 3)
        census = _walk_census(rng, states, transitions, rng.randint(1, 12))
        family.append(write_machine(states, transitions, census))
    out = []
    for index in FIXED_EWMM:
        answer = checks.exists_word_reference(checks.Machine(family[index]))
        out.append(_instance(f"fixed-ewmm-{index}", "ewmm", family[index],
                             "YES" if answer else "NO",
                             "search over (state, partial census)", fixed=True))
    out.append(_heat_instance(random.Random("fixed-heat"), "fixed-heat-3-14",
                              3, 14, fixed=True))
    return out


# ------------------------------------------------------- given-word census


def write_graph(classes, edges) -> str:
    lines = [str(len(classes))]
    lines.extend(f"class {i}: " + " ".join(c) for i, c in enumerate(classes, 1))
    lines.extend(f"edge {u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def _connected(classes, edges) -> bool:
    vertices = [v for c in classes for v in c]
    reached, frontier = {vertices[0]}, [vertices[0]]
    while frontier:
        v = frontier.pop()
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                if x == v and y not in reached:
                    reached.add(y)
                    frontier.append(y)
    return len(reached) == len(vertices)


def _mcc(rng, ident, k, size, per_pair, want_yes):
    """k classes of ``size`` vertices, ``per_pair`` edges between each pair."""
    classes = [[f"{chr(97 + i)}{p + 1}" for p in range(size)] for i in range(k)]
    while True:
        edges = []
        for i in range(k):
            for j in range(i + 1, k):
                pairs = [(u, v) for u in classes[i] for v in classes[j]]
                edges += rng.sample(pairs, per_pair)
        if not _connected(classes, edges):
            continue
        if checks.clique_reference(classes, edges) == want_yes:
            return _instance(ident, "gwmm", write_graph(classes, edges),
                             "YES" if want_yes else "NO", "clique search",
                             reduce="reduce-mcc")


def write_splits(gaps, jobs) -> str:
    lines = ["gaps: " + " ".join(map(str, gaps))]
    lines.extend(f"job {length} {n}" for length, n in sorted(jobs.items()) if n)
    return "\n".join(lines) + "\n"


def _splits(rng, ident):
    gaps = [rng.randint(1, 4) for _ in range(12)]
    stops, deadline, jobs = [0, 0], 0, {}
    for gap in gaps:
        deadline += gap
        side = rng.randint(0, 1)
        job = deadline - stops[side]
        stops[side] = deadline
        jobs[job] = jobs.get(job, 0) + 1
    if rng.random() < 0.5:
        # Trade one job for another length; usually makes the game unwinnable.
        old = rng.choice(sorted(jobs))
        jobs[old] -= 1
        new = rng.randint(1, 7)
        jobs[new] = jobs.get(new, 0) + 1
    answer = checks.splits_reference(gaps, jobs)
    return _instance(ident, "gwmm", write_splits(gaps, jobs),
                     "YES" if answer else "NO", "memoised play of the game",
                     reduce="reduce-splits", certificate=False)


def _gwmm(rng, ident):
    """Small machines with empty moves, a word, and a census that is the
    output of a random computation on it, or that plus one letter."""
    states = ["q0", "q1", "q2"]
    transitions = set()
    while len(transitions) < 9:
        transitions.add((rng.choice(states), rng.choice("ab_"),
                         rng.choice(states), rng.choice("xy_")))
    transitions = sorted(transitions)
    word = [rng.choice("ab") for _ in range(12)]
    census = _walk_census(rng, states, transitions, len(word))
    if rng.random() < 0.5:
        letter = rng.choice("xy")
        census[letter] = census.get(letter, 0) + 1
    text = write_machine(states, transitions, census, word)
    answer = checks.given_word_reference(checks.Machine(text))
    return _instance(ident, "gwmm", text, "YES" if answer else "NO",
                     "search over (state, position, census, empty run)")


def census_given(seed: int) -> list[dict]:
    rng = random.Random(f"census-given/{seed}")
    out = []
    for i in range(60):
        out.append(_mcc(rng, f"mcc3x3-no-{i:02d}", 3, 3, 4, False))
    for i in range(20):
        out.append(_mcc(rng, f"mcc3x3-yes-{i:02d}", 3, 3, 4, True))
    for i in range(40):
        out.append(_mcc(rng, f"mcc4x2-{'yes' if i % 2 else 'no'}-{i:02d}",
                        4, 2, 2, bool(i % 2)))
    out += [_splits(rng, f"splits-{i:03d}") for i in range(120)]
    out += [_gwmm(rng, f"gwmm-{i:03d}") for i in range(120)]
    return out


GENERATORS = {"multiset-ilp": multiset_ilp, "census-exists": census_exists,
              "census-given": census_given}


def instances(workload: str, seed: int) -> list[dict]:
    """The round for one workload and seed, with fixed expectations filled in.

    The round is shuffled so that each class is spread over the whole round
    rather than run in one stretch, where a short slowdown of the machine
    would move all of its samples, and so a percentile, at once.
    """
    out = GENERATORS[workload](seed)
    random.Random(f"order/{workload}/{seed}").shuffle(out)
    expected = json.loads(EXPECTED_FILE.read_text()) if EXPECTED_FILE.exists() else {}
    for instance in out:
        if instance["fixed"] and instance["expected"] is None:
            record = expected.get(instance["id"])
            if record is not None and record["text"] == instance["text"]:
                instance["expected"] = record["expected"]
    return out
