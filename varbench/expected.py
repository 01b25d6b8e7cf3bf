"""Rebuild ``expected.json``: reference answers kept out of every run.

Usage (from the repository root): ``python3 varbench/expected.py``.

Only the fixed instances whose answer is not known by construction need
this.  Their reference (the 3-partition peel) is exponential in general: on
another 48-triple instance of the same family it did not finish in 60 s.
Each seeded instance gets its answer from its construction or from a fast
reference while the run is set up.  The answers come from the references in
``checks``, never from the solvers, and each is stored next to the instance
text it belongs to, so a changed instance is never checked against a stale
answer.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from varbench import checks, workloads  # noqa: E402

REFERENCES = {
    "threepartition": lambda text: checks.three_partition_reference(
        checks.parse_multiset(text)[0]),
}


def main() -> int:
    records = {}
    for make in (workloads.fixed_multiset, workloads.fixed_exists):
        for instance in make():
            if instance["expected"] is not None:
                continue
            begin = time.perf_counter()
            answer = REFERENCES[instance["command"]](instance["text"])
            records[instance["id"]] = {"expected": "YES" if answer else "NO",
                                       "why": instance["why"],
                                       "text": instance["text"]}
            print(f"{instance['id']}: {records[instance['id']]['expected']} "
                  f"({time.perf_counter() - begin:.1f} s)", file=sys.stderr)
    workloads.EXPECTED_FILE.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
