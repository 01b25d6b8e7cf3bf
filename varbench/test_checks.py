"""Tests of the benchmark's own checks.

Run from the repository root with ``python3 -m pytest varbench``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from varbench import checks, run, workloads  # noqa: E402


def solve(instance: dict, tmp_path: Path) -> tuple[str, str | None]:
    """Run the instance through the command line; return (stdout, pipe text)."""
    from varsolve import cli

    steps = run.write_inputs([instance], tmp_path)[0]
    text = None
    for argv in steps:
        if text is not None:
            sys.stdin = io.StringIO(text)
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                cli.main(argv)
        finally:
            sys.stdin = sys.__stdin__
        previous, text = text, out.getvalue()
    return text, previous


def first(workload: str, prefix: str, expected: str = "YES") -> dict:
    return next(i for i in workloads.instances(workload, 5)
                if i["id"].startswith(prefix) and i["expected"] == expected)


CASES = [("multiset-ilp", "subsetsum-yes"), ("multiset-ilp", "partition-yes"),
         ("multiset-ilp", "threepartition-yes"), ("multiset-ilp", "num3dm-yes"),
         ("multiset-ilp", "nmts-yes"), ("census-exists", "ewmm-"),
         ("census-exists", "heat1-"), ("census-given", "mcc3x3-yes"),
         ("census-given", "gwmm-")]


@pytest.mark.parametrize("workload,prefix", CASES)
def test_real_certificate_passes_and_tampered_one_is_rejected(workload, prefix, tmp_path):
    instance = first(workload, prefix)
    stdout, intermediate = solve(instance, tmp_path)
    assert checks.check_output(instance, stdout, intermediate) == "YES"
    lines = stdout.splitlines()
    # Drop the last certificate line: a count, a triple, or a step is missing.
    with pytest.raises(checks.CheckFailed, match="bad certificate"):
        checks.check_output(instance, "\n".join(lines[:-1]) + "\n", intermediate)


def test_tampered_selection_count_is_rejected():
    instance = workloads._instance("t", "subsetsum", "3 2\n5 1\ns=11\n", "YES", "test")
    assert checks.check_output(instance, "YES\n3 2\n5 1\n", None) == "YES"
    with pytest.raises(checks.CheckFailed, match="bad certificate"):
        checks.check_output(instance, "YES\n3 2\n5 2\n", None)


def test_walk_through_a_foreign_midpoint_is_rejected():
    text = workloads.write_machine(["q0", "q1"], [("q0", "a", "q1", "x")], {"x": 1})
    instance = workloads._instance("w", "ewmm", text, "YES", "test")
    good = "YES\nbase:\nq0 a -> t0 x\nt0 _ -> q1 _\n"
    assert checks.check_output(instance, good, None) == "YES"
    # The midpoint claims to lead back to q0, which no transition does.
    with pytest.raises(checks.CheckFailed, match="midpoint"):
        checks.check_output(instance, "YES\nbase:\nq0 a -> t0 x\nt0 _ -> q0 _\n", None)


def flipped_result(instance: dict) -> dict:
    flipped = "NO\n" if instance["expected"] == "YES" else "YES\n"
    return {"rows": [(0, 0.01, 0)], "rounds": 1, "wall": 0.01, "round_walls": [0.01],
            "probes": [(0, 0.004)],
            "peak_rss_mb": 30.0,
            "outputs": [{"status": "ok", "codes": [0 if flipped == "YES\n" else 1],
                         "intermediate": None, "stdout": flipped}]}


def test_flipped_verdict_is_caught():
    instance = first("multiset-ilp", "subsetsum-no", "NO")
    with pytest.raises(checks.CheckFailed, match="answered YES, expected NO"):
        run.check_results([instance], flipped_result(instance))


def test_flipped_verdict_stops_the_run(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "setup_seconds", lambda: (0.1, 0.1))
    monkeypatch.setattr(run, "run_worker",
                        lambda job, work, timeout: flipped_result(
                            workloads.instances("multiset-ilp", 2)[0]))
    code = run.main(["--workload", "multiset-ilp", "--seed", "2", "--seconds", "1"])
    assert code == 1
    captured = capsys.readouterr()
    assert "wrong answer" in captured.err
    assert json.loads(captured.out.splitlines()[-1])["correct"] is False


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_instance_files(workload, tmp_path):
    run.write_inputs(workloads.instances(workload, 7), tmp_path / "a")
    run.write_inputs(workloads.instances(workload, 7), tmp_path / "b")
    run.write_inputs(workloads.instances(workload, 8), tmp_path / "c")
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert all((tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
               for name in files)
    assert any((tmp_path / "a" / name).read_bytes() != (tmp_path / "c" / name).read_bytes()
               for name in files if not name.startswith("fixed"))


def test_references_agree_with_small_cases():
    assert checks.subset_sum_reference({3: 2, 5: 1}, 11)
    assert not checks.subset_sum_reference({3: 2, 5: 1}, 7)
    assert checks.three_partition_reference({1: 2, 2: 2, 3: 2})
    assert not checks.three_partition_reference({1: 3, 2: 2, 4: 1})
    assert checks.clique_reference([["a"], ["b"], ["c"]],
                                   [("a", "b"), ("b", "c"), ("a", "c")])
    assert not checks.clique_reference([["a"], ["b"], ["c"]], [("a", "b"), ("b", "c")])
    assert checks.heat_reference(1, 3, {2: 1})
    assert not checks.heat_reference(1, 3, {2: 2})
    # Gaps 1 1: the first job has length 1; the second is 1 or 2 long.
    assert checks.splits_reference([1, 1], {1: 1, 2: 1})
    assert not checks.splits_reference([1, 1], {2: 2})
