"""Pinned certificate and reduction outputs: stable, diffable text."""

import hashlib
import io
from pathlib import Path

import pytest

from varsolve import corpus
from varsolve.cli import main
from varsolve.formats import parse_machine_instance, write_graph, write_splits
from varsolve.mealy import Loop, WalkDecomposition, subdivide
from varsolve.oracle import validate_ewmm_decomposition

FIXTURES = Path(__file__).parent / "fixtures"


def capture(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_subsetsum_certificate_golden(capsys):
    code, out = capture(capsys, "subsetsum", str(FIXTURES / "ss1.txt"),
                        "--certificate")
    assert code == 0
    assert out == "YES\n3 2\n5 1\n"


def test_dump_ilp_golden(capsys):
    code, out = capture(capsys, "subsetsum", str(FIXTURES / "ss1.txt"),
                        "--dump-ilp")
    assert out == ("0 <= x1 <= 2\n"
                   "0 <= x2 <= 1\n"
                   "3*x1 + 5*x2 = 11\n"
                   "YES\n")


def test_ewmm_certificate_golden(capsys):
    code, out = capture(capsys, "ewmm", str(FIXTURES / "loop_ewmm.txt"),
                        "--certificate")
    assert out == ("YES\n"
                   "base:\n"
                   "loop q 5:\n"
                   "q a -> t0 b\n"
                   "t0 _ -> q _\n")


def test_gwmm_trace_golden(capsys):
    code, out = capture(capsys, "gwmm", str(FIXTURES / "ident_gwmm.txt"),
                        "--certificate")
    assert out == ("YES\n"
                   "q a -> q a\n"
                   "q a -> q a\n"
                   "q b -> q b\n")


@pytest.mark.parametrize("reduction, fixture, golden", [
    ("reduce-mcc", "triangle.txt", "triangle_gwmm.out"),
    ("reduce-splits", "fig2.txt", "fig2_gwmm.out"),
])
def test_reduction_image_trace_golden(capsys, monkeypatch, reduction, fixture,
                                      golden):
    code, image = capture(capsys, reduction, str(FIXTURES / fixture))
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(image))
    code, out = capture(capsys, "gwmm", "-", "--certificate")
    assert code == 0
    assert out == (FIXTURES / golden).read_text()


# The sha256 of the image each reduction prints for three fixtures and for
# the graphs and splits instances the corpus draws from seeds 1 and 2; the
# image text is part of the output, so a faster reduction leaves it as it is.
IMAGE_DIGESTS = {
    ("reduce-mcc", "triangle.txt"):
        "f3343fa3e1286ec94ef1f3513f9e924f2855c5067a68fc301ff8ec41066693ba",
    ("reduce-mcc", "parity_mcc.txt"):
        "d5f04ffeca696cebcc21705f887b902293eef9d60df1ef9a3ca7490079f42736",
    ("reduce-splits", "fig2.txt"):
        "e1b915ec33b984ae937f9b44ac9b09668a42a5b14047b08b5a97f9525006583d",
    ("reduce-mcc", "seed1"):
        "7a966028a3b20e800fd26a8af2b13202cb8a7ceca9f43db5448d662a3baa09b8",
    ("reduce-mcc", "seed2"):
        "e564c5c369f26cfb4a570658894b5537e2f75303ff948dc028b80a9f7a2c71f9",
    ("reduce-splits", "seed1"):
        "31c8610de4065121da60a93c5489121aaa0fe326faf3e0de7927c3410613ed86",
    ("reduce-splits", "seed2"):
        "6e8e813bffb5db2ba70aa782513c8e5ad876a2fcb8761e3b054e54dea1e07f0b",
}


@pytest.mark.parametrize("reduction, source", list(IMAGE_DIGESTS))
def test_reduction_images_are_pinned(capsys, tmp_path, reduction, source):
    if source.startswith("seed"):
        rng = corpus.make_rng(int(source[4:]))
        path = tmp_path / "instance.txt"
        path.write_text(write_graph(corpus.random_multicolored_graph(rng))
                        if reduction == "reduce-mcc"
                        else write_splits(corpus.random_splits_instance(rng)))
    else:
        path = FIXTURES / source
    code, image = capture(capsys, reduction, str(path))
    assert code == 0
    assert hashlib.sha256(image.encode()).hexdigest() == IMAGE_DIGESTS[reduction, source]


def read_printed_ewmm(m, certificate):
    """A printed ``ewmm --certificate`` read back against subdivide(m)."""
    sub = subdivide(m)
    by_text = {t.text(): t for t in sub.transitions}
    lines = certificate.splitlines()
    assert lines[:2] == ["YES", "base:"]
    base: list = []
    loops: list = []
    for line in lines[2:]:
        if line.startswith("loop "):
            _, anchor, count = line.rstrip(":").split()
            loops.append((anchor, int(count), []))
        else:
            (loops[-1][2] if loops else base).append(by_text[line])
    return WalkDecomposition(tuple(base), tuple(
        Loop(anchor, tuple(cycle), count) for anchor, count, cycle in loops))


def test_reduce_heat_ewmm_certificate_golden(capsys, monkeypatch):
    # A non-empty base walk and loops anchored at both of its states.
    code, image = capture(capsys, "reduce-heat", str(FIXTURES / "heat1.txt"))
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(image))
    code, out = capture(capsys, "ewmm", "-", "--certificate")
    assert code == 0
    assert out == (FIXTURES / "heat1_ewmm.out").read_text()
    m, census = parse_machine_instance(image)
    assert validate_ewmm_decomposition(m, census, read_printed_ewmm(m, out))


def test_reduction_output_is_reproducible(capsys):
    first = capture(capsys, "reduce-splits", str(FIXTURES / "fig2.txt"))
    second = capture(capsys, "reduce-splits", str(FIXTURES / "fig2.txt"))
    assert first == second
    code, out = first
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "states: 0 1 2 3 4 5 over"
    assert lines[1] == "start: 0"
    assert lines[2] == "input: 1 2 4"
    assert lines[3] == "output: 1 2 3 4 5"
    assert "word: 4 1 2 1 1 1 4" in lines
    assert lines[-4:] == ["1 1", "3 3", "4 1", "5 2"]


def test_num3dm_cover_golden(capsys):
    code, out = capture(capsys, "num3dm", str(FIXTURES / "n3dm1.txt"),
                        "--certificate")
    assert code == 0
    assert out == "YES\n1 2 3 1\n2 1 3 1\n"


def test_num3dm_dump_ilp_golden(capsys):
    code, out = capture(capsys, "num3dm", str(FIXTURES / "n3dm1.txt"),
                        "--dump-ilp")
    assert code == 0
    assert out == ("0 <= x1_2_1 <= 1\n"
                   "0 <= x2_1_1 <= 1\n"
                   "1*x1_2_1 = 1\n"
                   "1*x2_1_1 = 1\n"
                   "1*x2_1_1 = 1\n"
                   "1*x1_2_1 = 1\n"
                   "1*x1_2_1 + 1*x2_1_1 = 2\n"
                   "YES\n")


def test_nmts_dump_ilp_golden(capsys):
    code, out = capture(capsys, "nmts", str(FIXTURES / "nmts1.txt"),
                        "--dump-ilp")
    assert code == 0
    assert out == ("0 <= x1_1_1 <= 1\n"
                   "0 <= x2_2_2 <= 1\n"
                   "1*x1_1_1 = 1\n"
                   "1*x2_2_2 = 1\n"
                   "1*x1_1_1 = 1\n"
                   "1*x2_2_2 = 1\n"
                   "1*x1_1_1 = 1\n"
                   "1*x2_2_2 = 1\n"
                   "YES\n")


def test_threepartition_dump_ilp_golden(capsys):
    # Entries 4, 1, 3, 2: one variable per unordered index triple, with a
    # coefficient of 2 where a triple uses a value twice.
    code, out = capture(capsys, "threepartition", str(FIXTURES / "tp1.txt"),
                        "--dump-ilp", "--certificate")
    assert code == 0
    assert out == ("0 <= x1_2_4 <= 2\n"
                   "0 <= x2_3_3 <= 1\n"
                   "0 <= x3_4_4 <= 1\n"
                   "1*x1_2_4 = 2\n"
                   "1*x1_2_4 + 1*x2_3_3 = 3\n"
                   "2*x2_3_3 + 1*x3_4_4 = 2\n"
                   "1*x1_2_4 + 2*x3_4_4 = 2\n"
                   "YES\n"
                   "1 2 4 2\n"
                   "1 3 3 1\n")


def test_partition_dump_ilp_certificate_golden(capsys):
    code, out = capture(capsys, "partition", str(FIXTURES / "part1.txt"),
                        "--certificate", "--dump-ilp")
    assert code == 0
    assert out == ("0 <= x1 <= 2\n"
                   "0 <= x2 <= 2\n"
                   "0 <= x3 <= 1\n"
                   "2*x1 + 3*x2 + 4*x3 = 7\n"
                   "YES\n"
                   "2 2\n"
                   "3 1\n")


def test_nmts_cover_golden(capsys):
    code, out = capture(capsys, "nmts", str(FIXTURES / "nmts1.txt"),
                        "--certificate")
    assert code == 0
    assert out == "YES\n1 3 4 1\n2 4 6 1\n"


def test_reduce_partition_golden(capsys):
    code, out = capture(capsys, "reduce-partition", str(FIXTURES / "ss1.txt"))
    assert code == 0
    assert out == "3 2\n5 1\n11 1\n"


def test_reduce_heat_golden(capsys):
    code, out = capture(capsys, "reduce-heat", str(FIXTURES / "heat1.txt"))
    assert code == 0
    assert out == ("states: 0 1\n"
                   "start: 0\n"
                   "input: t\n"
                   "output: 0 1 2\n"
                   "0 t -> 0 0\n"
                   "0 t -> 1 1\n"
                   "0 t -> 1 2\n"
                   "1 t -> 1 0\n"
                   "1 t -> 1 1\n"
                   "census:\n"
                   "0 6\n"
                   "2 1\n")


def test_threepartition_cardinality_error_golden(capsys):
    code = main(["threepartition", str(FIXTURES / "part1.txt"), "--dump-ilp"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: cardinality 5 is not a multiple of 3\n"
