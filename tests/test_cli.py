"""CLI surface: outputs, formats, exit codes, determinism."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hgpbarrier
from hgpbarrier import barrier, cli, f2core, hgp, logicals
from hgpbarrier.cli import _build_parser, main
from hgpbarrier.codes import (
    emit_alist,
    emit_dense,
    open_repetition,
    parse_dense,
    ring_repetition,
)
from hgpbarrier.hgp import build_hgp, css_check


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("matrices")
    (d / "ring3.alist").write_text(emit_alist(ring_repetition(3)))
    (d / "ring5.alist").write_text(emit_alist(ring_repetition(5)))
    (d / "open3.txt").write_text(emit_dense(open_repetition(3)))
    (d / "id2.txt").write_text("2 2\n10\n01\n")
    (d / "bad.txt").write_text("garbage\n")
    (d / "ones12.txt").write_text("1 12\n" + "1" * 12 + "\n")
    return d


INFO_TEXT_DIGEST = "5108ed520954c741e621044dc2afadb8e9131866ccc5a5f3ea57d0f3a3e199f1"
HGP_TEXT_DIGEST = "cb76f06b88995559370f91be4553d2ff2c9ee05b5349b22611644c14b228c819"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


# -- info -----------------------------------------------------------------------

def test_info_json(files, capsys):
    code, out, err = run(capsys, "info", files / "ring5.alist")
    assert code == 0 and err == ""
    assert json.loads(out) == {"n": 5, "r": 5, "k": 1, "d": 5, "w_c": 2, "w_q": 2}


def test_info_text(files, capsys):
    code, out, _ = run(capsys, "info", files / "ring5.alist", "--format", "text")
    assert code == 0
    assert "n: 5" in out and "d: 5" in out


def test_info_text_is_pinned(files, capsys):
    code, out, _ = run(capsys, "info", files / "ring5.alist", "--format", "text")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == INFO_TEXT_DIGEST


def test_info_trivial_code_null_distance(files, capsys):
    code, out, _ = run(capsys, "info", files / "id2.txt")
    assert code == 0
    assert json.loads(out)["d"] is None


@pytest.mark.parametrize(
    "content",
    [
        "² 3\n110\n011\n".encode(),  # superscript digits pass str.isdigit
        emit_alist(open_repetition(3)).replace("1 2 1", "1 ² 1", 1).encode(),
        b"2 3\n1\xff0\n011\n",  # not decodable text
    ],
    ids=["dense-header", "alist-degree", "undecodable"],
)
def test_bad_input_bytes_exit_2(tmp_path, capsys, content):
    path = tmp_path / "bad.txt"
    path.write_bytes(content)
    code, out, err = run(capsys, "info", path)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "parse"


def test_overlong_count_gives_a_short_error(tmp_path, capsys):
    # a count too long to convert is no header; the token itself is echoed
    # as a short prefix by the parsers (tests/test_codes.py)
    path = tmp_path / "big.alist"
    path.write_text("9" * 5000 + " 1\n1 1\n1\n1\n1\n1\n")
    code, out, err = run(capsys, "info", path)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "parse"
    assert len(err.encode()) < 300


BIG = "9" * 640  # the longest count a parser converts


@pytest.mark.parametrize(
    "text",
    [
        f"{BIG} {BIG}\n1 1\n1\n1\n",  # line count fits neither format
        f"1 {BIG}\n101\n",  # a dense file by its line count: entries per row
    ],
    ids=("sniffed-line-count", "dense-entries"),
)
def test_huge_declared_sizes_give_a_short_error(tmp_path, capsys, text):
    # a declared size is echoed as a short prefix, not whole; the parsers'
    # other size messages are reached by parsing directly (tests/test_codes.py)
    path = tmp_path / "big.txt"
    path.write_text(text)
    code, out, err = run(capsys, "info", path)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "parse"
    assert " characters)" in err
    assert len(err.encode()) < 300


@pytest.mark.parametrize(
    "flag",
    [("--fmt", "alist"), ("--fmt", "dense"), ("--fmt=dense",)],
    ids=["alist", "dense", "equals-dense"],
)
def test_fmt_is_a_usage_error(files, capsys, flag):
    # the file's line count decides its format, so there is no option to
    # override it
    with pytest.raises(SystemExit) as ei:
        main(["info", str(files / "open3.txt"), *flag])
    assert ei.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and json.loads(captured.err)["error"] == "usage"


# -- barrier --------------------------------------------------------------------

def test_barrier_classical(files, capsys):
    code, out, _ = run(capsys, "barrier", "classical", files / "ring5.alist")
    assert code == 0
    rep = json.loads(out)
    assert rep["kind"] == "classical"
    assert rep["value"] == 2
    assert rep["witness"]["max_energy"] == 2
    assert rep["witness"]["endpoint_support"] == [0, 1, 2, 3, 4]
    energies = [s["energy"] for s in rep["witness"]["path"]]
    assert max(energies) == 2 and energies[0] == 0


def test_barrier_quantum_surface(files, capsys):
    code, out, _ = run(capsys, "barrier", "quantum", files / "open3.txt", files / "open3.txt")
    assert code == 0
    rep = json.loads(out)
    assert rep["value"] == 1
    assert rep["sector"] == "both"
    assert len(rep["witness"]["endpoint_support"]) == 3


def test_barrier_quantum_toric_z(files, capsys):
    code, out, _ = run(
        capsys, "barrier", "quantum", files / "ring3.alist", files / "ring3.alist",
        "--sector", "z",
    )
    assert code == 0
    assert json.loads(out)["value"] == 2


def test_barrier_canonical_mixed(files, capsys):
    code, out, _ = run(
        capsys, "barrier", "canonical", files / "ring3.alist", files / "open3.txt"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep == {"kind": "canonical", "sector": "both", "value": 1, "z": 2, "x": 1}


@pytest.mark.parametrize("sector", ["z", "x"])
def test_barrier_classical_rejects_a_sector(files, capsys, sector):
    code, out, err = run(
        capsys, "barrier", "classical", files / "ring3.alist", "--sector", sector
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "usage"


def test_barrier_wrong_path_count(files, capsys):
    code, _, err = run(
        capsys, "barrier", "classical", files / "ring3.alist", files / "open3.txt"
    )
    assert code == 2
    assert json.loads(err)["error"] == "usage"


def test_barrier_quantum_needs_two_files(files, capsys):
    code, out, err = run(capsys, "barrier", "quantum", files / "ring3.alist")
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "usage",
        "detail": "barrier quantum takes exactly two matrix files",
    }


def test_barrier_cap_exceeded(files, capsys):
    code, _, err = run(
        capsys, "barrier", "quantum", files / "ring5.alist", files / "ring5.alist",
        "--max-dim", "20",
    )
    assert code == 3
    assert json.loads(err)["error"] == "cap-exceeded"


@pytest.mark.parametrize(
    "argv, detail",
    [
        (("classical", "ring5.alist", "--max-dim", "4"), "2^5 quotient states exceed cap 16"),
        (
            ("quantum", "ring5.alist", "ring5.alist", "--max-dim", "20"),
            "2^26 quotient states exceed cap 1048576",
        ),
    ],
    ids=["classical", "quantum"],
)
def test_capped_search_reports_quotient_states(files, capsys, argv, detail):
    # a search checks its cap on the quotient it runs on, as every table does
    kind, *rest = argv
    rest = [files / a if a.endswith(".alist") else a for a in rest]
    code, out, err = run(capsys, "barrier", kind, *rest)
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": "cap-exceeded", "detail": detail}


@pytest.mark.parametrize(
    "kind, cols, detail",
    [
        ("classical", 20_000, "2^20000 quotient states exceed cap 16777216"),
        ("canonical", 100, "2^9901 quotient states exceed cap 16777216"),
    ],
)
def test_wide_input_exits_3_before_its_quotient_is_built(tmp_path, capsys, monkeypatch, kind, cols, detail):
    # one check over every column: a quotient of 2^cols (or, for the product,
    # 2^9901) states, refused before its per-byte tables are built
    def no_quotient(self):
        raise AssertionError("quotient built before its cap was checked")

    monkeypatch.setattr(f2core.Quotient, "_words", property(no_quotient))
    wide = tmp_path / "wide.txt"
    wide.write_text(f"1 {cols}\n{'1' * cols}\n")
    paths = [wide] * (1 if kind == "classical" else 2)
    code, out, err = run(capsys, "barrier", kind, *paths)
    assert (code, out) == (3, "")
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "cap-exceeded", "detail": detail}


@pytest.mark.parametrize(
    "argv",
    [("barrier", "quantum"), ("barrier", "canonical", "--sector", "z"), ("verify", "lemma1")],
    ids=["quantum", "canonical-z", "lemma1"],
)
def test_wide_product_exits_3_before_hx_or_hz_is_built(tmp_path, capsys, argv):
    # two one-check files of 1000 columns: a 1 000 001-qubit product whose
    # caps are read off the parents' ranks, so the request is refused
    # without the kron over 10^6 columns that HX and HZ would take
    wide = tmp_path / "wide.txt"
    wide.write_text("1 1000\n" + "1" * 1000 + "\n")
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, wide, wide)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": "cap-exceeded", "detail": "2^999001 quotient states exceed cap 16777216"}
    product = cli._load_product((wide, wide))
    assert not {"hx", "hz"} & set(vars(product))


def _refused_in_time(capsys, *argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "") and err.count("\n") == 1
    return json.loads(err)


def test_wide_logicals_exit_3_before_any_operator_is_composed(tmp_path, capsys, monkeypatch):
    # two one-check files of 1000 columns: 999^2 Z and as many X operators
    # on 1 000 001 qubits, refused off the parents' ranks before one is
    # composed or HX or HZ is built
    def no_basis(code):
        raise AssertionError("an operator was composed before the cap was checked")

    monkeypatch.setattr(cli, "canonical_z_basis", no_basis)
    monkeypatch.setattr(cli, "canonical_x_basis", no_basis)
    wide = tmp_path / "wide.txt"
    wide.write_text("1 1000\n" + "1" * 1000 + "\n")
    detail = "998001 operators on 1000001 qubits exceed cap 16777216"
    assert _refused_in_time(capsys, "logicals", wide, wide) == {"error": "cap-exceeded", "detail": detail}
    product = cli._load_product((wide, wide))
    assert not {"hx", "hz"} & set(vars(product))


def test_wide_hgp_exits_3_before_anything_is_built_or_written(tmp_path, capsys, monkeypatch):
    # two 1000-bit rings: HX and HZ would be 2 * 10^6 rows of 2 * 10^6
    # entries; refused before the parameters, weights or CSS check are
    # computed, and no file is written
    def not_yet(*args):
        raise AssertionError("the product was read before the cap was checked")

    monkeypatch.setattr(cli, "hgp_parameters", not_yet)
    monkeypatch.setattr(cli, "css_check", not_yet)
    ring = tmp_path / "ring.alist"
    ring.write_text(emit_alist(ring_repetition(1000)))
    detail = "4000000000000 entries of HX and HZ exceed cap 16777216"
    err = _refused_in_time(capsys, "hgp", ring, ring, "--out", tmp_path / "prod")
    assert err == {"error": "cap-exceeded", "detail": detail}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ring.alist"]
    product = cli._load_product((ring, ring))
    assert not {"hx", "hz", "w_c", "w_q"} & set(vars(product))


@pytest.mark.parametrize(
    "argv, fits, detail",
    [
        (("logicals",), 4, "1 operators on 13 qubits exceed cap 8"),
        (("hgp", "--out", "prod"), 8, "156 entries of HX and HZ exceed cap 128"),
    ],
    ids=["logicals", "hgp"],
)
def test_output_caps_count_what_is_printed_or_written(files, tmp_path, capsys, monkeypatch, argv, fits, detail):
    # open3 x open3 has k = 1 operator on 13 qubits, and HX and HZ hold
    # 6 + 6 rows of 13 entries: refused one cap below, served at the cap
    monkeypatch.chdir(tmp_path)
    pair = (files / "open3.txt", files / "open3.txt")
    err = _refused_in_time(capsys, argv[0], *pair, *argv[1:], "--max-dim", fits - 1)
    assert err == {"error": "cap-exceeded", "detail": detail}
    code, out, err = run(capsys, argv[0], *pair, *argv[1:], "--max-dim", fits)
    assert (code, err) == (0, "") and out


def test_memory_error_exits_3_with_one_json_line(files, capsys, monkeypatch):
    # a search the host cannot hold is a resource bound, not a failed claim
    # (exit 1); the engine is patched to raise, so nothing is allocated
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(barrier, "_nearest", out_of_memory)
    code, out, err = run(capsys, "barrier", "classical", files / "ring5.alist")
    assert (code, out) == (3, "")
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "memory", "detail": "out of memory"}


def test_barrier_no_logicals(files, capsys):
    code, _, err = run(
        capsys, "barrier", "quantum", files / "id2.txt", files / "ring3.alist"
    )
    assert code == 2
    assert json.loads(err)["error"] == "nologicals"


# -- hgp ------------------------------------------------------------------------

def test_hgp_writes_roundtrippable_matrices(files, capsys, tmp_path):
    prefix = tmp_path / "surf"
    code, out, _ = run(
        capsys, "hgp", files / "open3.txt", files / "open3.txt", "--out", prefix
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["params"] == {"n": 13, "k": 1, "d": 3, "w_c": 4, "w_q": 4, "css": True}
    hx = parse_dense((tmp_path / "surf_hx.txt").read_text())
    hz = parse_dense((tmp_path / "surf_hz.txt").read_text())
    rebuilt = build_hgp(open_repetition(3), open_repetition(3))
    assert hx.h.row_bits == rebuilt.hx.row_bits
    assert hz.h.row_bits == rebuilt.hz.row_bits
    assert css_check(rebuilt)
    on_disk = json.loads((tmp_path / "surf_params.json").read_text())
    assert on_disk == rep["params"]


def test_hgp_trivial_product(files, capsys, tmp_path):
    code, out, _ = run(
        capsys, "hgp", files / "id2.txt", files / "id2.txt",
        "--out", tmp_path / "triv",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["params"]["k"] == 0 and rep["params"]["d"] is None


def test_hgp_text_is_pinned(files, capsys, tmp_path, monkeypatch):
    # the text form of a report with a nested dict; a relative prefix keeps
    # the printed file names fixed
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(
        capsys, "hgp", files / "ring3.alist", files / "open3.txt", "--out", "prod",
        "--format", "text",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == HGP_TEXT_DIGEST


# -- logicals -------------------------------------------------------------------

def test_logicals_surface(files, capsys):
    code, out, _ = run(capsys, "logicals", files / "open3.txt", files / "open3.txt")
    assert code == 0
    rep = json.loads(out)
    assert rep["count"] == 2
    assert [r["type"] for r in rep["operators"]] == ["Z", "X"]
    for r in rep["operators"]:
        assert r["weight"] == 3
        assert r["lambda"] == ["1"]
        assert r["kappa"] == []
        assert len(r["support"]) == 3


def test_logicals_sector_filter(files, capsys):
    code, out, _ = run(
        capsys, "logicals", files / "open3.txt", files / "open3.txt", "--sector", "z"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["count"] == 1 and rep["operators"][0]["type"] == "Z"


LOGICALS_RING3_OPEN3_TEXT = """\
count: 2
operators:
  -
    type: Z
    lambda:
      - 1
    kappa:
      - 
    support:
      - 2
      - 5
      - 8
    weight: 3
  -
    type: X
    lambda:
      - 1
    kappa:
      - 
    support:
      - 6
      - 7
      - 8
    weight: 3
"""


def test_canonical_and_logicals_text_are_pinned(files, capsys):
    pair = (files / "ring3.alist", files / "open3.txt")
    flags = ("--sector", "both", "--format", "text")
    code, out, _ = run(capsys, "barrier", "canonical", *pair, *flags)
    assert code == 0
    assert out == "kind: canonical\nsector: both\nz: 2\nx: 1\nvalue: 1\n"
    code, out, _ = run(capsys, "logicals", *pair, *flags)
    assert code == 0
    assert out == LOGICALS_RING3_OPEN3_TEXT


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("json", "b2e428287f23a93aa9d57e2dc58af363f8590b385eadddcac9d22f64b3a75391"),
        ("text", "f656272eaa4808275de6fdd7b259d77f3983d4dc80818f6bb07f112a4e5f20ac"),
    ],
)
def test_logicals_of_all_ones_checks_are_pinned(files, capsys, fmt, digest):
    # 242 elementary operators: every coefficient row but one selects nothing
    pair = (files / "ones12.txt", files / "ones12.txt")
    code, out, _ = run(capsys, "logicals", *pair, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# -- verify ---------------------------------------------------------------------

def test_verify_main_with_files(files, capsys):
    code, out, _ = run(capsys, "verify", "main", files / "ring3.alist", files / "ring3.alist")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    rep = json.loads(lines[0])
    assert rep["claim"] == "main" and rep["status"] == "pass"
    assert rep["details"]["quantum"] == 2
    assert json.loads(lines[1]) == {"summary": {"claims": 1, "fails": 0, "passes": 1}}


def test_verify_builtin_claim(files, capsys):
    code, out, _ = run(capsys, "verify", "lemma3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert json.loads(lines[-1])["summary"]["fails"] == 0


def test_verify_lemma1_with_files(files, capsys):
    code, out, _ = run(capsys, "verify", "lemma1", files / "open3.txt", files / "open3.txt")
    assert code == 0
    rep = json.loads(out.strip().splitlines()[0])
    assert rep["checked"] == 4096 and rep["status"] == "pass"


def test_verify_text_format(files, capsys):
    code, out, _ = run(capsys, "verify", "lemma2", "--format", "text")
    assert code == 0
    assert "lemma2 surface_3: pass" in out
    assert out.strip().splitlines()[-1].startswith("claims 4 passes 4")


def test_verify_deterministic_bytes(files, capsys):
    _, out1, _ = run(capsys, "verify", "thm1", "--seed", "5")
    _, out2, _ = run(capsys, "verify", "thm1", "--seed", "5")
    assert out1 == out2
    assert json.loads(out1.strip().splitlines()[0])["seed"] == 5


def test_verify_all_stdout_is_pinned(capsys):
    # two runs agreeing with each other (criterion 11) cannot see a change
    # that alters both; this digest of the seed-0 JSON stream can
    code, out, _ = run(capsys, "verify", "all", "--seed", "0")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "b0c7e63067605832d79a56a2fd1f0a392427302b2a182234046c6f8a853e6521"


@pytest.mark.parametrize(
    "seed, fmt, digest",
    [
        ("1", "json", "782a207a6916af4f391f48f54b0d409ab29cb376ef926fddab4b7149d73d46fe"),
        ("0", "text", "c906ebad7fd7ce7e9c2fcb5a287abdba1e5612c7fc03278d2a9bfe1d2a3cbe94"),
    ],
)
def test_verify_all_stdout_is_pinned_for_more_seeds_and_formats(capsys, seed, fmt, digest):
    code, out, _ = run(capsys, "verify", "all", "--seed", seed, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "kind, fmt, digest",
    [
        ("classical", "json", "c9c3760416fbcb0e455484cf7aed0336c99e2837c1c28616955efddc23275e6e"),
        ("classical", "text", "cd71582360fe5ce78d50d33cb13a1d3fa9cb8fcc5c28e4eea75689e40f88164d"),
        ("quantum", "json", "84c7fbbf3ff81cbd34affa51fd4b3413f4a015a80f18554a593b82567cc3092e"),
        ("quantum", "text", "edcf340d523f3ee8baebcd328050df4aed5bec10e643b31aab30e652f6810198"),
    ],
)
def test_barrier_stdout_is_pinned(files, capsys, kind, fmt, digest):
    # pins the value, explored count, witness steps and key order of both
    # search reports, which verify all does not print
    paths = [files / "ring3.alist"] + ([files / "open3.txt"] if kind == "quantum" else [])
    code, out, _ = run(capsys, "barrier", kind, *paths, "--sector", "both", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "claim, seed, fmt, digest",
    [
        ("thm1", "0", "json", "a5a6b0140231a538e8bda2fc004ef3d064f6bffa9d761ce3cb0f636190618dd0"),
        ("thm1", "0", "text", "94fc9f6ffb93f169c2e3d06fe86e193fe70a7ba30757eae813abb347cbb0d28b"),
        ("thm1", "3", "json", "3c334e6535f5f6a1140aa408c838f231c3a0f5cdeb924be7cda6c16809c3bec9"),
        ("thm1", "3", "text", "94fc9f6ffb93f169c2e3d06fe86e193fe70a7ba30757eae813abb347cbb0d28b"),
        ("lemma1", "0", "json", "d2179e99a456d2852a28364b7a9a4b8f5a96c99b946ce00181c606a9cf43c975"),
        ("lemma1", "0", "text", "c4e8ec8d459009d25d4203a18fbcfec406ad7dd8fa247cba4310e3c11755007d"),
        ("lemma1", "3", "json", "d2179e99a456d2852a28364b7a9a4b8f5a96c99b946ce00181c606a9cf43c975"),
        ("lemma1", "3", "text", "c4e8ec8d459009d25d4203a18fbcfec406ad7dd8fa247cba4310e3c11755007d"),
    ],
)
def test_verify_on_a_file_pair_is_pinned(files, capsys, monkeypatch, claim, seed, fmt, digest):
    # verify all runs only the registry; these pin a claim on a file pair,
    # named by relative paths so the printed instance is fixed
    monkeypatch.chdir(files)
    code, out, _ = run(
        capsys, "verify", claim, "ring3.alist", "open3.txt", "--seed", seed, "--format", fmt
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_lemma4_on_a_file_pair(files, capsys, monkeypatch):
    # lemma4 on the one pair (H1, H2) = (open3, open3): every Z1 (3 x 3),
    # Z2 (2 x 2) and nonzero codeword of H2 (k2 = 1)
    monkeypatch.chdir(files)
    code, out, _ = run(capsys, "verify", "lemma4", "open3.txt", "open3.txt")
    assert code == 0
    report, summary = map(json.loads, out.splitlines())
    assert report["instance"] == "open3.txt x open3.txt"
    assert (report["status"], report["checked"]) == ("pass", 2 ** (3 * 3 + 2 * 2) * (2**1 - 1))
    assert summary == {"summary": {"claims": 1, "passes": 1, "fails": 0}}


def test_verify_all_rejects_paths(files, capsys):
    code, _, err = run(capsys, "verify", "all", files / "open3.txt", files / "open3.txt")
    assert code == 2
    assert json.loads(err) == {"error": "usage", "detail": "verify all runs on built-in instances only"}


def test_verify_wrong_path_count(files, capsys):
    code, _, err = run(capsys, "verify", "lemma1", files / "open3.txt")
    assert code == 2
    assert json.loads(err)["error"] == "usage"


# -- argument plumbing ----------------------------------------------------------

def test_unknown_claim_exits_2(files, capsys):
    with pytest.raises(SystemExit) as ei:
        main(["verify", "lemma99"])
    assert ei.value.code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "usage"


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as ei:
        main([])
    assert ei.value.code == 2


def test_missing_file(files, capsys):
    code, _, err = run(capsys, "info", "no-such-file.txt")
    assert code == 2
    assert json.loads(err)["error"] == "io"


def test_nonpositive_max_dim(files, capsys):
    code, _, err = run(capsys, "info", files / "ring3.alist", "--max-dim", "0")
    assert code == 2
    assert json.loads(err)["error"] == "usage"


def test_max_dim_above_64_exits_3_before_any_shift(files, capsys):
    # 65 first: were the bound missing, that case fails and stops the loop
    # before 1 << 10**12 could be attempted
    for dim in (65, 10**12):
        code, out, err = run(capsys, "info", files / "ring3.alist", "--max-dim", dim)
        assert (code, out) == (3, "")
        assert json.loads(err)["error"] == "cap-exceeded"
    code, _, _ = run(capsys, "info", files / "ring3.alist", "--max-dim", 64)
    assert code == 0


def test_optimized_interpreter_without_docstrings(files):
    # verify all runs the claim checkers: an assert stripped from one shows only there
    env = dict(os.environ, PYTHONPATH=str(Path(hgpbarrier.__file__).parents[1]))
    for command in (["info", str(files / "ring5.alist")], ["verify", "all", "--seed", "0"]):
        argv = ["-m", "hgpbarrier.cli", *command]
        plain = subprocess.run([sys.executable, *argv], capture_output=True, env=env)
        stripped = subprocess.run([sys.executable, "-OO", *argv], capture_output=True, env=env)
        assert plain.returncode == 0 and stripped.returncode == 0
        assert stripped.stdout == plain.stdout != b""
        assert stripped.stderr == b""


# -- one parser per process -------------------------------------------------------

def test_repeated_calls_do_not_carry_options_over(files, capsys):
    plain = [
        ["info", files / "open3.txt"],
        ["barrier", "quantum", files / "open3.txt", files / "open3.txt"],
        ["logicals", files / "ring3.alist", files / "open3.txt"],
        ["verify", "lemma3", files / "ring3.alist", files / "open3.txt"],
    ]
    flagged = [
        ["info", files / "open3.txt", "--format", "text"],
        ["barrier", "quantum", files / "open3.txt", files / "open3.txt", "--sector", "x",
         "--max-dim", "8"],
        ["logicals", files / "ring3.alist", files / "open3.txt", "--sector", "x"],
        ["verify", "lemma3", files / "ring3.alist", files / "open3.txt", "--seed", "4",
         "--format", "text"],
    ]
    _build_parser.cache_clear()
    first = [run(capsys, *argv) for argv in plain]
    assert all(code == 0 for code, _, _ in first)
    for argv in flagged:
        assert run(capsys, *argv)[0] == 0
    with pytest.raises(SystemExit) as ei:
        main(["barrier", "quantum", str(files / "open3.txt"), "--sector", "w"])
    assert ei.value.code == 2
    capsys.readouterr()
    assert [run(capsys, *argv) for argv in plain] == first


def test_second_call_builds_no_parser(files, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    _build_parser.cache_clear()
    run(capsys, "info", files / "ring3.alist")
    assert built
    built.clear()
    assert run(capsys, "info", files / "ring5.alist")[0] == 0
    assert built == []


def test_a_request_is_parsed_in_one_pass(files, capsys, monkeypatch):
    passes = []
    parse = argparse.ArgumentParser.parse_known_args

    def counting_parse(self, *args, **kwargs):
        passes.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting_parse)
    argv = ["barrier", "canonical", files / "ring3.alist", files / "open3.txt", "--sector", "z"]
    assert run(capsys, *argv)[0] == 0
    assert passes == ["hgpbarrier barrier"]


_COMMANDS = ("info", "hgp", "barrier", "logicals", "verify")
_ARGV_TOKENS = (
    "a.txt", "b.txt", "classical", "quantum", "canonical", "lemma1", "lemma99", "all",
    "--format", "--format=text", "--form", "--fo=json", "--format=xml", "json", "text",
    "--fmt", "--fmt=dense", "--fm", "alist", "--max-dim", "--max-dim=8", "--m=0", "--max-dim=99",
    "--seed", "--se=3", "--s", "--sector", "--sec=x", "z", "both", "w", "--out", "--out=o",
    "-5", "0x10", "8", "--", "-h", "--help", "--he", "-x", "--bogus", "-", "",
)
_POSITIONALS = {
    "info": ["a.txt"],
    "hgp": ["a.txt", "b.txt", "--out", "o"],
    "barrier": ["quantum", "a.txt", "b.txt"],
    "logicals": ["a.txt", "b.txt"],
    "verify": ["lemma1"],
}
_OPTIONS = (
    ["--format", "text"], ["--format=json"], ["--form", "text"], ["--fmt", "dense"],
    ["--fm=alist"], ["--max-dim", "8"], ["--max-dim=0"], ["--m", "99"], ["--seed", "-5"],
    ["--se=3"], ["--seed", "0x10"], ["--sector", "x"], ["--sec=z"],
)
_options = st.lists(st.sampled_from(_OPTIONS), max_size=3).map(lambda groups: sum(groups, []))
cli_argv = st.one_of(
    st.just([]),
    st.lists(st.sampled_from(_ARGV_TOKENS), max_size=8),
    st.tuples(
        st.sampled_from(_COMMANDS), st.lists(st.sampled_from(_ARGV_TOKENS), max_size=8)
    ).map(lambda t: [t[0], *t[1]]),
    st.tuples(st.sampled_from(_COMMANDS), _options, _options).map(
        lambda t: [t[0], *t[1], *_POSITIONALS[t[0]], *t[2]]
    ),
)


def _outcome(call, argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            result = call(argv)
    except SystemExit as e:
        return "exit", e.code, out.getvalue(), err.getvalue()
    return "ok", result, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(cli_argv)
@example(["info", "a.txt", "--format", "text", "--format=json"])
@example(["barrier", "--s", "x", "classical", "a.txt"])  # ambiguous abbreviation
@example(["barrier", "quantum", "a.txt", "--sector", "x", "b.txt"])  # intermixed positionals
@example(["verify", "--", "-5", "0x10"])
@example(["hgp", "a.txt", "b.txt"])  # --out is required
def test_main_parses_as_the_top_level_parser_does(argv):
    # main's namespace, or its exit code, stdout and stderr, are those of
    # _build_parser().parse_args; the commands' functions are replaced by a
    # recorder, so nothing runs
    parser = _build_parser()
    funcs = {name: p.get_default("func") for name, p in parser.commands.items()}
    seen = []

    def record(args):
        seen.append(dict(vars(args)))
        return 0

    for p in parser.commands.values():
        p.set_defaults(func=record)
    try:
        want = _outcome(parser.parse_args, argv)
        got = _outcome(main, argv)
    finally:
        for name, p in parser.commands.items():
            p.set_defaults(func=funcs[name])
    if want[0] == "exit":
        assert got == want and seen == []
        return
    parsed = vars(want[1])
    if 1 <= parsed["max_dim"] <= 64:
        assert got == ("ok", 0, "", "")
        assert seen == [dict(parsed, cap=1 << parsed["max_dim"])]
    else:
        assert got[:2] == ("ok", 2 if parsed["max_dim"] < 1 else 3) and seen == []


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="argparse help layout differs by Python version"
)
@pytest.mark.parametrize(
    "command, digest",
    [
        ((), "260e5c6d416c18492a65c317353623d88e2d64c9d4a35a28ea5b87de35a13544"),
        (("info",), "012238ac178f14cb990bd3aa3a6f2f2959c433261f30b09dcfc9cef40af5e737"),
        (("hgp",), "d1b885cd7446f57b9014fc368271581ac794c2513b571a81dd8b3cc03e9be88d"),
        (("barrier",), "527be475836dcf6570b4f3e53eb68af654224b99ed90544289937fb7140c24d6"),
        (("logicals",), "cd106658db1ef1b09fc944b4594010fe65d313089186943d60f4df26b9a5eb1c"),
        (("verify",), "456bea99586f8df873c2c54df8908f76898abfa9a2845fb7a3b5dd0a54600aef"),
    ],
    ids=["top", *_COMMANDS],
)
def test_help_is_pinned(capsys, monkeypatch, command, digest):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as ei:
        main([*command, "-h"])
    assert ei.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# -- one parse, product and basis per distinct input --------------------------------

def _counting(calls, name, fn):
    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return counted


@pytest.mark.parametrize("command", [("barrier", "canonical"), ("logicals",)], ids=["canonical", "logicals"])
def test_repeated_request_reuses_parse_product_and_basis(files, capsys, monkeypatch, command):
    argv = [*command, files / "ring3.alist", files / "open3.txt"]
    first = run(capsys, *argv)
    assert first[0] == 0
    calls = []
    monkeypatch.setattr(cli, "parse_auto", _counting(calls, "parse_auto", cli.parse_auto))
    monkeypatch.setattr(logicals, "_compose", _counting(calls, "_compose", logicals._compose))
    misses = hgp.build_hgp.cache_info().misses
    assert run(capsys, *argv) == first
    assert calls == []
    assert hgp.build_hgp.cache_info().misses == misses


def test_rewritten_file_gives_the_new_answer(tmp_path, capsys):
    # the file is read on every call, so the cache key is what it holds now
    path, ring5 = tmp_path / "code.txt", tmp_path / "ring5.txt"
    path.write_text(emit_dense(ring_repetition(3)))
    ring5.write_text(emit_dense(ring_repetition(5)))
    assert json.loads(run(capsys, "info", path)[1])["n"] == 3
    before = run(capsys, "logicals", path, path)
    path.write_text(emit_dense(ring_repetition(5)))
    assert json.loads(run(capsys, "info", path)[1])["n"] == 5
    after = run(capsys, "logicals", path, path)
    assert after == run(capsys, "logicals", ring5, ring5) != before


@pytest.mark.parametrize(
    "command, text",
    [("info", "2 3\n110\n01x\n"), ("logicals", "2 3\n110\n01x\n"), ("logicals", "2 2\n10\n01\n")],
    ids=["info-malformed", "logicals-malformed", "logicals-no-logicals"],
)
def test_errors_are_not_cached(tmp_path, capsys, command, text):
    path = tmp_path / "m.txt"
    path.write_text(text)
    argv = [command, path] + ([path] if command == "logicals" else [])
    first = run(capsys, *argv)
    assert first[0] == 2 and first[1] == "" and json.loads(first[2])["error"]
    assert run(capsys, *argv) == first
    path.write_text(emit_dense(ring_repetition(3)))
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == "" and out


def _main_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


_VALID_FILES = [
    emit_dense(open_repetition(3)).encode(),
    emit_alist(ring_repetition(3)).encode(),
    b"2 2\n10\n01\n",
]
_NASTY_BYTES = [b"\x00", b"\r", b"\r\n", b"\n", b"\xff", b"\xc3", b"\xe2\x80\xa8", b" ", b"0", b"1"]


def _spliced(base: bytes, at: int, chunk: bytes) -> bytes:
    at %= len(base) + 1
    return base[:at] + chunk + base[at:]


raw_file_bytes = st.one_of(
    st.binary(max_size=64),
    st.builds(
        _spliced,
        st.sampled_from(_VALID_FILES),
        st.integers(0, 200),
        st.one_of(st.sampled_from(_NASTY_BYTES), st.binary(min_size=1, max_size=3)),
    ),
    st.sampled_from(_VALID_FILES).map(lambda b: b.replace(b"\n", b"\r")),
)


@settings(max_examples=150, deadline=None)
@given(raw_file_bytes)
@example(b"2 3\r110\r011\r")  # CR-only line ends
@example(b"2 3\n1\x000\n011\n")  # a NUL in a row
@example(b"2 3\n1\xff0\n011\n")  # not UTF-8
@example(b"9" * 5000 + b" 1\n1\n")  # a count int() will not convert
def test_cli_on_raw_file_bytes(files, data):
    # every request on any file exits 0 or 2 with at most one JSON line on
    # stderr, and the cold call and the cached call agree
    path = files / "fuzz.bin"
    path.write_bytes(data)
    for argv in (["info", path], ["logicals", path, path]):
        cli._parse.cache_clear()
        hgp.build_hgp.cache_clear()
        logicals._basis.cache_clear()
        cold = _main_captured(argv)
        assert _main_captured(argv) == cold
        code, out, err = cold
        if code == 0:
            assert err == "" and out
        else:
            assert code == 2 and out == ""
            assert err.count("\n") == 1 and err.endswith("\n")
            assert set(json.loads(err)) == {"error", "detail"}
