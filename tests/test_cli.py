"""CLI surface: outputs, formats, exit codes, determinism."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hgpbarrier
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


def test_fmt_override_mismatch(files, capsys):
    code, _, err = run(capsys, "info", files / "open3.txt", "--fmt", "alist")
    assert code == 2
    assert json.loads(err)["error"] == "parse"


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


def test_verify_lemma4_rejects_paths(files, capsys):
    code, _, err = run(
        capsys, "verify", "lemma4", files / "open3.txt", files / "open3.txt"
    )
    assert code == 2
    assert json.loads(err)["error"] == "usage"


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
    env = dict(os.environ, PYTHONPATH=str(Path(hgpbarrier.__file__).parents[1]))
    argv = ["-m", "hgpbarrier.cli", "info", str(files / "ring5.alist")]
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
        ["info", files / "open3.txt", "--format", "text", "--fmt", "dense"],
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
