"""Checker behavior: honest passes, forced failures, determinism."""

import json

import pytest

from hgpbarrier.codes import ClassicalCode, open_repetition, ring_repetition
from hgpbarrier.errors import CapExceeded, NoLogicals
from hgpbarrier.f2core import BitMatrix
from hgpbarrier.hgp import build_hgp
from hgpbarrier import verify as V


@pytest.fixture(scope="module")
def instances():
    return V.quantum_instances()


def test_registry_names(instances):
    assert set(instances) == {
        "toric_3", "surface_3", "tiny_2", "ring_2", "rect_2_3", "rect_3_2",
    }
    classical = V.classical_instances()
    assert {"ring_3", "ring_6", "chain_3", "chain_6", "hamming_7_4", "ldpc_8_6"} <= set(classical)


def test_classical_registry_deterministic():
    a = V.classical_instances(seed=7)["ldpc_8_6"]
    b = V.classical_instances(seed=7)["ldpc_8_6"]
    assert a.h.row_bits == b.h.row_bits


# -- lemma1 ---------------------------------------------------------------------

def test_lemma1_surface_exhaustive_pairs(instances):
    r = V.check_lemma1(instances["surface_3"], instance="surface_3")
    assert r.passed
    assert r.checked == 4096
    assert r.details["mode"] == "paired"
    assert r.details["bound"] == 16
    assert r.details["worst_barrier"] == 1
    assert r.counterexample is None
    assert len(r.details["constructive_baseline_peaks"]) == 8


def test_lemma1_toric_factored_still_exhaustive(instances):
    r = V.check_lemma1(instances["toric_3"], instance="toric_3")
    assert r.passed
    # one pass over each sector rowspace: 2^8 + 2^8
    assert r.checked == 512
    assert r.details["mode"] == "factored"
    assert r.details["worst_barrier"] == 2


def test_lemma1_forced_failure_has_recheckable_counterexample(instances):
    code = build_hgp(open_repetition(3), open_repetition(3))
    # cached_property stores in the instance dict, so a planted value
    # simulates a wrong sparsity bound without touching the matrices
    object.__setattr__(code, "w_c", 0)
    object.__setattr__(code, "w_q", 0)
    r = V.check_lemma1(code, instance="tampered")
    assert not r.passed
    ce = r.counterexample
    assert ce is not None and ce["bound"] == 0
    # the counterexample re-checks against the honest instance
    from hgpbarrier.barrier import sector_table
    honest = instances["surface_3"]
    tx = sector_table(honest, "x")
    tz = sector_table(honest, "z")
    assert max(tx.value(ce["x_bits"]), tz.value(ce["z_bits"])) == ce["barrier"]
    assert ce["barrier"] > ce["bound"]


@pytest.mark.parametrize(
    "name, mode, counter",
    [
        ("surface_3", "paired", {"x_bits": 0, "z_bits": 1541, "barrier": 1, "bound": 0}),
        ("toric_3", "factored", {"x_bits": 163905, "z_bits": 133125, "barrier": 2, "bound": 0}),
    ],
    ids=["paired", "factored"],
)
def test_lemma1_forced_failure_reports_the_first_worst_stabilizer(name, mode, counter):
    # paired mode reports the first worst (x, z) pair of the x-major scan of
    # all pairs, factored mode the first worst vector of each sector rowspace
    code = build_hgp(*V._PARENTS[name])
    object.__setattr__(code, "w_c", 0)
    object.__setattr__(code, "w_q", 0)
    r = V.check_lemma1(code, instance=name)
    assert r.details["mode"] == mode
    assert r.counterexample == counter


# -- thm1 checker ----------------------------------------------------------------

def test_theorem1_surface_and_toric(instances):
    for name, sweep in (("surface_3", "exhaustive"), ("toric_3", "sampled")):
        r = V.check_theorem1(instances[name], samples=100, seed=0, instance=name)
        assert r.passed
        assert r.checked == 100
        assert r.seed == 0
        assert r.details["smallest_slack"] >= 0
        assert r.details["stabilizer_sweep"] == sweep


def test_theorem1_deterministic(instances):
    a = V.check_theorem1(instances["surface_3"], samples=50, seed=3, instance="surface_3")
    b = V.check_theorem1(instances["surface_3"], samples=50, seed=3, instance="surface_3")
    assert a.to_json_dict() == b.to_json_dict()


def test_theorem1_builds_each_canonical_basis_once(instances, monkeypatch):
    calls = {"z": 0, "x": 0}

    def counted(kind, fn):
        def wrapper(code):
            calls[kind] += 1
            return fn(code)
        return wrapper

    monkeypatch.setattr(V, "canonical_z_basis", counted("z", V.canonical_z_basis))
    monkeypatch.setattr(V, "canonical_x_basis", counted("x", V.canonical_x_basis))
    for samples in (1, 40):
        calls.update(z=0, x=0)
        r = V.check_theorem1(instances["surface_3"], samples=samples, seed=2)
        assert r.checked == samples
        assert calls == {"z": 1, "x": 1}


class _PlantedTable:
    """A sector table whose vectors in ``planted`` read the planted value."""

    def __init__(self, table, planted):
        self.table, self.planted = table, planted

    def value(self, bits):
        return self.planted.get(bits, self.table.value(bits))


@pytest.mark.parametrize(
    "name, planted, sweep, counter",
    [
        # toric_3 only samples: sample 0's stabilizer product L s has x part
        # 160414, planted at 99
        (
            "toric_3",
            {160414: 99},
            "sampled",
            {"l_x": 249512, "l_z": 151140, "s_x": 113718, "s_z": 100062,
             "delta_l": 2, "delta_ls": 99, "bound": 16},
        ),
        # surface_3 also sweeps every stabilizer: sample 0's own L s reads its
        # true value, and the sweep finds L times HX's first rref row 2625,
        # whose x part 3500 is planted at 99
        (
            "surface_3",
            {3500: 99},
            "exhaustive",
            {"l_x": 2029, "l_z": 1103, "s_x": 2625, "s_z": 0,
             "delta_l": 1, "delta_ls": 99, "bound": 16},
        ),
    ],
    ids=["sampled", "sweep"],
)
def test_theorem1_counterexample_routes(monkeypatch, instances, name, planted, sweep, counter):
    real = V.sector_table

    def planted_table(code, sector, cap=V.DEFAULT_STATE_CAP):
        table = real(code, sector, cap)
        return _PlantedTable(table, planted) if sector == "x" else table

    monkeypatch.setattr(V, "sector_table", planted_table)
    r = V.check_theorem1(instances[name], samples=100, seed=0, instance=name)
    assert r.details["stabilizer_sweep"] == sweep
    assert not r.passed
    assert r.counterexample == counter


def test_theorem1_requires_logicals():
    trivial = ClassicalCode(BitMatrix.identity(2))
    with pytest.raises(NoLogicals):
        V.check_theorem1(build_hgp(trivial, ring_repetition(3)))


# -- lemma2 checker -----------------------------------------------------------------

def test_lemma2_all_instances(instances):
    for name in ("surface_3", "toric_3", "ring_2", "rect_2_3"):
        r = V.check_lemma2(instances[name], instance=name)
        assert r.passed, name
        for row in r.details["per_operator"]:
            assert row["unrestricted"] == row["restricted"] == row["witness_max"]


def test_lemma2_toric_values(instances):
    r = V.check_lemma2(instances["toric_3"], instance="toric_3")
    assert r.checked == 2
    assert all(row["restricted"] == 2 for row in r.details["per_operator"])


def test_lemma2_forced_failure(monkeypatch, instances):
    monkeypatch.setattr(V, "_unit_move_value", lambda parent, word, cap: 99)
    r = V.check_lemma2(instances["surface_3"], instance="tampered")
    assert not r.passed
    assert r.counterexample["restricted"] == 99


# -- lemma3 checker -----------------------------------------------------------------

def test_lemma3_instances(instances):
    for name, combos in (("surface_3", 1), ("toric_3", 3), ("ring_2", 3), ("rect_2_3", 1)):
        r = V.check_lemma3(instances[name], instance=name)
        assert r.passed, name
        assert r.checked == combos
        assert r.details["composite_min"] >= r.details["elementary_min"]


def test_lemma3_toric_min(instances):
    r = V.check_lemma3(instances["toric_3"], instance="toric_3")
    assert r.details["elementary_min"] == 2
    assert r.details["composite_min"] == 2


# -- lemma4 checker -----------------------------------------------------------------

def test_lemma4_small_family():
    h = ClassicalCode(BitMatrix.from_rows(["110", "011"]))
    r = V.check_lemma4(family=[(h, h)])
    assert r.passed
    # 2^9 matrices Z1, 2^4 matrices Z2, one nonzero codeword
    assert r.checked == 512 * 16
    assert r.details["pairs"] == 1


def test_lemma4_default_family_shape():
    fam = V.lemma4_default_family()
    assert len(fam) == 25
    for h1, h2 in fam:
        assert (h1.r, h1.n) == (2, 3)
        assert (h2.r, h2.n) == (2, 3)


def test_lemma4_counterexample_fields(monkeypatch):
    # force the per-pair kernel to trip so the counterexample payload is exercised
    import hgpbarrier.verify as mod

    def rigged(h1, h2, words):
        yield (0, 0, 0), [5] * len(words), [1] * 16

    monkeypatch.setattr(mod, "_lemma4_pair", rigged)
    h = ClassicalCode(BitMatrix.from_rows(["110", "011"]))
    r = mod.check_lemma4(family=[(h, h)])
    assert not r.passed
    ce = r.counterexample
    assert ce["lhs"] == 5 and ce["rhs"] == 1
    assert ce["h1"] == ["110", "011"]
    assert len(ce["z1"]) == 3 and len(ce["z2"]) == 2


def test_lemma4_kernel_matches_weight_reduction_gap():
    # every triple of a two-pair family against the per-triple public API
    from itertools import product

    from hgpbarrier.deform import weight_reduction_gap

    fam = V.lemma4_default_family()
    checked = 0
    for h1, h2 in (fam[1], fam[13]):
        code = build_hgp(h1, h2)
        words = [w for w in h2.iter_codewords() if w.bits]
        z2_all = list(product(range(1 << h2.r), repeat=h1.r))
        for z1, lhs, rhs in V._lemma4_pair(h1, h2, words):
            assert len(rhs) == len(z2_all)
            for z2, r in zip(z2_all, rhs):
                for w, l in zip(words, lhs):
                    m1, m2 = BitMatrix(h1.n, h2.n, z1), BitMatrix(h1.r, h2.r, z2)
                    assert weight_reduction_gap(code, m1, m2, w) == (l, r)
                    checked += 1
    assert checked == 512 * 16 * (1 + 3)  # 2^9 Z1, 2^4 Z2, one and three codewords


def test_lemma4_reports_the_first_failing_triple_of_a_plain_scan(monkeypatch):
    # planted sides where Z1 number 100 fails first at Z2 number 2 with the
    # second codeword, while a codeword-first scan would stop at Z2 number 3
    # with the first; the span-table scan must pick the (Z1, Z2, L) loop's triple
    import random
    from itertools import product

    rng = random.Random(4)
    sides = [
        (z1, [rng.randrange(3) for _ in range(3)], [rng.randrange(3, 6) for _ in range(16)])
        for z1 in product(range(8), repeat=3)
    ]
    sides[100] = (sides[100][0], [2, 4, 3], [5, 5, 3, 1] + [0] * 12)
    sides[200] = (sides[200][0], [5, 5, 5], [0] * 16)
    monkeypatch.setattr(V, "_lemma4_pair", lambda h1, h2, words: iter(sides))
    h = ClassicalCode(BitMatrix.from_rows(["111", "111"]))  # three nonzero codewords
    r = V.check_lemma4(family=[(h, h)])
    words = [w for w in h.iter_codewords() if w.bits]
    z1, z2, w, l, rr = next(
        (z1, z2, w, l, rr)
        for z1, lhs, rhs in sides
        for z2, rr in zip(product(range(4), repeat=2), rhs)
        for w, l in zip(words, lhs)
        if l > rr
    )
    assert (z1, z2, w, l, rr) == (sides[100][0], (0, 2), words[1], 4, 3)
    assert r.counterexample == {
        "h1": ["111", "111"],
        "h2": ["111", "111"],
        "z1": BitMatrix(3, 3, z1).to01_rows(),
        "z2": BitMatrix(2, 2, z2).to01_rows(),
        "codeword": w.to01(),
        "lhs": l,
        "rhs": rr,
    }
    assert r.checked == 512 * 16 * 3


def test_lemma4_cap_bounds_span_tables():
    h = ClassicalCode(BitMatrix.from_rows(["110", "011"]))
    assert V.check_lemma4(family=[(h, h)], cap=512 + 16).passed
    with pytest.raises(CapExceeded):
        V.check_lemma4(family=[(h, h)], cap=512 + 16 - 1)


# -- prop1 checker ---------------------------------------------------------------

def test_prop1_registry(instances):
    for name in ("tiny_2", "rect_2_3", "ring_2", "surface_3", "toric_3"):
        r = V.check_proposition1(instances[name], instance=name)
        assert r.passed, name
        assert r.details["canonical_min"] >= r.details["floor"]


def test_prop1_surface_infinite_transpose_side(instances):
    r = V.check_proposition1(instances["surface_3"], instance="surface_3")
    assert r.details["delta_h1"] == 1
    assert r.details["delta_h2t"] is None
    assert r.details["floor"] == 1


# -- main equality --------------------------------------------------------------

def test_main_toric():
    r = V.check_main_equality(ring_repetition(3), ring_repetition(3), instance="toric_3")
    assert r.passed
    d = r.details
    assert d["quantum"] == 2
    assert d["parents"] == {"h1": 2, "h2": 2, "h1t": 2, "h2t": 2}
    assert d["canonical_z"] == 2 and d["canonical_x"] == 2
    assert d["condition_holds"] is False
    assert d["full_equality_observed"] is True


def test_main_surface_ignores_empty_transpose_codes():
    r = V.check_main_equality(open_repetition(3), open_repetition(3), instance="surface_3")
    assert r.passed
    d = r.details
    assert d["quantum"] == 1
    assert d["parents"]["h1t"] is None and d["parents"]["h2t"] is None
    assert d["canonical_z"] == 1 and d["canonical_x"] == 1


def test_main_requires_logicals():
    trivial = ClassicalCode(BitMatrix.identity(2))
    with pytest.raises(NoLogicals):
        V.check_main_equality(trivial, ring_repetition(3))


# -- css restriction ------------------------------------------------------------

def test_css_restriction_counts(instances):
    for name, count in (("tiny_2", 8), ("ring_2", 48)):
        r = V.check_css_restriction(instances[name], instance=name)
        assert r.passed, name
        assert r.checked == count


def test_css_restriction_cap_bounds_sector_tables(instances, monkeypatch):
    # tiny_2 has 2^3 quotient states per sector: a cap of 4 must stop the
    # sector tables before any full-Pauli search starts
    def no_pauli(*args, **kwargs):
        raise AssertionError("full-Pauli search ran despite the cap")

    monkeypatch.setattr(V, "pauli_barrier_general", no_pauli)
    with pytest.raises(CapExceeded):
        V.check_css_restriction(instances["tiny_2"], cap=4, instance="tiny_2")


# -- report plumbing ------------------------------------------------------------

def test_report_json_excludes_elapsed(instances):
    r = V.check_lemma3(instances["surface_3"], instance="surface_3")
    d = r.to_json_dict()
    assert "elapsed" not in d
    assert r.elapsed >= 0.0
    json.dumps(d, sort_keys=True)


def test_report_seed_key_only_when_set(instances):
    no_seed = V.check_lemma3(instances["surface_3"], instance="surface_3")
    assert "seed" not in no_seed.to_json_dict()
    seeded = V.check_theorem1(instances["surface_3"], samples=5, seed=1, instance="surface_3")
    assert seeded.to_json_dict()["seed"] == 1


def test_run_claim_unknown():
    with pytest.raises(ValueError):
        V.run_claim("lemma99")


def test_run_claim_lemma3_instances():
    reports = V.run_claim("lemma3")
    assert [r.instance for r in reports] == ["surface_3", "toric_3", "ring_2", "rect_2_3"]
    assert all(r.passed for r in reports)


def test_run_claim_on_a_pair_matches_the_registry_instance():
    # rect_2_3 is the product of these parents; with the pair named after it,
    # each claim must report exactly what its registry run reports
    pair = (open_repetition(2), open_repetition(3))
    for claim in ("lemma2", "lemma3", "prop1", "main", "css-restriction"):
        registry = [r for r in V.run_claim(claim) if r.instance == "rect_2_3"]
        explicit = V.run_claim(claim, pair=pair, instance="rect_2_3")
        assert [r.to_json_dict() for r in explicit] == [r.to_json_dict() for r in registry]
        assert V.summarize(explicit) == {"claims": 1, "passes": 1, "fails": 0}
    with pytest.raises(ValueError):
        V.run_claim("lemma4", pair=pair, instance="rect_2_3")


def test_run_all_summary_shape():
    reports, summary = V.run_all(seed=0)
    assert summary["claims"] == len(reports)
    assert summary["passes"] + summary["fails"] == summary["claims"]
    assert summary["fails"] == 0
    assert {r.claim for r in reports} == set(V.CLAIMS)
