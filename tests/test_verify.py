"""Checker behavior: honest passes, forced failures, determinism."""

import ast
import json
import random
import tracemalloc
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from hgpbarrier.barrier import BarrierResult, MinimaxTable, pauli_barrier_general, sector_table
from hgpbarrier.codes import ClassicalCode, open_repetition, ring_repetition
from hgpbarrier.errors import CapExceeded, NoLogicals, NotAStabilizer
from hgpbarrier.f2core import BitMatrix, BitVec, _ones, combine, mat_mul, mat_vec, span, weight
from hgpbarrier.hgp import HgpCode, build_hgp
from hgpbarrier.logicals import PauliVec
from hgpbarrier import barrier, logicals
from hgpbarrier import verify as V


@pytest.fixture(scope="module")
def instances():
    return V.quantum_instances()


def test_registry_names(instances):
    assert set(instances) == {
        "toric_3", "surface_3", "tiny_2", "ring_2", "rect_2_3", "rect_3_2",
    }


# -- lemma1 ---------------------------------------------------------------------

class _PlantedTable:
    """A sector table whose vectors in ``planted`` read the planted value,
    through both reads: one vector's value and the stabilizer group's
    maximum, here a scan of the group through ``value``."""

    def __init__(self, table, planted):
        self.table, self.planted, self.quotient = table, planted, table.quotient

    def value(self, bits):
        return self.planted.get(bits, self.table.value(bits))

    @property
    def stabilizer_max(self):
        return max(self.value(s) for s in span(self.quotient.rows))


def _plant_sectors(mp, planted):
    """Make verify's sector tables read ``planted[sector]``, a dict of
    vectors to planted values, over their real values."""
    real = V.sector_table

    def planted_table(code, sector, cap=V.DEFAULT_STATE_CAP):
        table = real(code, sector, cap)
        return _PlantedTable(table, planted[sector]) if sector in planted else table

    mp.setattr(V, "sector_table", planted_table)


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


def _tampered(h1, h2):
    """A product whose sparsity bound w_c * w_q reads 0. cached_property
    stores in the instance dict, so planted values simulate a wrong bound
    without touching the matrices. They go on a copy: build_hgp returns one
    shared code per parent pair, which the planted values must not reach."""
    code = build_hgp(h1, h2)
    code = HgpCode(code.h1, code.h2)
    object.__setattr__(code, "w_c", 0)
    object.__setattr__(code, "w_q", 0)
    return code


def test_lemma1_forced_failure_has_recheckable_counterexample(instances):
    code = _tampered(open_repetition(3), open_repetition(3))
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
    code = _tampered(*V._PARENTS[name])
    r = V.check_lemma1(code, instance=name)
    assert r.details["mode"] == mode
    assert r.counterexample == counter


def test_lemma1_reports_a_constructive_walk_above_the_bound(instances, monkeypatch):
    # with the bound planted at surface_3's worst barrier 1, every stabilizer
    # holds, but a walk that applies its generators one by one climbs above
    # it: the first such walk of the seeded combos is reported
    code = instances["surface_3"]
    real = V._stabilizer_setup
    monkeypatch.setattr(V, "_stabilizer_setup", lambda code, cap: (*real(code, cap)[:4], 1))
    r = V.check_lemma1(code, instance="surface_3")
    assert r.details["worst_barrier"] == 1
    assert r.counterexample == {"combo_bits": 3155, "path_max": 4, "bound": 1}
    gens = code.pauli_rows[1]
    end, n = combine(gens, 3155), code.n_qubits
    s = PauliVec(n, BitVec(n, end & ((1 << n) - 1)), BitVec(n, end >> n))
    assert barrier.stabilizer_path(code, s, BitVec(len(gens), 3155)).max_energy == 4


@pytest.mark.parametrize(
    "planted",
    [{"x": 10}, {"z": 10}, {"x": 10, "z": 20}, {"x": 0, "z": 20}],
    ids=["x", "z", "xz", "x0z"],
)
def test_lemma1_paired_mode_reports_the_first_worst_pair_of_a_plain_scan(
    instances, monkeypatch, planted
):
    # plant 99 on the planted-th vector of a sector's rowspace (in span
    # order), so only x, only z, or both reach the worst barrier
    code = instances["surface_3"]
    rowspaces = {s: list(span(V.sector_table(code, s).quotient.rows)) for s in ("x", "z")}
    _plant_sectors(monkeypatch, {s: {rowspaces[s][i]: 99} for s, i in planted.items()})
    tx, tz = V.sector_table(code, "x"), V.sector_table(code, "z")
    pairs = product(rowspaces["x"], rowspaces["z"])
    x_bits, z_bits = max(pairs, key=lambda p: max(tx.value(p[0]), tz.value(p[1])))
    r = V.check_lemma1(code, instance="surface_3")
    assert r.details["mode"] == "paired"
    assert r.counterexample == {"x_bits": x_bits, "z_bits": z_bits, "barrier": 99, "bound": 16}


def test_lemma1_paired_mode_compares_no_pairs(instances):
    # the first worst pair follows from the two sector scans, so no (x, z)
    # pair is formed, while checked still counts them all; verify imports
    # neither product to form pairs with nor the quotient and flatten that
    # only a matrix scan would need, and reads span only in the
    # counterexample scan of one coset
    tree = ast.parse(Path(V.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported.isdisjoint({"product", "quotient", "flatten"})
    readers = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(n, ast.Name) and n.id == "span" for n in ast.walk(node))
    }
    assert readers == {"_coset_values"}
    r = V.check_lemma1(instances["surface_3"], instance="surface_3")
    assert (r.details["mode"], r.checked) == ("paired", 4096)


@pytest.mark.parametrize("name", sorted(V._PARENTS))
def test_lemma1_worst_barrier_is_the_top_voltage_tag(name):
    # lemma1 reads the worst stabilizer barrier as the higher of the two
    # sector tables' stabilizer_max, their top voltage tags. Up to 13 qubits
    # that is checked against the full-space oracle's values over each whole
    # stabilizer group, with no quotient; above, against a value read of
    # every stabilizer
    code = build_hgp(*V._PARENTS[name])
    r = V.check_lemma1(code, instance=name)
    worst = {}
    for sector in ("x", "z"):
        checks, stabs = code.sector(sector)
        table = sector_table(code, sector)
        if code.n_qubits <= 13:
            values = oracles.minimax_values(checks.row_bits, code.n_qubits)
            worst[sector] = max(values[s] for s in span(stabs.row_bits))
        else:
            worst[sector] = max(table.value(s) for s in span(stabs.row_bits))
        assert table.stabilizer_max == table._voltages[2][-1] == worst[sector]
    assert r.details["worst_barrier"] == max(worst.values())


@pytest.mark.parametrize("name", ("surface_3", "toric_3"))
def test_lemma1_packed_walks_match_stabilizer_path(instances, name):
    # lemma1 walks over packed x | z << n states, flipping each drawn
    # generator's qubits in turn; their energies are those of the public
    # stabilizer_path, which still refuses a Pauli the generators miss
    code = instances[name]
    n, gens = code.n_qubits, code.pauli_rows[1]
    rng = random.Random(0)
    for _ in range(50):
        combo = rng.randrange(1 << len(gens))
        end = combine(gens, combo)
        packed = barrier._pauli_walk(code, [q for g in _ones(combo) for q in _ones(gens[g])], int)
        s = PauliVec(n, BitVec(n, end & ((1 << n) - 1)), BitVec(n, end >> n))
        path = barrier.stabilizer_path(code, s, BitVec(len(gens), combo))
        assert packed.energies == path.energies
        assert path.energies == tuple(barrier.energy_quantum(code, p) for p in path.states)
        assert packed.states == tuple(p.x.bits | p.z.bits << n for p in path.states)
        wrong = PauliVec(n, BitVec(n, (end ^ 1) & ((1 << n) - 1)), s.z)
        with pytest.raises(NotAStabilizer):
            barrier.stabilizer_path(code, wrong, BitVec(len(gens), combo))


def test_lemma1_walks_are_stabilizer_paths(instances, monkeypatch):
    # each of lemma1's eight seeded walks is the public stabilizer_path of its
    # drawn generators, on packed states
    code = instances["surface_3"]
    n, gens = code.n_qubits, code.pauli_rows[1]
    walks, real = [], V._pauli_walk
    monkeypatch.setattr(V, "_pauli_walk", lambda *args: walks.append(real(*args)) or walks[-1])
    V.check_lemma1(code, instance="surface_3")
    rng = random.Random(0)
    for walk in walks:
        combo = rng.randrange(1 << len(gens))
        end = combine(gens, combo)
        s = PauliVec(n, BitVec(n, end & ((1 << n) - 1)), BitVec(n, end >> n))
        path = barrier.stabilizer_path(code, s, BitVec(len(gens), combo))
        assert walk.states == tuple(p.x.bits | p.z.bits << n for p in path.states)
        assert walk.energies == path.energies
    assert len(walks) == 8


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


@pytest.mark.parametrize(
    "name, planted, sweep, counter",
    [
        # toric_3 only samples: sample 0's stabilizer product L s has x part
        # 160414, planted at 99
        (
            "toric_3",
            {"x": {160414: 99}},
            "sampled",
            {"l_x": 249512, "l_z": 151140, "s_x": 113718, "s_z": 100062,
             "delta_l": 2, "delta_ls": 99, "bound": 16},
        ),
        # surface_3 also sweeps every stabilizer: HX's first rref row 2625 is
        # planted at 99 and, as the coset identity asks of a real table, so
        # is its translate 3500 in sample 0's x coset L + rowspace. Sample
        # 0's own L s reads its true value; the top tag 99 breaks the bound,
        # and the coset scan finds L times 2625
        (
            "surface_3",
            {"x": {2625: 99, 2029 ^ 2625: 99}},
            "exhaustive",
            {"l_x": 2029, "l_z": 1103, "s_x": 2625, "s_z": 0,
             "delta_l": 1, "delta_ls": 99, "bound": 16},
        ),
        # the same in the z sector: HZ's first rref row 1541 and its
        # translate in sample 0's z coset
        (
            "surface_3",
            {"z": {1541: 99, 1103 ^ 1541: 99}},
            "exhaustive",
            {"l_x": 2029, "l_z": 1103, "s_x": 0, "s_z": 1541,
             "delta_l": 1, "delta_ls": 99, "bound": 16},
        ),
        # HX's first row 521 planted alone: the top tag breaks the bound at
        # every sample, but no translate is planted, so each coset scan
        # finds its true values until the first L whose x part 3674 is
        # itself a stabilizer, whose coset holds 521
        (
            "surface_3",
            {"x": {521: 99}},
            "exhaustive",
            {"l_x": 3674, "l_z": 6335, "s_x": 3155, "s_z": 0,
             "delta_l": 1, "delta_ls": 99, "bound": 16},
        ),
    ],
    ids=["sampled", "sweep", "sweep-z", "sweep-later-coset"],
)
def test_theorem1_counterexample_routes(monkeypatch, instances, name, planted, sweep, counter):
    _plant_sectors(monkeypatch, planted)
    r = V.check_theorem1(instances[name], samples=100, seed=0, instance=name)
    assert r.details["stabilizer_sweep"] == sweep
    assert not r.passed
    assert r.counterexample == counter


@pytest.mark.parametrize("samples", [0, -5, True, False])
def test_theorem1_rejects_fewer_than_one_sample(instances, monkeypatch, samples):
    def no_table(*args, **kwargs):
        raise AssertionError("a table was built before the sample count was checked")

    monkeypatch.setattr(V, "sector_table", no_table)
    # a bool is no sample count, though True == 1
    error, match = ValueError, "at least one sample"
    if isinstance(samples, bool):
        error, match = TypeError, "bool"
    with pytest.raises(error, match=match):
        V.check_theorem1(instances["surface_3"], samples=samples)


@pytest.mark.parametrize(
    "given",
    [{"samples": 1.5}, {"samples": "3"}, {"seed": None}, {"seed": 1.5}, {"seed": "x"}, {"seed": True}],
    ids=["samples-float", "samples-str", "seed-none", "seed-float", "seed-str", "seed-bool"],
)
def test_theorem1_rejects_a_seed_or_sample_count_that_is_no_int(instances, monkeypatch, given):
    # an unseeded or oddly seeded sample could not be rerun from its report,
    # and a float count would fail only after both tables are built
    def no_table(*args, **kwargs):
        raise AssertionError("a table was built before the arguments were checked")

    monkeypatch.setattr(V, "sector_table", no_table)
    (name,) = given
    with pytest.raises(TypeError, match=f"thm1's {name} must be an int"):
        V.check_theorem1(instances["surface_3"], **given)


def _counted_scans(monkeypatch):
    """The bases of verify's coset scans, as they run."""
    scans = []
    real = V._coset_values
    monkeypatch.setattr(V, "_coset_values", lambda table, base: scans.append(base) or real(table, base))
    return scans


def test_passing_lemma1_and_theorem1_scan_no_coset(monkeypatch):
    # a stabilizer group's maximum is one read (stabilizer_max), so a passing
    # lemma1 or thm1 scans no coset: _coset_values runs only to report a
    # counterexample
    scans = _counted_scans(monkeypatch)
    sweeps = set()
    for name, pair in V._PARENTS.items():
        code = build_hgp(*pair)
        assert V.check_lemma1(code, instance=name).passed
        r = V.check_theorem1(code, samples=100, seed=0, instance=name)
        assert r.passed
        sweeps.add(r.details["stabilizer_sweep"])
    assert sweeps == {"exhaustive", "sampled"}
    assert scans == []


def test_theorem1_sweeps_only_where_the_top_tag_breaks_the_bound(instances, monkeypatch):
    # with the bound planted at surface_3's top tag 1, samples with
    # Delta(L) = 1 meet the top tag exactly and thm1 holds: no scan
    code = instances["surface_3"]
    real = V._stabilizer_setup
    monkeypatch.setattr(V, "_stabilizer_setup", lambda code, cap: (*real(code, cap)[:4], 1))
    scans = _counted_scans(monkeypatch)
    r = V.check_theorem1(code, samples=100, seed=0, instance="surface_3")
    assert r.passed and r.details["bound"] == 1 and r.details["smallest_slack"] == 0
    assert scans == []


def test_theorem1_sampled_mode_sweeps_no_coset(instances, monkeypatch):
    # toric_3 only samples: a stabilizer planted above the bound, with its
    # translate in sample 0's x coset, breaks the top tag, yet no sampled
    # pair reads either, and no coset is swept
    scans = _counted_scans(monkeypatch)
    _plant_sectors(monkeypatch, {"x": {163905: 99, 249512 ^ 163905: 99}})
    r = V.check_theorem1(instances["toric_3"], samples=100, seed=0, instance="toric_3")
    assert r.passed and r.details["stabilizer_sweep"] == "sampled"
    assert scans == []


def test_coset_scans_make_no_per_vector_reads(instances, monkeypatch):
    # lemma1 and thm1's sweep read the stabilizer maxima, which need no
    # fiber; only thm1's four sampled reads per sample go through _fiber
    calls = []
    real = MinimaxTable._fiber

    def counted(self, bits):
        calls.append(bits)
        return real(self, bits)

    monkeypatch.setattr(MinimaxTable, "_fiber", counted)
    assert V.check_lemma1(instances["surface_3"], instance="surface_3").passed
    assert calls == []
    r = V.check_theorem1(instances["surface_3"], samples=100, seed=0, instance="surface_3")
    assert r.passed and r.details["stabilizer_sweep"] == "exhaustive"
    assert len(calls) == 4 * 100


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
    # every restricted value is read off the parent's classical table
    planted = SimpleNamespace(value=lambda bits: 99)
    monkeypatch.setattr(V, "classical_table", lambda parent, cap: planted)
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


def test_lemma3_reports_the_first_composite_below_the_elementary_min(instances, monkeypatch):
    # toric_3's canonical Z operators have z bits 292 and 229376; their
    # product, selection 3, is planted at 1, below both elementary values 2
    _plant_sectors(monkeypatch, {"z": {292 ^ 229376: 1}})
    r = V.check_lemma3(instances["toric_3"], instance="toric_3")
    assert r.details == {"elementary_min": 2, "composite_min": 1}
    assert r.counterexample == {"selection": 3, "barrier": 1, "elementary_min": 2}


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


def _plant(mp, code, index, word):
    """Make ``iter_codewords`` of ``code``'s check matrix list the 01-string
    ``word``, usually a non-codeword, in place of its nonzero codeword
    number ``index``; every other matrix lists its real codewords."""
    real = ClassicalCode.iter_codewords
    listed = list(real(code))
    listed[index + 1] = BitVec.from01(word)  # after the zero word
    mp.setattr(ClassicalCode, "iter_codewords", lambda self: iter(listed) if self.h == code.h else real(self))


def _index(m: BitMatrix) -> int:
    """m's index in ``oracles.collapse_sides`` order: row 0 is the leading
    digit in base 2^cols."""
    i = 0
    for row in m.row_bits:
        i = i << m.cols | row
    return i


def _check_counterexample(ce, words):
    """A lemma4 counterexample is a failing triple of the numpy oracle over
    the listed ``words``, and re-evaluates through f2core to its lhs > rhs = 0:
    its Z2 H2 equals H1 Z1, as the checker's argument builds it, so the
    right side wt(H1 Z1 + Z2 H2) is 0."""
    h1, h2, z1, z2 = (BitMatrix.from_rows(ce[key]) for key in ("h1", "h2", "z1", "z2"))
    word = BitVec.from01(ce["codeword"])
    lhs, rhs = oracles.collapse_sides(oracles.np_from_bitmatrix(h1), oracles.np_from_bitmatrix(h2), words)
    assert lhs[_index(z1), words.index(word.bits)] == ce["lhs"] > rhs[_index(z1), _index(z2)] == ce["rhs"] == 0
    entry = mat_mul(h1, z1)
    assert entry == mat_mul(z2, h2)
    assert weight(mat_vec(entry, word)) == ce["lhs"]


def _listed(code):
    return [w.bits for w in code.iter_codewords() if w.bits]


def test_lemma4_counterexample_fields(monkeypatch):
    # H2's only codeword 111 replaced by 100, odd against H2's first row
    # 110: Z1 holds that row in row 0, H1's first column with a 1, and Z2
    # holds e_0 in row 0, the one row of H1 with a 1 in column 0
    h = _code("110", "011")
    _plant(monkeypatch, h, 0, "100")
    r = V.check_lemma4(family=[(h, h)])
    assert not r.passed and r.checked == 512 * 16
    ce = r.counterexample
    assert ce == {
        "h1": ["110", "011"],
        "h2": ["110", "011"],
        "z1": ["110", "000", "000"],
        "z2": ["10", "00"],
        "codeword": "100",
        "lhs": 1,
        "rhs": 0,
    }
    _check_counterexample(ce, _listed(h))


@pytest.mark.parametrize(
    "planted, index, word, z1, z2",
    [
        (("110", "011"), 0, "001", ["011", "000", "000"], ["01", "00"]),
        (("110", "110"), 1, "100", ["110", "000", "000"], ["10", "00"]),
    ],
    ids=["first-h2", "fourth-h2"],
)
def test_lemma4_planted_counterexamples_are_pinned(monkeypatch, planted, index, word, z1, z2):
    # a non-codeword planted in one H2's word list of the default family:
    # the first pair with that H2 fails, on H2's first row odd against the
    # planted word, and the counting still covers the whole family
    fam = V.lemma4_default_family()
    _plant(monkeypatch, _code(*planted), index, word)
    r = V.check_lemma4()
    assert r.checked == 368_640
    assert r.counterexample == {
        "h1": ["110", "011"],
        "h2": list(planted),
        "z1": z1,
        "z2": z2,
        "codeword": word,
        "lhs": 1,
        "rhs": 0,
    }
    h2 = next(h2 for _, h2 in fam if h2.h.to01_rows() == list(planted))
    _check_counterexample(r.counterexample, _listed(h2))


def test_lemma4_passing_check_multiplies_no_matrices(monkeypatch):
    # a pair passes on its H2's verdict alone, read off H2's rows; only a
    # failing pair builds and multiplies its counterexample's matrices
    def refuse(*args):
        raise AssertionError("called")

    for name in ("mat_mul", "mat_add", "mat_vec"):
        monkeypatch.setattr(V, name, refuse)
    r = V.check_lemma4()
    assert r.passed and r.checked == 368_640


def test_lemma4_lists_each_h2_maps_codewords_once(monkeypatch):
    # the codewords depend only on H2, so the default family's five H2
    # matrices are enumerated once each, not once per pair
    calls = []
    real = ClassicalCode.iter_codewords
    monkeypatch.setattr(ClassicalCode, "iter_codewords", lambda self: calls.append(self.h) or real(self))
    r = V.check_lemma4()
    assert r.passed and r.checked == 368_640
    assert len(calls) <= 5


def test_lemma4_kernel_matches_weight_reduction_gap():
    # every triple of a two-pair family against the per-triple public API:
    # per Z1, the largest left side over L is the most row parities of the
    # entry H1 Z1 against one L, and the least right side over Z2 the sum of
    # the entry rows' distances to H2's row space
    from hgpbarrier.deform import weight_reduction_gap

    fam = V.lemma4_default_family()
    checked = 0
    for h1, h2 in (fam[1], fam[13]):
        code, words = build_hgp(h1, h2), _listed(h2)
        rowspace = list(span(h2.h.row_bits))
        z2_all = [BitMatrix(h1.r, h2.r, z2) for z2 in product(range(1 << h2.r), repeat=h1.r)]
        for z1 in product(range(1 << h2.n), repeat=h1.n):
            m1 = BitMatrix(h1.n, h2.n, z1)
            rows = mat_mul(h1.h, m1).row_bits
            lhs = max(sum((row & w).bit_count() & 1 for row in rows) for w in words)
            rhs = sum(min((row ^ s).bit_count() for s in rowspace) for row in rows)
            gaps = [weight_reduction_gap(code, m1, m2, BitVec(h2.n, w)) for m2 in z2_all for w in words]
            assert (lhs, rhs) == (max(l for l, _ in gaps), min(r for _, r in gaps))
            checked += len(gaps)
    assert checked == 512 * 16 * (1 + 3)  # 2^9 Z1, 2^4 Z2, one and three codewords


def test_lemma4_constructed_triple_sets_z2_in_every_row_of_h1s_column_j(monkeypatch):
    # H1 = H2 = [111; 111], whose row space is {000, 111}, with the second of
    # its three even codewords replaced by the odd word 010. Row 0 of H2 is
    # the first odd row, H1's first column with a 1 is column 0, and both
    # rows of H1 have a 1 there: Z1 holds 111 in row 0, Z2 is e_0 twice, and
    # the entry's two rows 111 both count against 010
    h = _code("111", "111")
    _plant(monkeypatch, h, 1, "010")
    r = V.check_lemma4(family=[(h, h)])
    assert r.counterexample == {
        "h1": ["111", "111"],
        "h2": ["111", "111"],
        "z1": ["111", "000", "000"],
        "z2": ["10", "10"],
        "codeword": "010",
        "lhs": 2,
        "rhs": 0,
    }
    assert r.checked == 512 * 16 * 3
    _check_counterexample(r.counterexample, _listed(h))


def test_lemma4_verdicts_are_kept_per_h2_map_over_every_term(monkeypatch):
    # two pairs share their H1 but not their H2, and a non-codeword is
    # planted only in the second H2's list, so a verdict shared across H2
    # maps misses it
    h, g = _code("110", "011"), _code("111", "111")
    _plant(monkeypatch, g, 0, "111")
    r = V.check_lemma4(family=[(h, h), (h, g)])
    assert r.checked == 512 * 16 * (1 + 3)  # one and three codewords
    assert r.counterexample == {
        "h1": ["110", "011"],
        "h2": ["111", "111"],
        "z1": ["111", "000", "000"],
        "z2": ["10", "00"],
        "codeword": "111",
        "lhs": 1,
        "rhs": 0,
    }
    _check_counterexample(r.counterexample, _listed(g))


@st.composite
def _check_matrix(draw):
    r, n = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    return ClassicalCode(BitMatrix(r, n, tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(r))))


def _code(*rows):
    return ClassicalCode(BitMatrix.from_rows(rows))


@settings(max_examples=40, deadline=None)
@given(_check_matrix(), _check_matrix(), st.integers(0, 6))
@example(_code("110", "000"), _code("011", "000"), 0)  # zero rows
@example(_code("101", "101"), _code("110", "110"), 1)  # duplicate rows
@example(_code("011", "010"), _code("01", "11"), 0)  # a zero column
@example(_code("111"), _code("000", "000"), 0)  # every word a codeword
@example(_code("000"), _code("110", "011"), 0)  # a zero H1 against a failing H2
def test_lemma4_verdict_and_count_match_the_oracle_triple_scan(h1, h2, plant):
    # the last nonzero codeword of H2, if any, is replaced by word
    # plant % (2^n2 - 1) + 1, which may or may not be a codeword
    words = [w.bits for w in h2.iter_codewords() if w.bits]
    if words:
        words[-1] = plant % ((1 << h2.n) - 1) + 1
    m1, m2 = oracles.np_from_bitmatrix(h1.h), oracles.np_from_bitmatrix(h2.h)
    status, checked = oracles.collapse_scan(m1, m2, words)
    with pytest.MonkeyPatch.context() as mp:
        if words:
            _plant(mp, h2, len(words) - 1, BitVec(h2.n, words[-1]).to01())
        r = V.check_lemma4(family=[(h1, h2)])
        listed, _ = V._lemma4_memo(h2)
    assert (r.status, r.checked) == (status, checked)
    assert listed == words
    # a failing pair reports a failing triple of the oracle, whose sides
    # re-evaluate through f2core; a passing pair reports none
    if status == "fail":
        _check_counterexample(r.counterexample, words)
    else:
        assert r.counterexample is None


def test_lemma4_cap_bounds_z1_and_z2_matrices():
    h = ClassicalCode(BitMatrix.from_rows(["110", "011"]))
    assert V.check_lemma4(family=[(h, h)], cap=512 + 16).passed
    with pytest.raises(CapExceeded, match=r"^2\^9 \+ 2\^4 lemma4 matrices Z1 and Z2 exceed cap 527$"):
        V.check_lemma4(family=[(h, h)], cap=512 + 16 - 1)


def test_lemma4_cap_is_checked_before_the_matrix_count_is_built():
    # 2^(n1 n2) for a 1 x 20 000 pair is a 50 MB int; the exponents are
    # compared with the cap first, so refusing the pair allocates nothing
    # of that size
    wide = ClassicalCode(BitMatrix(1, 20_000, ((1 << 20_000) - 1,)))
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match=r"^2\^400000000 \+ 2\^1 lemma4 matrices Z1 and Z2 exceed cap 16777216$"):
            V.check_lemma4(family=[(wide, wide)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


# -- prop1 checker ---------------------------------------------------------------

def test_prop1_registry(instances):
    for name in ("tiny_2", "rect_2_3", "ring_2", "surface_3", "toric_3"):
        r = V.check_proposition1(instances[name], instance=name)
        assert r.passed, name
        assert r.details["canonical_min"] >= r.details["floor"]


def test_prop1_reports_the_first_selection_below_the_floor(instances, monkeypatch):
    # toric_3's second canonical Z operator, z bits 229376, is planted at 1,
    # below the floor min(Delta(H1), Delta(H2^T)) = 2
    _plant_sectors(monkeypatch, {"z": {229376: 1}})
    r = V.check_proposition1(instances["toric_3"], instance="toric_3")
    assert r.details == {"delta_h1": 2, "delta_h2t": 2, "floor": 2, "canonical_min": 1}
    assert r.counterexample == {"selection": 2, "barrier": 1, "floor": 2}


def test_prop1_surface_infinite_transpose_side(instances):
    r = V.check_proposition1(instances["surface_3"], instance="surface_3")
    assert r.details["delta_h1"] == 1
    assert r.details["delta_h2t"] is None
    assert r.details["floor"] == 1


def test_prop1_floor_is_typed():
    # k1^T = 0, so the product has no check-check Z logical, and prop1's
    # floor skips Delta(H2^T) = 1 as main's expectation does
    h1 = ClassicalCode(BitMatrix.from_rows(["1010", "0011", "1111"]))
    h2 = ClassicalCode(BitMatrix.from_rows(["01", "01"]))
    assert h1.transpose().k == 0
    prop1 = V.check_proposition1(build_hgp(h1, h2))
    assert prop1.passed
    assert prop1.details == {"delta_h1": 2, "delta_h2t": 1, "floor": 2, "canonical_min": 2}
    main = V.check_main_equality(h1, h2)
    assert main.passed and main.details["canonical_z"] == 2


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


@pytest.mark.parametrize(
    "planted, counter",
    [
        ({"z": {292: 99}}, {"side": "Z", "canonical": 99, "expected": 1}),
        ({"x": {448: 99}}, {"side": "X", "canonical": 99, "expected": 1}),
    ],
    ids=["z", "x"],
)
def test_main_reports_a_canonical_side_off_its_typed_floor(monkeypatch, planted, counter):
    # surface_3's one canonical Z operator (z bits 292) or X operator (x bits
    # 448) planted at 99, off the parent barrier 1 its type expects
    _plant_sectors(monkeypatch, planted)
    r = V.check_main_equality(open_repetition(3), open_repetition(3), instance="surface_3")
    assert r.counterexample == counter


def test_main_reports_the_full_barrier_off_the_parents_when_the_condition_holds(monkeypatch):
    # a product whose sparsity bound reads 0 puts toric_3 under the
    # condition min(parents) > w_c w_q; the real quantum barrier 2 then meets
    # the parents' minimum, and a planted 99 is reported against it
    monkeypatch.setattr(V, "build_hgp", _tampered)
    r = V.check_main_equality(ring_repetition(3), ring_repetition(3), instance="toric_3")
    assert r.passed and r.details["condition_holds"] is True
    real = V.quantum_barrier

    def planted(code, sector, cap):
        result = real(code, sector, cap)
        return BarrierResult(99, result.witness, result.explored)

    monkeypatch.setattr(V, "quantum_barrier", planted)
    r = V.check_main_equality(ring_repetition(3), ring_repetition(3), instance="toric_3")
    assert r.counterexample == {"side": "full", "quantum": 99, "min_parents": 2}
    assert r.details["full_equality_observed"] is False


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


def _no_full_pauli_table(monkeypatch, code):
    """Spy on barrier._table: fail on the full-Pauli build, over 2n
    coordinates, and pass sector tables (n coordinates) through."""
    real = barrier._table

    def spy(rows, stab_rows, n):
        if n == 2 * code.n_qubits:
            raise AssertionError("full-Pauli table built despite the cap")
        return real(rows, stab_rows, n)

    monkeypatch.setattr(barrier, "_table", spy)


def test_css_restriction_cap_bounds_sector_tables(instances, monkeypatch):
    # tiny_2 has 2^3 quotient states per sector: a cap of 4 must stop the
    # sector tables before the full-Pauli table is built
    _no_full_pauli_table(monkeypatch, instances["tiny_2"])
    with pytest.raises(CapExceeded):
        V.check_css_restriction(instances["tiny_2"], cap=4, instance="tiny_2")


def test_css_restriction_cap_bounds_the_full_pauli_table(instances, monkeypatch):
    # tiny_2's sector tables have 2^3 states, its full-Pauli table 2^(5 + 1):
    # a cap of 16 passes the sector tables and must stop the full-Pauli one
    _no_full_pauli_table(monkeypatch, instances["tiny_2"])
    with pytest.raises(CapExceeded):
        V.check_css_restriction(instances["tiny_2"], cap=16, instance="tiny_2")


def test_css_restriction_enumerates_logicals_under_its_cap(instances, monkeypatch):
    # the full-Pauli quotient has at least as many states as either kernel,
    # so under the claim's cap the enumerations never fail first; at their
    # own 2^20 default they failed on kernels the tables could take
    caps = []
    real = logicals._enumerate_coset

    def recording(check, stab_rows, cap):
        caps.append(cap)
        return real(check, stab_rows, cap)

    monkeypatch.setattr(logicals, "_enumerate_coset", recording)
    r = V.check_css_restriction(instances["tiny_2"], cap=1 << 22, instance="tiny_2")
    assert r.passed and caps == [1 << 22, 1 << 22]


@pytest.mark.parametrize(
    "kind, packed, counter",
    [
        ("z", 5 << 5, {"z_bits": 5, "full": 99, "sector": 1}),
        ("x", 3, {"x_bits": 3, "full": 99, "sector": 1}),
    ],
)
def test_css_restriction_reports_a_full_value_off_the_sector_value(
    instances, monkeypatch, kind, packed, counter
):
    # the full-Pauli value of tiny_2's first pure-Z (z bits 5) or pure-X
    # (x bits 3) logical, packed x | z << 5, is planted at 99
    real = V.pauli_table
    monkeypatch.setattr(V, "pauli_table", lambda c, cap: _PlantedTable(real(c, cap), {packed: 99}))
    r = V.check_css_restriction(instances["tiny_2"], instance="tiny_2")
    assert r.checked == 8 and r.counterexample == counter


@pytest.mark.parametrize("name", ("tiny_2", "ring_2", "rect_2_3", "rect_3_2"))
def test_css_restriction_full_values_match_pauli_barrier_general(instances, monkeypatch, name):
    # every full value the checker compares is the one pauli_barrier_general
    # reports for that logical, witness walk and all
    code, n = instances[name], instances[name].n_qubits
    read = []

    class Recording:
        def __init__(self, table):
            self.table = table

        def value(self, bits):
            read.append((bits, self.table.value(bits)))
            return read[-1][1]

    real = V.pauli_table
    monkeypatch.setattr(V, "pauli_table", lambda c, cap: Recording(real(c, cap)))
    r = V.check_css_restriction(code, instance=name)
    assert r.passed and len(read) == r.checked > 0
    for bits, full in read:
        p = PauliVec(n, BitVec(n, bits & ((1 << n) - 1)), BitVec(n, bits >> n))
        assert full == pauli_barrier_general(code, p).value


# -- report plumbing ------------------------------------------------------------

def test_report_json_excludes_elapsed(instances):
    r = V.check_lemma3(instances["surface_3"], instance="surface_3")
    d = r.to_json_dict()
    assert "elapsed" not in d
    assert r.elapsed >= 0.0
    json.dumps(d, sort_keys=True)


def test_the_runner_times_each_check():
    # run_claim times each check call; a direct check call reports 0.0
    reports = V.run_claim("lemma3")
    assert reports and all(r.elapsed > 0.0 for r in reports)
    assert V.check_lemma3(V.quantum_instances()["surface_3"]).elapsed == 0.0


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
    # lemma4 checks the pair itself, as check_lemma4 on a one-pair family
    explicit = V.run_claim("lemma4", pair=pair, instance="rect_2_3")
    direct = V.check_lemma4([pair], instance="rect_2_3")
    assert [r.to_json_dict() for r in explicit] == [direct.to_json_dict()]
    assert explicit[0].instance == "rect_2_3" and explicit[0].passed
    assert explicit[0].checked == (1 << (2 * 3 + 1 * 2)) * 1


def test_run_all_summary_shape():
    reports, summary = V.run_all(seed=0)
    assert summary["claims"] == len(reports)
    assert summary["passes"] + summary["fails"] == summary["claims"]
    assert summary["fails"] == 0
    assert {r.claim for r in reports} == set(V.CLAIMS)
