"""Sector and full-Pauli tables on the stabilizer quotient, checked state by
state.

Every table value, every sector barrier and every full-Pauli barrier is
compared with the independent all-states minimax in
``oracles.minimax_values``, which searches the full 2^n (or 4^n) space with
no quotient, and witness walks are re-validated step by step.
"""

import inspect
import random
import tracemalloc
from functools import reduce
from operator import xor

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from hgpbarrier import barrier, f2core, logicals
from hgpbarrier.barrier import (
    SyndromeEnergy,
    classical_barrier,
    classical_table,
    energy_quantum,
    pauli_barrier_general,
    quantum_barrier,
    sector_table,
    validate_path,
)
from hgpbarrier.codes import ClassicalCode, ring_repetition
from hgpbarrier.errors import CapExceeded, WitnessError
from hgpbarrier.f2core import BitMatrix, BitVec, rank, span
from hgpbarrier.hgp import build_hgp
from hgpbarrier.logicals import PauliVec, canonical_z_basis
from hgpbarrier.verify import _PARENTS, _coset_values, quantum_instances


def _reference_reduce(basis, tags, x):
    """Reduction by an echelon basis of (vector, edges used), written out:
    (residue, highest level of a vector used, edges used). A vector's level
    is that of its own edge, the last of the edges it uses."""
    level = edges = 0
    for vec, vec_edges in basis:
        if x ^ vec < x:
            x ^= vec
            level = max(level, tags[vec_edges.bit_length()])
            edges ^= vec_edges
    return x, level, edges


def _check_edge_map(table):
    """The voltages hold one edge per quotient row, tagged in level order
    with the level of the edge, max(best u, best v); and when the table has
    at most 2^12 lift-coordinate vectors, its edge map gives, for each of
    them, the edges and level of a reduction by the voltage basis."""
    rank = table.quotient.rank
    basis, edges, tags = table._voltages
    assert len(basis) == len(edges) == len(tags) - 1 == rank and tags[0] == 0
    assert list(tags) == sorted(tags)
    assert list(tags[1:]) == [max(table.best[u], table.best[v]) for u, _, v in edges]
    if rank > 12:
        return
    for x in range(1 << rank):
        used, coords = 0, x
        for t in table._edge_map:
            used ^= t[coords & 0xFF]
            coords >>= 8
        _, level, edges_used = _reference_reduce(basis, tags, x)
        assert used == edges_used == barrier._reduce(basis, x)[1]
        assert tags[used.bit_length()] == level


def _check_sector(code, sector, n_paths, seed=0):
    """Compare every table entry and the sector barrier with the oracle, and
    validate the barrier witness and n_paths sampled table walks."""
    checks = code.hx if sector == "z" else code.hz
    stab = code.hz if sector == "z" else code.hx
    n = code.n_qubits
    table = sector_table(code, sector)
    assert table.explored == len(table.best) == 1 << (n - rank(stab))
    _check_edge_map(table)
    want = oracles.minimax_values(checks.row_bits, n)
    got = [table.value(s) for s in range(1 << n)]
    assert got == want
    energy = SyndromeEnergy(checks.row_bits, n)
    rng = random.Random(seed)
    for s in [0, (1 << n) - 1] + [rng.randrange(1 << n) for _ in range(n_paths)]:
        path = table.path(s)
        assert validate_path(path, energy)
        assert path.states[0].bits == 0 and path.states[-1].bits == s
        assert path.max_energy == want[s]

    stab_np = oracles.np_from_bitmatrix(stab)
    logicals = {
        sum(int(b) << j for j, b in enumerate(v))
        for v in oracles.span(oracles.np_kernel(oracles.np_from_bitmatrix(checks)), n)
        if not oracles.np_in_rowspace(stab_np, v)
    }
    if not logicals:
        return
    result = quantum_barrier(code, sector)
    assert result.value == min(want[s] for s in logicals)
    bits = [p.z.bits if sector == "z" else p.x.bits for p in result.witness.states]
    assert bits[0] == 0 and bits[-1] in logicals
    assert validate_path(result.witness, lambda p: energy_quantum(code, p))
    assert result.witness.max_energy == result.value


@pytest.mark.parametrize("name", sorted(quantum_instances()))
@pytest.mark.parametrize("sector", ("z", "x"))
def test_every_state_matches_full_space_oracle(name, sector):
    code = quantum_instances()[name]
    assert code.n_qubits <= 18
    _check_sector(code, sector, n_paths=40)


def _parent(n_max=4, r_max=4):
    """Check matrices with r, n <= 4; small widths make zero and repeated rows common."""
    return st.tuples(st.integers(1, r_max), st.integers(1, n_max)).flatmap(
        lambda rn: st.lists(
            st.integers(0, (1 << rn[1]) - 1), min_size=rn[0], max_size=rn[0]
        ).map(lambda rows: ClassicalCode(BitMatrix(rn[0], rn[1], tuple(rows))))
    )


def _code(rows, n):
    return ClassicalCode(BitMatrix(len(rows), n, tuple(rows)))


@settings(max_examples=60, deadline=None)
@given(_parent(), _parent())
# zero row, duplicate rows and weight-1 columns: HZ and HX get weight-1
# rows (moves that vanish in the quotient) and repeated columns (parallel moves)
@example(_code((0b011, 0b011, 0), 3), _code((0b01, 0b10), 2))
@example(_code((0b1, 0b1), 1), _code((0b101, 0), 3))
def test_random_products_match_oracle(h1, h2):
    code = build_hgp(h1, h2)
    assume(code.n_qubits <= 12)
    for sector in ("z", "x"):
        _check_sector(code, sector, n_paths=6)


def test_zero_and_parallel_moves_are_exercised():
    # the explicit examples above really produce both kinds of degenerate move
    code = build_hgp(_code((0b011, 0b011, 0), 3), _code((0b01, 0b10), 2))
    masks = f2core.quotient(code.hz.row_bits, code.n_qubits).images
    assert 0 in masks
    nonzero = [m for m in masks if m]
    assert len(set(nonzero)) < len(nonzero)


def test_classical_table_is_the_plain_unit_move_table():
    c = ring_repetition(5)
    table = classical_table(c)
    assert table.quotient.rows == () and table._voltages == ((), (), (0,))
    _check_edge_map(table)
    assert table.explored == len(table.best) == 32
    assert [table.value(s) for s in range(32)] == oracles.minimax_values(c.h.row_bits, 5)
    # with no stabilizers the walk is the plain search-tree path
    path = table.path(0b10110)
    assert len(path.states) == 4


def _check_lifts(table, states):
    """Each tree lift is the lift coordinates of the vector that the state's
    search-tree path reaches, and the path ends at the state."""
    for s in states:
        flips = table.tree.moves(s)
        reached = reduce(xor, (1 << q for q in flips), 0)
        assert table.quotient.split(reached) == (s, table.tree[s][1])


def test_cap_counts_quotient_states():
    toric = quantum_instances()["toric_3"]  # rank HZ = 8: 2^10 quotient states
    table = sector_table(toric, "z", cap=1 << 10)
    assert len(table.best) == 1 << 10
    _check_edge_map(table)
    _check_lifts(table, range(1 << 10))
    # the cap is checked before the table cache, so a cached table is no way round it
    with pytest.raises(CapExceeded):
        sector_table(toric, "z", cap=1 << 9)


def _one_check(cols):
    return ClassicalCode(BitMatrix(1, cols, ((1 << cols) - 1,)))


@pytest.mark.parametrize("which", ["classical", "sector", "quantum", "pauli"])
def test_cap_is_checked_before_the_quotient_is_built(monkeypatch, which):
    # a quotient's per-byte tables take about n^2 / 8 bytes of ints (0.9 GB
    # at n = 20 000), so the cap must stop a wide input first. The quotient's
    # first-use build is patched to fail, so a regression fails here instead
    # of allocating
    wide, product = _one_check(100_000), build_hgp(_one_check(40), _one_check(40))
    run = {
        "classical": lambda: classical_barrier(wide),
        "sector": lambda: sector_table(product, "z"),  # 1 601 qubits, 2^1561 states
        "quantum": lambda: quantum_barrier(product, "x"),
        "pauli": lambda: barrier.pauli_table(product),
    }[which]

    def no_quotient(self):
        raise AssertionError("quotient built before its cap was checked")

    monkeypatch.setattr(f2core.Quotient, "_words", property(no_quotient))
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded):
            run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_toric4_z_table_within_default_cap():
    c = ring_repetition(4)
    code = build_hgp(c, c)  # 32 qubits, 2^17 quotient states
    table = sector_table(code, "z")
    assert len(table.best) == 1 << 17
    _check_lifts(table, random.Random(0).sample(range(1 << 17), 512))
    values = [table.value(op.realized.z.bits) for op in canonical_z_basis(code)]
    expected = min(classical_barrier(c).value, classical_barrier(c.transpose()).value)
    assert values == [expected, expected] == [2, 2]
    energy = SyndromeEnergy(code.hx.row_bits, code.n_qubits)
    for op in canonical_z_basis(code):
        path = table.path(op.realized.z.bits)
        assert validate_path(path, energy) and path.max_energy == 2
        assert path.states[-1].bits == op.realized.z.bits


def test_toric4_z_table_build_peaks_below_13_bytes_per_state():
    # best and order keep a byte per state each; the flood's bitsets, its
    # butterfly masks (cleared here) and the per-state spread add the rest
    c = ring_repetition(4)
    code = build_hgp(c, c)
    q = f2core.quotient(code.hz.row_bits, code.n_qubits)
    q.images
    q.lift_moves
    barrier._energy(code.hx.row_bits, code.n_qubits).columns
    barrier._table.cache_clear()
    barrier._butterflies.cache_clear()
    tracemalloc.start()
    try:
        table = sector_table(code, "z")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.explored == 1 << 17
    assert peak <= 13 * (1 << 17)


@pytest.mark.parametrize("kind", ("sector", "pauli"))
def test_table_reads_reduce_nothing(monkeypatch, kind):
    # a warm table reads values and witness flips off its edge map; the
    # basis reduction runs only while the basis and that map are built
    code = quantum_instances()["toric_3" if kind == "sector" else "ring_2"]
    table = sector_table(code, "z") if kind == "sector" else barrier.pauli_table(code)
    table.value(0)
    calls = []
    real = barrier._reduce
    monkeypatch.setattr(barrier, "_reduce", lambda *a: calls.append(a) or real(*a))
    rng = random.Random(0)
    for bits in [rng.randrange(1 << table.n_dim) for _ in range(200)]:
        table.value(bits)
        table._flips(bits)
    assert calls == []


def test_table_walk_missing_its_target_raises():
    toric = quantum_instances()["toric_3"]
    table = sector_table(toric, "z")
    # a stabilizer sits over quotient state 0 and is reached only through
    # voltage loops; without them the walk stops at the zero vector
    target = toric.hz.row_bits[0]
    assert table.quotient.split(target)[0] == 0
    broken = barrier.MinimaxTable(table.energy, table.quotient, table.best, table.order)
    basis, _, tags = table._voltages
    broken.__dict__["_voltages"] = (basis, (), tags)
    with pytest.raises(WitnessError):
        broken.path(target)


# -- coset reads ------------------------------------------------------------------

_COSET_CASES = [(name, sector) for name in sorted(_PARENTS) for sector in ("z", "x")] + [
    (name, "pauli") for name in ("tiny_2", "rect_2_3", "rect_3_2", "ring_2")
] + [("ring_2", "classical")]


@pytest.mark.parametrize("name, kind", _COSET_CASES)
def test_coset_values_match_per_vector_reads(name, kind):
    # a coset is base + span(quotient.rows): for sector tables the rref rows
    # of their stabilizer matrix, for full-Pauli tables those of the
    # stabilizer generators, which span the same groups; a classical table
    # has no stabilizers, so its coset is base alone and its stabilizer_max
    # is 0. verify's counterexample scan lists the coset's per-vector reads
    # in span order, and their top is one read of stabilizer_max
    code = build_hgp(*_PARENTS[name])
    if kind == "pauli":
        table, stab_rows = barrier.pauli_table(code), code.pauli_rows[1]
    elif kind == "classical":
        table, stab_rows = classical_table(code.h1), ()
    else:
        table, stab_rows = sector_table(code, kind), code.sector(kind)[1].row_bits
    rows = table.quotient.rows
    assert rank(BitMatrix(len(rows), table.n_dim, rows)) == len(rows)
    assert set(span(rows)) == set(span(stab_rows))
    assert table.stabilizer_max == max(table.value(s) for s in span(rows))
    rng = random.Random(7)
    for base in [0] + [rng.randrange(1 << table.n_dim) for _ in range(3)]:
        want = [(table.value(base ^ s), base ^ s) for s in span(rows)]
        assert _coset_values(table, base) == want
        assert max(want)[0] == max(table.value(base), table.stabilizer_max)


def _drawn_parent(rng, r_max=3, n_max=4):
    r, n = rng.randint(1, r_max), rng.randint(1, n_max)
    return _code(tuple(rng.randrange(1 << n) for _ in range(r)), n)


def test_coset_max_is_the_top_of_a_full_coset_scan():
    # the largest value on base + S is max(value(base), stabilizer_max):
    # value(base) is best[[base]] or a tag at most the top one, which some
    # vector of every coset reaches. Checked against full scans of S and of
    # four cosets, over 120 seeded products' sector tables and, where
    # n + k <= 12, their full-Pauli tables
    rng = random.Random(2024)
    pauli = 0
    for _ in range(120):
        code = build_hgp(_drawn_parent(rng), _drawn_parent(rng))
        tables = [sector_table(code, "z"), sector_table(code, "x")]
        if code.n_qubits + code.k <= 12:
            tables.append(barrier.pauli_table(code))
            pauli += 1
        for table in tables:
            stabilizers = list(span(table.quotient.rows))
            assert table.stabilizer_max == max(table.value(s) for s in stabilizers)
            for base in [0] + [rng.randrange(1 << table.n_dim) for _ in range(3)]:
                top = max(table.value(base ^ s) for s in stabilizers)
                assert top == max(table.value(base), table.stabilizer_max)
    assert pauli >= 60


def test_classify_enumeration_and_sector_table_share_one_quotient(monkeypatch):
    # classify, the logical enumeration and the z-sector table all reduce
    # modulo HZ through the one cached quotient of its rows
    code = quantum_instances()["toric_3"]
    q = f2core.quotient(code.hz.row_bits, code.n_qubits)
    used = []
    for name in ("split", "__contains__"):
        real = getattr(f2core.Quotient, name)
        monkeypatch.setattr(f2core.Quotient, name, lambda self, bits, real=real: used.append(self) or real(self, bits))
    z = next(logicals.enumerate_z_logicals(code))
    assert used and all(u is q for u in used)
    used.clear()
    assert logicals.classify(code, z) is logicals.PauliClass.NONTRIVIAL_LOGICAL
    assert [u is q for u in used] == [False, True]  # the x part modulo HX, the z part modulo HZ
    assert sector_table(code, "z").quotient is q


# -- full-Pauli barriers --------------------------------------------------------

def _pauli_oracle(code):
    """All 4^n minimax values of x | z << n, with X, Z and Y moves on each qubit.

    The package's table has no Y moves, so agreement with this oracle shows
    that dropping them changes no value."""
    n = code.n_qubits
    rows = list(code.hz.row_bits) + [r << n for r in code.hx.row_bits]
    moves = [m for q in range(n) for m in (1 << q, 1 << (n + q), (1 << q) | (1 << (n + q)))]
    return oracles.minimax_values(rows, 2 * n, moves)


def _pauli(n, bits):
    return PauliVec(n, BitVec(n, bits & ((1 << n) - 1)), BitVec(n, bits >> n))


def _check_pauli_witnesses(code, want, n_paths, seed=0):
    n = code.n_qubits
    rng = random.Random(seed)
    for t in [0, (1 << 2 * n) - 1] + [rng.randrange(1 << 2 * n) for _ in range(n_paths)]:
        result = pauli_barrier_general(code, _pauli(n, t))
        assert result.value == want[t]
        walk = result.witness
        assert validate_path(walk, lambda p: energy_quantum(code, p))
        assert walk.states[0] == PauliVec.identity(n) and walk.states[-1] == _pauli(n, t)
        assert walk.max_energy == want[t]


@pytest.mark.parametrize("name", ("tiny_2", "rect_2_3"))
def test_pauli_barrier_matches_oracle_on_every_target(name):
    code = quantum_instances()[name]
    n = code.n_qubits
    want = _pauli_oracle(code)
    got = [pauli_barrier_general(code, _pauli(n, t)).value for t in range(1 << 2 * n)]
    assert got == want
    _check_edge_map(barrier.pauli_table(code))
    _check_pauli_witnesses(code, want, n_paths=30)


@pytest.mark.parametrize("name", ("ring_2", "rect_3_2"))
def test_pauli_table_matches_oracle_on_every_state(name):
    code = quantum_instances()[name]
    n = code.n_qubits
    table = barrier.pauli_table(code)
    assert table.explored == len(table.best) == 1 << (n + code.k)
    _check_edge_map(table)
    want = _pauli_oracle(code)
    assert [table.value(t) for t in range(1 << 2 * n)] == want
    _check_pauli_witnesses(code, want, n_paths=30)


@settings(max_examples=40, deadline=None)
@given(_parent(3, 3), _parent(3, 3))
def test_random_products_pauli_barriers_match_oracle(h1, h2):
    code = build_hgp(h1, h2)
    assume(code.n_qubits <= 5)
    want = _pauli_oracle(code)
    table = barrier.pauli_table(code)
    assert table.explored == 1 << (code.n_qubits + code.k)
    _check_edge_map(table)
    assert [table.value(t) for t in range(1 << 2 * code.n_qubits)] == want
    _check_pauli_witnesses(code, want, n_paths=8)


def test_a_table_stores_its_fill_and_reads_the_rest_off_its_quotient():
    # the tree and the voltages are derived from best and order
    assert list(inspect.signature(barrier.MinimaxTable).parameters) == ["energy", "quotient", "best", "order"]
    assert not hasattr(barrier, "_TreeParents") and not hasattr(barrier, "_TreeLifts")
    code = quantum_instances()["ring_2"]
    for table in (sector_table(code, "x"), classical_table(code.h1), barrier.pauli_table(code)):
        assert table.n_dim == table.quotient.n
        assert table.explored == 1 << table.quotient.dim == len(table.best) == len(table.order)
        assert table.tree.order is table.order and table.tree[0] == (None, 0)
