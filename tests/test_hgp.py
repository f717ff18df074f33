"""Tests for the hypergraph product construction and its parameters."""

import random

import pytest

import oracles
from hgpbarrier.codes import ClassicalCode, open_repetition, ring_repetition
from hgpbarrier.barrier import pauli_table, quantum_barrier, sector_table
from hgpbarrier.errors import CapExceeded, DimensionMismatch, IndexOutOfRange, NoLogicals
from hgpbarrier.f2core import BitMatrix, hstack, kron, mat_mul, quotient
from hgpbarrier.hgp import (
    HgpCode,
    build_hgp,
    css_check,
    hgp_parameters,
    index_to_block,
    qubit_index,
)


def toric():
    c = ring_repetition(3)
    return build_hgp(c, c)


def surface():
    c = open_repetition(3)
    return build_hgp(c, c)


def random_code(rng, max_r=4, max_n=5):
    r = rng.randrange(1, max_r + 1)
    n = rng.randrange(1, max_n + 1)
    rows = tuple(rng.randrange(1 << n) for _ in range(r))
    return ClassicalCode(BitMatrix(r, n, rows))


class TestConstruction:
    def test_toric_size(self):
        code = toric()
        assert code.n_qubits == 18
        assert code.hx.rows == 9 and code.hx.cols == 18
        assert code.hz.rows == 9 and code.hz.cols == 18

    def test_surface_size(self):
        assert surface().n_qubits == 13

    def test_n_qubits_and_w_q_match_their_definitions(self):
        rng = random.Random(0)
        for _ in range(30):
            h1, h2 = random_code(rng), random_code(rng)
            code = build_hgp(h1, h2)
            assert code.n_qubits == h1.n * h2.n + h1.r * h2.r
            # a repeated pair returns the cached code with the same value
            assert build_hgp(h1, h2) is code and code.n_qubits == h1.n * h2.n + h1.r * h2.r
            touching = [
                sum((r >> q) & 1 for r in code.hx.row_bits + code.hz.row_bits)
                for q in range(code.n_qubits)
            ]
            assert code.w_q == max(touching)

    def test_identity_second_factor_collapses(self):
        # with H2 = I_1 the two blocks are just H1 and the identity
        h1 = open_repetition(4)
        code = build_hgp(h1, ClassicalCode(BitMatrix.identity(1)))
        assert code.hx == hstack(h1.h, BitMatrix.identity(h1.r))
        assert code.hz == hstack(BitMatrix.identity(h1.n), h1.h.transpose())

    def test_blocks_are_the_defining_kroneckers(self):
        h1, h2 = ring_repetition(3), open_repetition(3)
        code = build_hgp(h1, h2)
        assert code.hx == hstack(
            kron(h1.h, BitMatrix.identity(h2.n)),
            kron(BitMatrix.identity(h1.r), h2.h.transpose()),
        )
        assert code.hz == hstack(
            kron(BitMatrix.identity(h1.n), h2.h),
            kron(h1.h.transpose(), BitMatrix.identity(h2.r)),
        )


class TestCssCheck:
    def test_products_commute(self):
        assert css_check(toric())
        assert css_check(surface())

    def test_seeded_random_pairs_commute(self):
        rng = random.Random(11)
        for _ in range(25):
            code = build_hgp(random_code(rng), random_code(rng))
            assert css_check(code)
            assert mat_mul(code.hz, code.hx.transpose()).is_zero()

    def test_single_flipped_bit_breaks_orthogonality(self):
        code = toric()
        rows = list(code.hx.row_bits)
        rows[0] ^= 1
        # HX is a cached property: a copy of the code gets the flipped matrix
        # in its instance dict, out of reach of build_hgp's shared code
        broken = HgpCode(code.h1, code.h2)
        object.__setattr__(broken, "hx", BitMatrix(code.hx.rows, code.hx.cols, tuple(rows)))
        assert not css_check(broken)


class TestParameters:
    def test_toric_parameters(self):
        p = hgp_parameters(toric())
        assert (p.n, p.k, p.d) == (18, 2, 3)

    def test_surface_parameters(self):
        # d = min(3, 3) over the two parents with logicals; transposed parents have none
        p = hgp_parameters(surface())
        assert (p.n, p.k, p.d) == (13, 1, 3)

    def test_free_code_product_dimension(self):
        # H = 0 (1x2): k=2 and the transposed code keeps its single free check,
        # so k_quantum = 2*2 + 1*1 = 5, confirmed by the rank-count oracle
        c = ClassicalCode(BitMatrix.zeros(1, 2))
        code = build_hgp(c, c)
        p = hgp_parameters(code)
        hx = oracles.np_from_bitmatrix(code.hx)
        hz = oracles.np_from_bitmatrix(code.hz)
        assert p.k == code.n_qubits - oracles.np_rank(hx) - oracles.np_rank(hz) == 5

    def test_dimension_matches_rank_oracle_on_random_pairs(self):
        rng = random.Random(5)
        for _ in range(20):
            code = build_hgp(random_code(rng), random_code(rng))
            hx = oracles.np_from_bitmatrix(code.hx)
            hz = oracles.np_from_bitmatrix(code.hz)
            expected = code.n_qubits - oracles.np_rank(hx) - oracles.np_rank(hz)
            if expected == 0:
                with pytest.raises(NoLogicals):
                    hgp_parameters(code)
            else:
                assert hgp_parameters(code).k == expected

    def test_k_property_matches_rank_oracle_including_zero(self):
        # HgpCode.k needs no logicals, so it also reads 0 where hgp_parameters raises
        rng = random.Random(6)
        for _ in range(20):
            code = build_hgp(random_code(rng), random_code(rng))
            hx = oracles.np_from_bitmatrix(code.hx)
            hz = oracles.np_from_bitmatrix(code.hz)
            assert code.k == code.n_qubits - oracles.np_rank(hx) - oracles.np_rank(hz)
        c = ClassicalCode(BitMatrix.identity(2))
        assert build_hgp(c, c).k == 0

    def test_distance_matches_coset_oracle(self):
        for code in (toric(), surface()):
            hx = oracles.np_from_bitmatrix(code.hx)
            hz = oracles.np_from_bitmatrix(code.hz)
            dz = oracles.min_coset_weight(hz, hx)
            dx = oracles.min_coset_weight(hx, hz)
            assert hgp_parameters(code).d == min(dz, dx)

    def test_no_logicals_raises(self):
        c = ClassicalCode(BitMatrix.identity(2))
        with pytest.raises(NoLogicals):
            hgp_parameters(build_hgp(c, c))


class TestIndexing:
    def test_documented_corners(self):
        code = toric()
        assert qubit_index(code, "VV", 0, 0) == 0
        assert qubit_index(code, "CC", 0, 0) == code.n1 * code.n2
        assert qubit_index(code, "VV", 2, 1) == 7

    def test_round_trip_every_qubit(self):
        code = build_hgp(open_repetition(3), ring_repetition(4))
        for q in range(code.n_qubits):
            block, a, b = index_to_block(code, q)
            assert qubit_index(code, block, a, b) == q

    def test_out_of_range(self):
        code = toric()
        with pytest.raises(IndexOutOfRange):
            qubit_index(code, "VV", 3, 0)
        with pytest.raises(IndexOutOfRange):
            qubit_index(code, "XX", 0, 0)
        with pytest.raises(IndexOutOfRange):
            index_to_block(code, 18)


class TestSparsity:
    def test_toric_weights(self):
        code = toric()
        assert code.w_c == 4
        assert code.w_q == 4

    def test_surface_weights(self):
        code = surface()
        assert code.w_c == 4
        assert code.w_q <= 4


def test_code_hash_is_taken_once(monkeypatch):
    # caches keyed on a code hash it on every hit; the field hash walks both
    # parents' matrices, so it is taken once per code and kept
    from hgpbarrier.logicals import canonical_z_basis

    code = build_hgp(ring_repetition(3), ring_repetition(3))
    canonical_z_basis(code)  # composed once, before any hash is counted
    calls = []
    real = BitMatrix.__hash__
    monkeypatch.setattr(BitMatrix, "__hash__", lambda m: calls.append(m) or real(m))
    for _ in range(100):
        canonical_z_basis(code)
    assert len(calls) <= 4
    twin = HgpCode(code.h1, code.h2)
    assert twin is not code and hash(twin) == hash(code) and twin == code


def _random_code(rng):
    r, n = rng.randint(1, 4), rng.randint(1, 6)
    return ClassicalCode(BitMatrix(r, n, tuple(rng.randrange(1 << n) for _ in range(r))))


def test_quotient_dimensions_come_from_the_parents():
    # n - n1*r2 + k1*k2T states of the z sector, n - r1*n2 + k1T*k2 of the
    # x sector and n + k of the full Pauli group, read off the parents'
    # ranks, are the dimensions of the quotients of the built HZ, HX and
    # generators; the random parents have zero and repeated rows
    rng = random.Random(29)
    for _ in range(300):
        code = HgpCode(_random_code(rng), _random_code(rng))
        n = code.n_qubits
        for kind in ("z", "x"):
            assert code.sector_dim(kind) == quotient(code.sector(kind)[1].row_bits, n).dim
        assert n + code.k == quotient(code.pauli_rows[1], 2 * n).dim


def test_counts_and_refused_caps_build_neither_hx_nor_hz():
    # a code is its two parents: its counts, and every cap a table or a
    # search refuses, are read off them, so no kron runs
    wide = ClassicalCode(BitMatrix(1, 300, ((1 << 300) - 1,)))
    code = build_hgp(wide, open_repetition(7))
    assert (code.k, code.n_qubits) == (299, 2106)
    refused = [
        (lambda: sector_table(code, "z"), 306),
        (lambda: sector_table(code, "x"), 2099),
        (lambda: quantum_barrier(code, "z"), 306),
        (lambda: pauli_table(code), 2405),
    ]
    for run, dim in refused:
        with pytest.raises(CapExceeded, match=rf"^2\^{dim} quotient states exceed cap \d+$"):
            run()
    assert not {"hx", "hz"} & set(vars(code))


@pytest.mark.parametrize("method", ["sector", "sector_dim", "parents"])
def test_kinds_are_z_or_x(method):
    with pytest.raises(DimensionMismatch, match="unknown kind 'y'"):
        getattr(toric(), method)("y")


@pytest.mark.parametrize("kind", [None, 1, b"z", ("z",)])
@pytest.mark.parametrize("method", ["sector", "sector_dim", "parents"])
def test_a_kind_that_is_not_a_string_raises_type_error(method, kind):
    with pytest.raises(TypeError, match="kind must be a str"):
        getattr(toric(), method)(kind)
