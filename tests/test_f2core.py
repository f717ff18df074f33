"""Unit and property tests for the packed GF(2) core."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hgpbarrier.errors import DimensionMismatch, IndexOutOfRange
from hgpbarrier.f2core import (
    BitMatrix,
    BitVec,
    combine,
    flatten,
    hstack,
    kernel_basis,
    kron,
    linear_table,
    mat_add,
    mat_mul,
    mat_vec,
    quotient,
    rank,
    reshape,
    rref,
    span,
    tensor_vec,
    unit_matrices,
    vec_split,
    weight,
)


def bitmatrix(rows=st.integers(1, 5), cols=st.integers(1, 6)):
    return st.tuples(rows, cols).flatmap(
        lambda rc: st.lists(
            st.integers(0, (1 << rc[1]) - 1), min_size=rc[0], max_size=rc[0]
        ).map(lambda rws: BitMatrix(rc[0], rc[1], tuple(rws)))
    )


def bitvec(n=st.integers(1, 8)):
    return n.flatmap(
        lambda k: st.integers(0, (1 << k) - 1).map(lambda b: BitVec(k, b))
    )


class TestConstruction:
    def test_from_ints_round_trip(self):
        v = BitVec.from_ints([1, 0, 1, 1])
        assert v.n == 4
        assert v.to01() == "1011"
        assert v.support() == (0, 2, 3)

    def test_to01_and_support_match_per_bit_definitions(self):
        rng = random.Random(0)
        for n in range(71):
            for bits in {0, (1 << n) - 1, 1 << n >> 1, rng.getrandbits(n), rng.getrandbits(n)}:
                v = BitVec(n, bits)
                assert v.to01() == "".join(str((bits >> i) & 1) for i in range(n))
                assert v.support() == tuple(i for i in range(n) if (bits >> i) & 1)

    def test_from01_leftmost_is_coordinate_zero(self):
        assert BitVec.from01("10").bits == 1

    def test_rejects_out_of_range_payload(self):
        with pytest.raises(IndexOutOfRange):
            BitVec(2, 4)

    def test_rejects_non_bit_entry(self):
        with pytest.raises(DimensionMismatch):
            BitVec.from_ints([0, 2])

    def test_matrix_rejects_ragged_rows(self):
        with pytest.raises(DimensionMismatch):
            BitMatrix.from_rows(["10", "110"])

    def test_identity_entries(self):
        eye = BitMatrix.identity(3)
        assert [eye.entry(i, j) for i in range(3) for j in range(3)] == [
            1, 0, 0, 0, 1, 0, 0, 0, 1,
        ]


class TestArithmeticFrozenValues:
    # expected values pinned against the numpy reference implementations

    def test_mat_mul_small(self):
        a = BitMatrix.from_rows(["11", "01"])
        b = BitMatrix.from_rows(["1", "1"])
        assert mat_mul(a, b).to01_rows() == ["0", "1"]

    def test_kron_small(self):
        a = BitMatrix.from_rows(["10", "11"])
        b = BitMatrix.from_rows(["11"])
        assert kron(a, b).to01_rows() == ["1100", "1111"]

    def test_kernel_of_chain(self):
        h = BitMatrix.from_rows(["110", "011"])
        (v,) = kernel_basis(h)
        assert v.to01() == "111"

    def test_reshape_coordinates(self):
        v = BitVec.from_support(6, [0, 4])
        m = reshape(v, 2, 3)
        assert m.to01_rows() == ["100", "010"]

    def test_rref_pivots(self):
        h = BitMatrix.from_rows(["110", "011"])
        res = rref(h)
        assert res.pivot_cols == (0, 1)
        assert res.rank == 2
        assert res.rref.to01_rows() == ["101", "011"]


class TestShapeErrors:
    def test_mat_mul_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mat_mul(BitMatrix.identity(2), BitMatrix.identity(3))

    def test_mat_vec_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mat_vec(BitMatrix.identity(2), BitVec(3))

    def test_reshape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            reshape(BitVec(5), 2, 3)

    def test_hstack_mismatch(self):
        with pytest.raises(DimensionMismatch):
            hstack(BitMatrix.identity(2), BitMatrix.identity(3))


def wide_bitmatrix():
    """At least 200 columns, the first ``z`` of them all zero."""
    return st.tuples(st.integers(1, 8), st.integers(200, 260)).flatmap(
        lambda rc: st.integers(0, rc[1] - 1).flatmap(
            lambda z: st.lists(
                st.integers(0, (1 << (rc[1] - z)) - 1).map(lambda b: b << z),
                min_size=rc[0],
                max_size=rc[0],
            ).map(lambda rws: BitMatrix(rc[0], rc[1], tuple(rws)))
        )
    )


@given(st.one_of(bitmatrix(), wide_bitmatrix()))
def test_rref_matches_numpy(m):
    ours = rref(m)
    ref, pivots = oracles.np_rref(oracles.np_from_bitmatrix(m))
    assert ours.pivot_cols == tuple(pivots)
    assert (oracles.np_from_bitmatrix(ours.rref) == ref).all()


@given(bitmatrix())
def test_rref_is_idempotent(m):
    once = rref(m)
    twice = rref(once.rref)
    assert twice.rref == once.rref
    assert twice.pivot_cols == once.pivot_cols


@given(bitmatrix())
def test_rank_nullity(m):
    assert rank(m) + len(kernel_basis(m)) == m.cols


@given(bitmatrix())
def test_kernel_vectors_annihilate(m):
    for v in kernel_basis(m):
        assert mat_vec(m, v).bits == 0


@given(bitmatrix(), st.integers(0, 31))
def test_row_combinations_lie_in_row_space(m, sel):
    acc = 0
    for i in range(m.rows):
        if (sel >> i) & 1:
            acc ^= m.row_bits[i]
    q = quotient(m.row_bits, m.cols)
    assert acc in q and q.split(acc)[0] == 0
    assert oracles.np_in_rowspace(oracles.np_from_bitmatrix(m), oracles.np_from_bitvec(BitVec(m.cols, acc)))


@given(bitmatrix())
def test_quotient_state_is_zero_exactly_on_the_row_space(m):
    # split(z) = (state, coords) with z = f ^ combine(rows, coords), f zero
    # on the pivots and state f's free columns packed low to high
    q = quotient(m.row_bits, m.cols)
    res = rref(m)
    assert q.rows == res.rref.row_bits[: res.rank] and (q.rank, q.dim) == (res.rank, m.cols - res.rank)
    a = oracles.np_from_bitmatrix(m)
    for bits in range(min(1 << m.cols, 64)):
        state, coords = q.split(bits)
        assert (bits in q) == (state == 0) == oracles.np_in_rowspace(a, oracles.np_from_bitvec(BitVec(m.cols, bits)))
        f = bits ^ combine(q.rows, coords)
        assert not any(f >> p & 1 for p in res.pivot_cols)
        assert state == sum((f >> c & 1) << i for i, c in enumerate(res.free_cols))
    for c in range(m.cols):
        assert q.split(1 << c) == (q.images[c], q.lift_moves[c] if q.rows else 0)


@settings(max_examples=40)
@given(bitmatrix(cols=st.integers(1, 3)), bitmatrix(rows=st.integers(1, 3), cols=st.integers(1, 3)))
def test_kron_weight_identity(a, b):
    # wt((A kron B) v) == wt(A V B^T) where V is the reshape of v
    for vbits in range(1 << (a.cols * b.cols)):
        v = BitVec(a.cols * b.cols, vbits)
        lhs = weight(mat_vec(kron(a, b), v))
        vmat = reshape(v, a.cols, b.cols)
        rhs = weight(mat_mul(mat_mul(a, vmat), b.transpose()))
        assert lhs == rhs


@settings(max_examples=40)
@given(
    bitmatrix(rows=st.integers(1, 3), cols=st.integers(1, 3)),
    bitmatrix(rows=st.integers(1, 3), cols=st.integers(1, 3)),
    bitvec(st.integers(1, 3)),
    bitvec(st.integers(1, 3)),
)
def test_kron_acts_as_tensor(a, b, u, v):
    if u.n != a.cols or v.n != b.cols:
        u = BitVec(a.cols, u.bits & ((1 << a.cols) - 1))
        v = BitVec(b.cols, v.bits & ((1 << b.cols) - 1))
    lhs = mat_vec(kron(a, b), tensor_vec(u, v))
    rhs = tensor_vec(mat_vec(a, u), mat_vec(b, v))
    assert lhs == rhs


@given(bitmatrix())
def test_transpose_involution(m):
    assert m.transpose().transpose() == m


def _shapes():
    """Random matrices of 0 to 9 rows and 0 to 260 columns, wide ones included."""
    rng = random.Random(0)
    for rows in (0, 1, 2, 5, 9):
        for cols in (0, 1, 7, 8, 9, 64, 201, 260):
            for _ in range(2):
                yield BitMatrix(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows)))


def test_transpose_and_column_match_per_bit_definitions():
    for m in _shapes():
        bit = lambda i, j: (m.row_bits[i] >> j) & 1
        t = m.transpose()
        assert (t.rows, t.cols) == (m.cols, m.rows)
        assert t.row_bits == tuple(
            sum(bit(i, j) << i for i in range(m.rows)) for j in range(m.cols)
        )
        for j in range(m.cols):
            assert m.column(j) == BitVec(m.rows, t.row_bits[j])


def test_to01_rows_match_per_row_bitvecs():
    rng = random.Random(0)
    for cols in range(71):
        rows = (0, (1 << cols) - 1, *(rng.getrandbits(cols) for _ in range(3)))
        m = BitMatrix(len(rows), cols, rows)
        assert m.to01_rows() == [BitVec(cols, r).to01() for r in rows]


@given(bitvec(), bitvec())
def test_concat_split_round_trip(a, b):
    joined = BitVec(a.n + b.n, a.bits | b.bits << a.n)
    lo, hi = vec_split(joined, a.n)
    assert lo == a and hi == b
    assert weight(joined) == weight(a) + weight(b)


@given(bitmatrix())
def test_flatten_reshape_round_trip(m):
    assert reshape(flatten(m), m.rows, m.cols) == m


@given(bitmatrix(), bitvec())
def test_mat_vec_agrees_with_mat_mul(m, v):
    v = BitVec(m.cols, v.bits & ((1 << m.cols) - 1))
    col = BitMatrix(m.cols, 1, tuple((v.bits >> i) & 1 for i in range(m.cols)))
    res = mat_mul(m, col)
    assert mat_vec(m, v).bits == sum(r << i for i, r in enumerate(res.row_bits))


@given(bitmatrix())
def test_mat_add_self_is_zero(m):
    assert mat_add(m, m).is_zero()


packed_rows = st.lists(st.integers(0, 255), max_size=7)


@given(packed_rows, st.integers(0, 127))
def test_combine_matches_naive_loop(rows, sel):
    sel &= (1 << len(rows)) - 1
    expected = 0
    for i, r in enumerate(rows):
        if (sel >> i) & 1:
            expected ^= r
    assert combine(rows, sel) == expected


@given(packed_rows)
def test_span_yields_each_combination_once_in_gray_order(basis):
    seq = list(span(basis))
    assert seq[0] == 0
    # as a multiset, one entry per selection of basis vectors
    assert sorted(seq) == sorted(combine(basis, sel) for sel in range(1 << len(basis)))
    assert all(a ^ b in basis for a, b in zip(seq, seq[1:]))


@given(packed_rows)
def test_linear_table_entry_i_combines_the_images_bit_i_selects(images):
    table = linear_table(images)
    assert len(table) == 1 << len(images)
    assert all(table[i] == combine(images, i) for i in range(len(table)))


@pytest.mark.parametrize("rows, cols", [(1, 1), (2, 3), (3, 2), (0, 4), (4, 0)])
def test_unit_matrices_are_one_hot_in_row_major_order(rows, cols):
    mats = list(unit_matrices(rows, cols))
    assert len(mats) == rows * cols
    assert all((m.rows, m.cols) == (rows, cols) and weight(m) == 1 for m in mats)
    # the one entry of matrix t sits at (t // cols, t % cols)
    assert [flatten(m).bits for m in mats] == [1 << t for t in range(rows * cols)]
