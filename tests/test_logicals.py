"""Tests for canonical operator construction and Pauli classification."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgpbarrier.barrier import sweep_path_for_canonical
from hgpbarrier.codes import ClassicalCode, open_repetition, ring_repetition
from hgpbarrier.deform import find_activating_codeword
from hgpbarrier.errors import (
    CapExceeded,
    DimensionMismatch,
    NoLogicals,
    NotElementary,
    ShapeMismatch,
)
from hgpbarrier import f2core
from hgpbarrier.f2core import BitMatrix, BitVec, mat_vec, rank
from hgpbarrier.hgp import build_hgp, index_to_block
from hgpbarrier.logicals import (
    CanonicalOp,
    PauliClass,
    PauliVec,
    canonical_x_basis,
    canonical_z_basis,
    classify,
    compose_canonical,
    elementary_leg,
    enumerate_x_logicals,
    enumerate_z_logicals,
)


def toric():
    c = ring_repetition(3)
    return build_hgp(c, c)


def surface():
    c = open_repetition(3)
    return build_hgp(c, c)


def random_code(rng, max_r=3, max_n=4):
    r = rng.randrange(1, max_r + 1)
    n = rng.randrange(1, max_n + 1)
    return ClassicalCode(BitMatrix(r, n, tuple(rng.randrange(1 << n) for _ in range(r))))


def bitvec():
    return st.integers(1, 8).flatmap(
        lambda n: st.integers(0, (1 << n) - 1).map(lambda bits: BitVec(n, bits))
    )


class TestPauliKinds:
    @given(bitvec())
    def test_of_kind_and_part_round_trip(self, v):
        z, x = PauliVec.of_kind("z", v), PauliVec.of_kind("x", v)
        assert z == PauliVec.z_type(v) and x == PauliVec.x_type(v)
        assert z.part("z") == v and z.part("x") == BitVec(v.n)
        assert x.part("x") == v and x.part("z") == BitVec(v.n)

    def test_unknown_kind_rejected(self):
        v = BitVec.from01("101")
        with pytest.raises(DimensionMismatch):
            PauliVec.of_kind("y", v)
        with pytest.raises(DimensionMismatch):
            PauliVec.identity(3).part("Z")


class TestBases:
    def test_toric_has_two_z_ops(self):
        ops = canonical_z_basis(toric())
        assert len(ops) == 2
        assert all(op.coefficient() for op in ops)  # NotElementary unless one coefficient

    def test_toric_vv_op_is_single_column(self):
        code = toric()
        op = canonical_z_basis(code)[0]
        cols = set()
        for q in op.realized.support():
            block, _, j = index_to_block(code, q)
            assert block == "VV"
            cols.add(j)
        assert len(cols) == 1

    def test_surface_has_one_z_op(self):
        ops = canonical_z_basis(surface())
        assert len(ops) == 1
        assert ops[0].realized.support()  # nonzero
        assert ops[0].kappa.rows == 0

    def test_no_logicals(self):
        c = ClassicalCode(BitMatrix.identity(2))
        with pytest.raises(NoLogicals):
            canonical_z_basis(build_hgp(c, c))
        with pytest.raises(NoLogicals):
            canonical_x_basis(build_hgp(c, c))

    def test_x_basis_counts_mirror_z(self):
        for code in (toric(), surface()):
            assert len(canonical_x_basis(code)) == len(canonical_z_basis(code))

    def test_all_ops_commute_with_opposite_checks(self):
        for code in (toric(), surface()):
            for op in canonical_z_basis(code):
                assert mat_vec(code.hx, op.realized.z).bits == 0
            for op in canonical_x_basis(code):
                assert mat_vec(code.hz, op.realized.x).bits == 0

    @pytest.mark.parametrize("basis", [canonical_z_basis, canonical_x_basis])
    def test_each_call_returns_a_new_list(self, basis):
        # the operators are composed once per code and kept; a caller that
        # edits the list it got changes no later result
        code = toric()
        first = basis(code)
        want = list(first)
        second = basis(code)
        assert second is not first and second == want
        first.clear()
        second.append(want[0])
        assert basis(code) == want

    def test_completeness_of_z_basis(self):
        # canonical ops plus the Z stabilizer rows must span ker(HX)
        code = toric()
        ops = canonical_z_basis(code)
        stacked = BitMatrix(
            code.hz.rows + len(ops),
            code.n_qubits,
            code.hz.row_bits + tuple(op.realized.z.bits for op in ops),
        )
        assert rank(stacked) == code.n_qubits - rank(code.hx)


class TestCompose:
    def test_all_zero_coefficients_give_identity(self):
        code = toric()
        op = compose_canonical(code, BitMatrix.zeros(1, 1), BitMatrix.zeros(1, 1))
        assert op.realized.is_identity()
        assert classify(code, op.realized) is PauliClass.IDENTITY

    def test_all_ones_on_toric_is_weight_six(self):
        code = toric()
        op = compose_canonical(
            code, BitMatrix.from_rows(["1"]), BitMatrix.from_rows(["1"])
        )
        assert op.realized.weight() == 6

    def test_shape_mismatch(self):
        code = toric()
        with pytest.raises(ShapeMismatch):
            compose_canonical(code, BitMatrix.zeros(2, 1), BitMatrix.zeros(1, 1))
        with pytest.raises(ShapeMismatch):
            compose_canonical(code, BitMatrix.zeros(1, 1), BitMatrix.zeros(1, 2))
        with pytest.raises(ShapeMismatch):
            lam, kappa = BitMatrix.zeros(3, 3), BitMatrix.zeros(1, 1)
            elementary_leg(code, CanonicalOp("x", lam, kappa, PauliVec.identity(code.n_qubits)))

    def test_nonzero_compositions_are_nontrivial_logicals(self):
        rng = random.Random(23)
        seen = 0
        while seen < 12:
            code = build_hgp(random_code(rng), random_code(rng))
            try:
                zops = canonical_z_basis(code)
                xops = canonical_x_basis(code)
            except NoLogicals:
                continue
            seen += 1
            for op in zops:
                assert classify(code, op.realized) is PauliClass.NONTRIVIAL_LOGICAL
            for op in xops:
                assert classify(code, op.realized) is PauliClass.NONTRIVIAL_LOGICAL


def parent_codes(max_r=3, max_n=4):
    return st.tuples(st.integers(1, max_r), st.integers(1, max_n)).flatmap(
        lambda rn: st.lists(
            st.integers(0, (1 << rn[1]) - 1), min_size=rn[0], max_size=rn[0]
        ).map(lambda rows: ClassicalCode(BitMatrix(rn[0], rn[1], tuple(rows))))
    )


class TestElementaryLeg:
    @settings(max_examples=60, deadline=None)
    @given(parent_codes(), parent_codes())
    def test_placed_codeword_is_the_operator(self, h1, h2):
        code = build_hgp(h1, h2)
        for kind, basis in (("z", canonical_z_basis), ("x", canonical_x_basis)):
            try:
                ops = basis(code)
            except NoLogicals:
                continue
            for op in ops:
                assert op.kind == kind
                parent, word, placement = elementary_leg(code, op)
                assert mat_vec(parent, word).bits == 0
                realized = op.realized.z if kind == "z" else op.realized.x
                assert placement(word) == realized

    def test_kinds_follow_the_basis(self):
        code = toric()
        assert {op.kind for op in canonical_z_basis(code)} == {"z"}
        assert {op.kind for op in canonical_x_basis(code)} == {"x"}
        assert canonical_x_basis(code)[0].realized.z.bits == 0

    def test_composite_operator_has_no_single_coefficient(self):
        code = toric()
        op = compose_canonical(code, BitMatrix.from_rows(["1"]), BitMatrix.from_rows(["1"]))
        assert isinstance(op, CanonicalOp)
        with pytest.raises(NotElementary):
            op.coefficient()
        with pytest.raises(NotElementary):
            elementary_leg(code, op)

    def test_operator_of_another_code_raises_shape_mismatch(self):
        # toric operators carry 1x1 lam and kappa; tiny_2 has no check-check
        # logicals, so every kappa of it is 0x0
        tiny = build_hgp(open_repetition(2), open_repetition(2))
        for op in canonical_z_basis(toric()) + canonical_x_basis(toric()):
            with pytest.raises(ShapeMismatch):
                elementary_leg(tiny, op)
            with pytest.raises(ShapeMismatch):
                sweep_path_for_canonical(tiny, op)
            if op.kind == "z":
                with pytest.raises(ShapeMismatch):
                    find_activating_codeword(tiny, op)


class TestClassify:
    def test_identity(self):
        code = toric()
        assert classify(code, PauliVec.identity(18)) is PauliClass.IDENTITY

    def test_check_rows_are_stabilizers(self):
        code = toric()
        z = PauliVec.z_type(code.hz.row(0))
        x = PauliVec.x_type(code.hx.row(4))
        assert classify(code, z) is PauliClass.STABILIZER
        assert classify(code, x) is PauliClass.STABILIZER

    def test_canonical_string_is_logical(self):
        code = toric()
        op = canonical_z_basis(code)[0]
        assert classify(code, op.realized) is PauliClass.NONTRIVIAL_LOGICAL

    def test_single_x_flip_anticommutes(self):
        code = toric()
        p = PauliVec.x_type(BitVec.unit(18, 0))
        assert classify(code, p) is PauliClass.NON_COMMUTING

    def test_dimension_checked(self):
        with pytest.raises(DimensionMismatch):
            classify(toric(), PauliVec.identity(5))

    def test_product_of_logical_and_stabilizer_stays_logical(self):
        code = toric()
        op = canonical_z_basis(code)[0].realized
        s = PauliVec.z_type(code.hz.row(2))
        assert classify(code, op * s) is PauliClass.NONTRIVIAL_LOGICAL

    def test_wide_code_builds_no_split_tables(self, monkeypatch):
        # a quotient's per-byte split tables take about 4 n^2 bytes (190 MB
        # at n = 6 401); a membership test needs none of them, so classify
        # a stabilizer of a 6 401-qubit product with their build patched to fail
        def no_tables(self):
            raise AssertionError("split tables built for a membership test")

        monkeypatch.setattr(f2core.Quotient, "_words", property(no_tables))
        one_check = ClassicalCode(BitMatrix(1, 80, ((1 << 80) - 1,)))
        code = build_hgp(one_check, one_check)
        tracemalloc.start()
        try:
            assert classify(code, PauliVec.z_type(code.hz.row(0))) is PauliClass.STABILIZER
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


class TestEnumeration:
    def test_toric_z_count(self):
        # ker(HX) has 2^10 elements, rowspace(HZ) accounts for 2^8 of them
        logicals = list(enumerate_z_logicals(toric()))
        assert len(logicals) == (1 << 10) - (1 << 8)

    def test_surface_counts(self):
        assert len(list(enumerate_z_logicals(surface()))) == (1 << 7) - (1 << 6)
        assert len(list(enumerate_x_logicals(surface()))) == (1 << 7) - (1 << 6)

    def test_canonical_strings_are_enumerated(self):
        code = toric()
        zs = {p.z.bits for p in enumerate_z_logicals(code)}
        for op in canonical_z_basis(code):
            assert op.realized.z.bits in zs

    def test_surface_includes_weight_three_string(self):
        weights = sorted(p.weight() for p in enumerate_z_logicals(surface()))
        assert weights[0] == 3

    def test_enumeration_is_deterministic(self):
        a = [p.z.bits for p in enumerate_z_logicals(toric())]
        b = [p.z.bits for p in enumerate_z_logicals(toric())]
        assert a == b

    def test_everything_enumerated_is_logical(self):
        code = surface()
        for p in enumerate_z_logicals(code):
            assert classify(code, p) is PauliClass.NONTRIVIAL_LOGICAL

    def test_cap(self):
        with pytest.raises(CapExceeded):
            list(enumerate_z_logicals(toric(), cap=4))

    def test_trivial_code_enumerates_nothing(self):
        c = ClassicalCode(BitMatrix.identity(2))
        code = build_hgp(c, c)
        assert list(enumerate_z_logicals(code)) == []
