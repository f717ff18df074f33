"""Tests for column collapse, path deformation, and activating codewords."""

import random

import pytest

import oracles
from hgpbarrier.barrier import (
    PathRecord,
    energy_quantum,
    sweep_path_for_canonical,
    validate_path,
)
from hgpbarrier.codes import ClassicalCode, open_repetition, ring_repetition
from hgpbarrier.deform import (
    DeformSpec,
    deform_path,
    deform_pauli,
    deformation_trace,
    find_activating_codeword,
    weight_reduction_gap,
)
from hgpbarrier.errors import DimensionMismatch, NotACodeword, TrivialOperator
from hgpbarrier.f2core import BitMatrix, BitVec, mat_vec, tensor_vec, vec_concat
from hgpbarrier.hgp import build_hgp, index_to_block
from hgpbarrier.logicals import (
    PauliClass,
    PauliVec,
    canonical_x_basis,
    canonical_z_basis,
    classify,
    compose_canonical,
)


def toric():
    c = ring_repetition(3)
    return build_hgp(c, c)


def surface():
    c = open_repetition(3)
    return build_hgp(c, c)


class TestColumnIndexSet:
    """A collapse set is the codeword's support, ``frozenset(l_c.support())``."""

    def test_documented_example(self):
        # the worked example picks "columns 1, 2, and 4" counting from 1
        assert frozenset(BitVec.from01("110100").support()) == {0, 1, 3}

    def test_zero(self):
        assert frozenset(BitVec(4).support()) == frozenset()

    def test_all_ones(self):
        assert frozenset(BitVec.from01("111").support()) == {0, 1, 2}


class TestCollapseColumns:
    """Collapsing Z1's columns along L_c is the product ``mat_vec(z1, l_c)``."""

    def test_zero_matrix(self):
        assert mat_vec(BitMatrix.zeros(3, 4), BitVec.from01("1010")).bits == 0

    def test_single_selected_column_passes_through(self):
        z1 = BitMatrix.from_rows(["0100", "0100", "0000"])
        assert mat_vec(z1, BitVec.from01("0100")).to01() == "110"

    def test_pair_of_columns_xors(self):
        rng = random.Random(3)
        rows = tuple(rng.randrange(16) for _ in range(3))
        z1 = BitMatrix(3, 4, rows)
        got = mat_vec(z1, BitVec.from01("1010"))
        expect = z1.column(0) ^ z1.column(2)
        assert got == expect

    def test_dimension_checked(self):
        with pytest.raises(DimensionMismatch):
            mat_vec(BitMatrix.zeros(2, 3), BitVec(4))


def spec_all_ones(code, alpha):
    l_c = BitVec(code.n2, (1 << code.n2) - 1)
    return DeformSpec(l_c, alpha, frozenset(l_c.support()), "vv")


class TestDeformPauli:
    def test_identity_stays_identity(self):
        code = surface()
        spec = find_activating_codeword(code, canonical_z_basis(code)[0])
        assert deform_pauli(code, PauliVec.identity(13), spec).is_identity()

    def test_fixed_point_when_only_alpha_selected(self):
        # operator lives on column 2; collapsing {0,1,2} onto alpha=2 keeps it
        code = surface()
        op = canonical_z_basis(code)[0]
        spec = spec_all_ones(code, alpha=2)
        assert deform_pauli(code, op.realized, spec) == op.realized

    def test_equal_columns_cancel(self):
        code = surface()
        v = BitVec.from01("101")  # arbitrary column pattern
        z1 = vec_concat(tensor_vec(v, BitVec.from01("110")), BitVec(4))
        p = PauliVec.z_type(z1)
        spec = spec_all_ones(code, alpha=0)
        assert deform_pauli(code, p, spec).is_identity()

    def test_x_part_is_discarded(self):
        code = surface()
        spec = spec_all_ones(code, alpha=0)
        p = PauliVec(13, BitVec.unit(13, 5), BitVec(13))
        assert deform_pauli(code, p, spec).is_identity()

    def test_cc_block_dropped_by_vv_spec(self):
        code = surface()
        spec = spec_all_ones(code, alpha=1)
        p = PauliVec.z_type(BitVec.unit(13, 9 + 2))  # a check-check qubit
        assert deform_pauli(code, p, spec).is_identity()

    def test_bad_codeword_rejected(self):
        code = surface()
        l_c = BitVec.from01("100")
        spec = DeformSpec(l_c, 0, frozenset(l_c.support()), "vv")
        with pytest.raises(NotACodeword):
            deform_pauli(code, PauliVec.identity(13), spec)


def random_walk(code, rng, steps):
    n = code.n_qubits
    states = [PauliVec.identity(n)]
    for _ in range(steps):
        q = rng.randrange(n)
        kind = rng.choice(["x", "z", "y"])
        prev = states[-1]
        dx = prev.x.bits ^ ((1 << q) if kind in ("x", "y") else 0)
        dz = prev.z.bits ^ ((1 << q) if kind in ("z", "y") else 0)
        states.append(PauliVec(n, BitVec(n, dx), BitVec(n, dz)))
    energies = tuple(energy_quantum(code, p) for p in states)
    return PathRecord(tuple(states), energies, max(energies))


class TestDeformPath:
    def test_identity_path(self):
        code = surface()
        spec = spec_all_ones(code, alpha=0)
        path = PathRecord((PauliVec.identity(13),), (0,), 0)
        assert deform_path(code, path, spec).states == path.states

    def test_sweep_on_target_column_is_fixed(self):
        code = surface()
        op = canonical_z_basis(code)[0]
        sweep = sweep_path_for_canonical(code, op)
        spec = spec_all_ones(code, alpha=2)
        assert deform_path(code, sweep, spec).states == sweep.states

    def test_wandering_path_confined_and_dominated(self):
        code = surface()
        op = canonical_z_basis(code)[0]
        spec = find_activating_codeword(code, op)
        rng = random.Random(8)
        path = random_walk(code, rng, 12)
        deformed = deform_path(code, path, spec)
        for state in deformed.states:
            assert state.x.bits == 0
            for q in state.support():
                block, _, j = index_to_block(code, q)
                assert block == "VV" and j == spec.alpha
        trace = deformation_trace(code, path, spec)
        for row in trace:
            assert row["deformed_energy"] <= row["original_energy"]
        assert deformed.max_energy <= path.max_energy
        assert validate_path(deformed, lambda p: energy_quantum(code, p))

    def test_deformed_paths_stay_single_step(self):
        code = toric()
        spec = find_activating_codeword(code, canonical_z_basis(code)[0])
        rng = random.Random(21)
        for _ in range(5):
            path = random_walk(code, rng, 15)
            deformed = deform_path(code, path, spec)
            assert validate_path(deformed, lambda p: energy_quantum(code, p))


class TestWeightReductionGap:
    def test_all_zero(self):
        code = surface()
        lhs, rhs = weight_reduction_gap(
            code, BitMatrix.zeros(3, 3), BitMatrix.zeros(2, 2), BitVec.from01("111")
        )
        assert (lhs, rhs) == (0, 0)

    def test_single_selected_column(self):
        code = surface()
        z1 = BitMatrix.from_rows(["100", "100", "000"])
        lhs, rhs = weight_reduction_gap(
            code, z1, BitMatrix.zeros(2, 2), BitVec.from01("111")
        )
        assert lhs <= rhs

    def test_random_fuzz_never_violates(self):
        code = surface()
        rng = random.Random(12)
        l_c = BitVec.from01("111")
        for _ in range(100):
            z1 = BitMatrix(3, 3, tuple(rng.randrange(8) for _ in range(3)))
            z2 = BitMatrix(2, 2, tuple(rng.randrange(4) for _ in range(2)))
            lhs, rhs = weight_reduction_gap(code, z1, z2, l_c)
            assert lhs <= rhs

    def test_rejects_non_codeword(self):
        code = surface()
        with pytest.raises(NotACodeword):
            weight_reduction_gap(
                code, BitMatrix.zeros(3, 3), BitMatrix.zeros(2, 2), BitVec.from01("110")
            )

    def test_shape_checked(self):
        code = surface()
        with pytest.raises(DimensionMismatch):
            weight_reduction_gap(
                code, BitMatrix.zeros(2, 3), BitMatrix.zeros(2, 2), BitVec.from01("111")
            )


class TestFindActivatingCodeword:
    def test_elementary_surface_op(self):
        code = surface()
        op = canonical_z_basis(code)[0]
        spec = find_activating_codeword(code, op)
        assert spec.block == "vv"
        assert mat_vec(code.h2.h, spec.l_c).bits == 0
        assert spec.alpha in spec.col_set
        deformed = deform_pauli(code, op.realized, spec)
        assert not deformed.is_identity()
        assert classify(code, deformed) is PauliClass.NONTRIVIAL_LOGICAL

    def test_trivial_operator_rejected(self):
        code = surface()
        op = compose_canonical(code, BitMatrix.zeros(1, 1), BitMatrix.zeros(0, 0))
        with pytest.raises(TrivialOperator):
            find_activating_codeword(code, op)

    def test_composite_toric_op_uses_vv_part(self):
        code = toric()
        op = compose_canonical(
            code, BitMatrix.from_rows(["1"]), BitMatrix.from_rows(["1"])
        )
        spec = find_activating_codeword(code, op)
        assert spec.block == "vv"
        deformed = deform_pauli(code, op.realized, spec)
        assert classify(code, deformed) is PauliClass.NONTRIVIAL_LOGICAL

    def test_pure_cc_op_mirrors(self):
        code = toric()
        op = compose_canonical(
            code, BitMatrix.zeros(1, 1), BitMatrix.from_rows(["1"])
        )
        spec = find_activating_codeword(code, op)
        assert spec.block == "cc"
        assert mat_vec(code.h1.h.transpose(), spec.l_c).bits == 0
        deformed = deform_pauli(code, op.realized, spec)
        assert not deformed.is_identity()
        assert classify(code, deformed) is PauliClass.NONTRIVIAL_LOGICAL
        for q in deformed.support():
            block, a, _ = index_to_block(code, q)
            assert block == "CC" and a == spec.alpha

    def test_x_kind_operator_rejected(self):
        # an X operator's coefficients are not Z coefficients: on open_3 x
        # open_4 the X operator on qubits 8-11 would otherwise get a spec
        # that deforms it to the identity
        code = build_hgp(open_repetition(3), open_repetition(4))
        (op,) = canonical_x_basis(code)
        assert op.realized.support() == (8, 9, 10, 11)
        with pytest.raises(DimensionMismatch):
            find_activating_codeword(code, op)

    def test_deterministic(self):
        code = surface()
        op = canonical_z_basis(code)[0]
        a = find_activating_codeword(code, op)
        b = find_activating_codeword(code, op)
        assert a == b

    def test_activation_on_random_small_products(self):
        rng = random.Random(19)
        built = 0
        while built < 8:
            h1 = ClassicalCode(
                BitMatrix(2, 3, tuple(rng.randrange(1, 8) for _ in range(2)))
            )
            h2 = ClassicalCode(
                BitMatrix(2, 3, tuple(rng.randrange(1, 8) for _ in range(2)))
            )
            code = build_hgp(h1, h2)
            try:
                ops = canonical_z_basis(code)
            except Exception:
                continue
            vv_ops = [op for op in ops if any(op.lam.row_bits)]
            if not vv_ops:
                continue
            built += 1
            for op in vv_ops:
                spec = find_activating_codeword(code, op)
                deformed = deform_pauli(code, op.realized, spec)
                assert not deformed.is_identity()
                assert classify(code, deformed) is PauliClass.NONTRIVIAL_LOGICAL
