"""Tests for column collapse, path deformation, and activating codewords."""

import random
from functools import reduce
from itertools import groupby
from operator import or_

import pytest

import oracles
from hgpbarrier import deform
from hgpbarrier.barrier import (
    PathRecord,
    classical_barrier,
    energy_quantum,
    quantum_barrier,
    sweep_path_for_canonical,
    validate_path,
)
from hgpbarrier.codes import ClassicalCode, open_repetition, ring_repetition
from hgpbarrier.deform import (
    DeformSpec,
    _collapse_codeword,
    deform_path,
    deform_pauli,
    find_activating_codeword,
    weight_reduction_gap,
)
from hgpbarrier.errors import DimensionMismatch, NotACodeword, TrivialOperator
from hgpbarrier.f2core import BitMatrix, BitVec, mat_vec, tensor_vec
from hgpbarrier.hgp import build_hgp, index_to_block
from hgpbarrier.logicals import (
    PauliClass,
    PauliVec,
    canonical_x_basis,
    canonical_z_basis,
    classify,
    compose_canonical,
)
from hgpbarrier.verify import _PARENTS


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
    return DeformSpec(l_c, alpha, "vv")


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
        grid = tensor_vec(v, BitVec.from01("110"))
        z1 = BitVec(grid.n + 4, grid.bits)  # the check-check block is empty
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
        spec = DeformSpec(l_c, 0, "vv")
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


def random_parent(rng):
    """A random check matrix of 2 to 4 nonzero rows over 3 or 4 bits, each
    bit read by some row: an unread bit is a codeword of energy 0."""
    while True:
        n = rng.choice((3, 4))
        rows = tuple(rng.randrange(1, 1 << n) for _ in range(rng.choice((2, 3, 4))))
        if reduce(or_, rows) == (1 << n) - 1:
            return ClassicalCode(BitMatrix(len(rows), n, rows))


def random_products(seed, count):
    """``count`` seeded products of two ``random_parent``s that have logical
    qubits, in generation order."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        code = build_hgp(random_parent(rng), random_parent(rng))
        if code.k > 0:
            out.append(code)
    return out


def collapse_instances():
    """The registry products, rect_4_3 included, then seeded random ones."""
    registry = [(name, build_hgp(*pair)) for name, pair in _PARENTS.items()]
    return registry + [(f"random_{i}", c) for i, c in enumerate(random_products(5, 30))]


@pytest.mark.parametrize("name, code", collapse_instances())
def test_witness_collapses_onto_a_parent_walk(name, code):
    # the paper's lower bound on the engine's own optimal walk: collapsing the
    # z witness along its endpoint's collapse codeword gives a valid walk to a
    # nontrivial logical on one grid line, that is a walk in the parent's
    # code, so its peak lies between the parent's barrier and the witness's
    witness = quantum_barrier(code, "z").witness
    spec = _collapse_codeword(code, witness.states[-1])
    deformed = deform_path(code, witness, spec)
    assert validate_path(deformed, lambda p: energy_quantum(code, p))
    end = deformed.states[-1]
    assert classify(code, end) is PauliClass.NONTRIVIAL_LOGICAL
    grid, line = ("VV", 2) if spec.block == "vv" else ("CC", 1)
    assert {(index_to_block(code, q)[0], index_to_block(code, q)[line]) for q in end.support()} == {
        (grid, spec.alpha)
    }
    parent = code.h1 if spec.block == "vv" else ClassicalCode(code.h2.h.transpose())
    assert classical_barrier(parent).value <= deformed.max_energy <= witness.max_energy


def test_collapse_instances_reach_both_blocks():
    blocks = {
        _collapse_codeword(code, quantum_barrier(code, "z").witness.states[-1]).block
        for _, code in collapse_instances()
    }
    assert blocks == {"vv", "cc"}


def test_collapse_tries_each_basis_vector_once(monkeypatch):
    # the collapsed line is linear in the codeword, so a block whose basis
    # vectors all collapse p to the identity is left after one try each:
    # ker H2 has dimension 14 here, and listing its codewords would try
    # 16 383 before the check-check block
    h2 = ClassicalCode(BitMatrix(2, 15, ((1 << 15) - 1,) * 2))
    code = build_hgp(ring_repetition(3), h2)
    (op,) = [op for op in canonical_z_basis(code) if not any(op.lam.row_bits)]
    calls = []
    deform_checked = deform._deform_checked

    def counted(*args):
        calls.append(args)
        return deform_checked(*args)

    monkeypatch.setattr(deform, "_deform_checked", counted)
    assert _collapse_codeword(code, op.realized).block == "cc"
    assert len(calls) == 14 + 1


@pytest.mark.parametrize("block", ("vv", "cc"))
def test_a_walk_checks_its_spec_once(monkeypatch, block):
    # the spec is checked at the door, not once per state of the walk
    c = ring_repetition(4)
    code = build_hgp(c, c)
    walk = quantum_barrier(code, "z").witness
    assert len(walk.states) == 5
    spec = DeformSpec(BitVec(4, 0b1111), 0, block)  # the ring's checks sum to zero
    calls = []
    real = deform._check_spec
    monkeypatch.setattr(deform, "_check_spec", lambda *a: calls.append(a) or real(*a))
    deformed = deform_path(code, walk, spec)
    assert len(calls) == 1
    assert deformed.states == tuple(k for k, _ in groupby(deform_pauli(code, s, spec) for s in walk.states))


def coefficient_rule_operators(code, rng):
    """Every canonical Z operator of the code, then 20 seeded composites."""
    ops = canonical_z_basis(code)
    lam, kappa = ops[0].lam, ops[0].kappa
    for _ in range(20):
        lam_rows = tuple(rng.randrange(1 << lam.cols) for _ in range(lam.rows))
        kappa_rows = tuple(rng.randrange(1 << kappa.cols) for _ in range(kappa.rows))
        ops.append(compose_canonical(
            code, BitMatrix(lam.rows, lam.cols, lam_rows), BitMatrix(kappa.rows, kappa.cols, kappa_rows)
        ))
    return ops


@pytest.mark.parametrize("name, code", collapse_instances())
def test_activation_matches_the_coefficient_rule(name, code):
    # find_activating_codeword collapses the composed Pauli; the rule it
    # replaced read the choice off the coefficients alone, and both must
    # give the same spec, or both find none
    h1, h2 = oracles.np_from_bitmatrix(code.h1.h), oracles.np_from_bitmatrix(code.h2.h)
    for op in coefficient_rule_operators(code, random.Random(name)):
        expected = oracles.coefficient_collapse_rule(
            h1, h2, oracles.np_from_bitmatrix(op.lam), oracles.np_from_bitmatrix(op.kappa)
        )
        if expected is None:
            with pytest.raises(TrivialOperator, match="all coefficients are zero"):
                find_activating_codeword(code, op)
            continue
        spec = find_activating_codeword(code, op)
        block, l_c, alpha = expected
        assert (spec.block, oracles.np_from_bitvec(spec.l_c).tolist(), spec.alpha) == (
            block, l_c.tolist(), alpha
        )
