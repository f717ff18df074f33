"""Tests for energy functions, exact searches, and constructive paths."""

import gc
import random
import weakref

import pytest

import oracles
from hgpbarrier.codes import ClassicalCode, open_repetition, ring_repetition
from hgpbarrier.errors import (
    CapExceeded,
    DimensionMismatch,
    IndexOutOfRange,
    NoLogicals,
    NotAStabilizer,
    NotElementary,
    NoTarget,
    OutsideNormalizer,
    WitnessError,
)
from hgpbarrier import barrier as barrier_module
from hgpbarrier.f2core import BitMatrix, BitVec
from hgpbarrier.hgp import build_hgp, qubit_index
from hgpbarrier.logicals import (
    CanonicalOp,
    PauliClass,
    PauliVec,
    canonical_x_basis,
    canonical_z_basis,
    classify,
    enumerate_x_logicals,
    enumerate_z_logicals,
)
from hgpbarrier.verify import quantum_instances
from hgpbarrier.barrier import (
    BarrierResult,
    PathRecord,
    SyndromeEnergy,
    bottleneck_search,
    classical_barrier,
    classical_table,
    energy_classical,
    energy_quantum,
    normalizer_barrier,
    pauli_barrier_general,
    quantum_barrier,
    sector_table,
    stabilizer_path,
    sweep_path_for_canonical,
    validate_path,
)


def toric():
    c = ring_repetition(3)
    return build_hgp(c, c)


def surface():
    c = open_repetition(3)
    return build_hgp(c, c)


def tiny_hgp():
    # [[5,1]] product of two single-check length-2 chains
    c = open_repetition(2)
    return build_hgp(c, c)


class TestEnergies:
    def test_zero_vector(self):
        assert energy_classical(open_repetition(3), BitVec(3)) == 0

    def test_codeword(self):
        assert energy_classical(ring_repetition(4), BitVec.from01("1111")) == 0

    def test_middle_flip_breaks_two_checks(self):
        assert energy_classical(open_repetition(3), BitVec.from01("010")) == 2

    def test_identity_pauli(self):
        assert energy_quantum(toric(), PauliVec.identity(18)) == 0

    def test_single_z_touches_two_star_checks(self):
        code = toric()
        q = qubit_index(code, "VV", 0, 0)
        assert energy_quantum(code, PauliVec.z_type(BitVec.unit(18, q))) == 2

    def test_stabilizer_rows_cost_nothing(self):
        code = toric()
        assert energy_quantum(code, PauliVec.x_type(code.hx.row(3))) == 0
        assert energy_quantum(code, PauliVec.z_type(code.hz.row(5))) == 0

    def test_dimension_checked(self):
        with pytest.raises(DimensionMismatch):
            energy_classical(open_repetition(3), BitVec(4))
        with pytest.raises(DimensionMismatch):
            energy_quantum(toric(), PauliVec.identity(4))


class TestBottleneckSearch:
    def test_zero_target_is_free(self):
        c = ring_repetition(4)
        res = bottleneck_search(SyndromeEnergy(c.h.row_bits, 4), 4, BitVec(4))
        assert res.value == 0
        assert res.witness.steps() == 0
        assert res.witness.states == (BitVec(4),)

    def test_open_chain_full_word(self):
        c = open_repetition(4)
        res = bottleneck_search(
            SyndromeEnergy(c.h.row_bits, 4), 4, BitVec.from01("1111")
        )
        assert res.value == 1

    def test_ring_full_word(self):
        c = ring_repetition(4)
        res = bottleneck_search(
            SyndromeEnergy(c.h.row_bits, 4), 4, BitVec.from01("1111")
        )
        assert res.value == 2

    def test_matches_threshold_oracle_on_random_instances(self):
        rng = random.Random(17)
        for _ in range(30):
            r = rng.randrange(1, 5)
            n = rng.randrange(2, 8)
            rows = tuple(rng.randrange(1, 1 << n) for _ in range(r))
            target = rng.randrange(1, 1 << n)
            energy = SyndromeEnergy(rows, n)
            res = bottleneck_search(energy, n, BitVec(n, target))
            h = oracles.np_from_bitmatrix(BitMatrix(r, n, rows))
            ref = oracles.bottleneck_oracle(
                n,
                [1 << q for q in range(n)],
                lambda s: sum((rb & s).bit_count() & 1 for rb in rows),
                0,
                lambda s: s == target,
            )
            assert res.value == ref
            assert validate_path(res.witness, energy)

    def test_generic_energy_agrees_with_syndrome_engine(self):
        c = ring_repetition(5)
        syn = SyndromeEnergy(c.h.row_bits, 5)
        res = bottleneck_search(syn, 5, BitVec.from01("11111"))
        ref = oracles.bottleneck_oracle(
            5, [1 << q for q in range(5)], syn.bits_energy, 0, lambda s: s == 0b11111
        )
        assert res.value == ref == 2
        assert validate_path(res.witness, syn)
        assert res.witness.states[-1] == BitVec.from01("11111")

    def test_plain_callable_energy_rejected(self):
        syn = SyndromeEnergy(ring_repetition(3).h.row_bits, 3)
        with pytest.raises(TypeError):
            bottleneck_search(lambda v: syn(v), 3, BitVec.from01("111"))

    def test_callable_and_collection_targets(self):
        c = open_repetition(3)
        syn = SyndromeEnergy(c.h.row_bits, 3)
        by_pred = bottleneck_search(syn, 3, lambda v: syn(v) == 0 and v.bits != 0)
        by_set = bottleneck_search(syn, 3, [BitVec.from01("111")])
        assert by_pred.value == by_set.value == 1

    def test_cap(self):
        c = ring_repetition(5)
        with pytest.raises(CapExceeded):
            bottleneck_search(SyndromeEnergy(c.h.row_bits, 5), 5, BitVec(5), cap=16)

    def test_no_target(self):
        c = ring_repetition(3)
        with pytest.raises(NoTarget):
            bottleneck_search(SyndromeEnergy(c.h.row_bits, 3), 3, lambda v: False)

    @pytest.mark.parametrize(
        "target, error",
        [
            (BitVec(5, 3), DimensionMismatch),
            ([BitVec(4, 1), BitVec(3, 1)], DimensionMismatch),
            (1 << 10, IndexOutOfRange),
            (1 << 4, IndexOutOfRange),
            (-1, IndexOutOfRange),
            ([0b11, -1], IndexOutOfRange),
            ([], NoTarget),
            (set(), NoTarget),
            ((), NoTarget),
        ],
    )
    def test_bad_targets_fail_before_any_search(self, monkeypatch, target, error):
        syn = SyndromeEnergy(ring_repetition(4).h.row_bits, 4)

        def no_search(*args, **kwargs):
            raise AssertionError("search ran on a bad target")

        monkeypatch.setattr(barrier_module, "_syndrome_search", no_search)
        with pytest.raises(error):
            bottleneck_search(syn, 4, target)

    def test_deterministic_witness(self):
        c = ring_repetition(6)
        syn = SyndromeEnergy(c.h.row_bits, 6)
        a = bottleneck_search(syn, 6, BitVec(6, (1 << 6) - 1))
        b = bottleneck_search(syn, 6, BitVec(6, (1 << 6) - 1))
        assert a.witness.states == b.witness.states


class TestClassicalBarrier:
    def test_ring_barriers_are_two(self):
        for n in (3, 4, 5, 6):
            assert classical_barrier(ring_repetition(n)).value == 2

    def test_open_barriers_are_one(self):
        for n in (3, 4, 5, 6):
            assert classical_barrier(open_repetition(n)).value == 1

    def test_full_rank_code_has_no_barrier(self):
        with pytest.raises(NoLogicals):
            classical_barrier(ClassicalCode(BitMatrix.identity(3)))

    def test_witness_ends_on_codeword(self):
        c = ring_repetition(5)
        res = classical_barrier(c)
        end = res.witness.states[-1]
        assert end.bits != 0
        assert c.syndrome(end).bits == 0
        assert validate_path(res.witness, lambda v: energy_classical(c, v))

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(40)
        found = 0
        while found < 15:
            r = rng.randrange(1, 5)
            n = rng.randrange(2, 8)
            c = ClassicalCode(BitMatrix(r, n, tuple(rng.randrange(1 << n) for _ in range(r))))
            ref = oracles.classical_barrier_oracle(oracles.np_from_bitmatrix(c.h))
            if c.k == 0:
                assert ref == float("inf")
                continue
            found += 1
            assert classical_barrier(c).value == ref


class TestQuantumBarrier:
    def test_toric_barrier(self):
        res = quantum_barrier(toric())
        assert res.value == 2
        assert res.exact

    def test_surface_barrier(self):
        assert quantum_barrier(surface()).value == 1

    def test_sector_choice(self):
        code = surface()
        rz = quantum_barrier(code, sector="z")
        rx = quantum_barrier(code, sector="x")
        both = quantum_barrier(code, sector="both")
        assert both.value == min(rz.value, rx.value)

    def test_witness_is_nontrivial_logical(self):
        code = surface()
        res = quantum_barrier(code)
        assert classify(code, res.witness.states[-1]) is PauliClass.NONTRIVIAL_LOGICAL
        assert validate_path(res.witness, lambda p: energy_quantum(code, p))

    def test_no_logicals(self):
        c = ClassicalCode(BitMatrix.identity(2))
        with pytest.raises(NoLogicals):
            quantum_barrier(build_hgp(c, c))

    def test_bad_sector_name(self):
        with pytest.raises(DimensionMismatch):
            quantum_barrier(surface(), sector="y")

    def test_warm_call_builds_no_search_inputs(self):
        code = quantum_instances()["rect_2_3"]
        quantum_barrier(code, "z")
        caches = (barrier_module._quotient, barrier_module._energy)
        before = [cache.cache_info() for cache in caches]
        quantum_barrier(code, "z")
        # no quotient images, lifts or syndrome deltas rebuilt
        for cache, info in zip(caches, before):
            assert cache.cache_info().misses == info.misses
            assert cache.cache_info().hits == info.hits + 1


class TestPauliGeneral:
    def test_identity_target(self):
        code = tiny_hgp()
        res = pauli_barrier_general(code, PauliVec.identity(5))
        assert res.value == 0
        assert res.witness.steps() == 0

    def test_pure_z_targets_match_sector_search(self):
        code = tiny_hgp()
        table = sector_table(code, "z")
        for p in enumerate_z_logicals(code):
            full = pauli_barrier_general(code, p)
            assert full.value == table.value(p.z.bits)
            assert validate_path(full.witness, lambda q: energy_quantum(code, q))

    @pytest.mark.parametrize("name", ("tiny_2", "ring_2", "rect_2_3", "rect_3_2"))
    def test_every_pure_logical_matches_its_sector_with_a_valid_witness(self, name):
        code = quantum_instances()[name]
        energy = lambda q: energy_quantum(code, q)
        for kind, logicals in (("z", enumerate_z_logicals), ("x", enumerate_x_logicals)):
            table = sector_table(code, kind)
            for p in logicals(code):
                full = pauli_barrier_general(code, p)
                assert full.value == table.value(p.part(kind).bits)
                assert validate_path(full.witness, energy)
                assert full.witness.states[-1] == p

    def test_matches_exhaustive_bfs_oracle(self):
        code = tiny_hgp()
        hx = oracles.np_from_bitmatrix(code.hx)
        hz = oracles.np_from_bitmatrix(code.hz)
        rng = random.Random(9)
        zs = list(enumerate_z_logicals(code))
        for p in rng.sample(zs, 3):
            ref = oracles.exhaustive_pauli_barrier(hx, hz, p.x.bits, p.z.bits)
            assert pauli_barrier_general(code, p).value == ref

    def test_cap_guards_large_codes(self):
        # ring_4 x ring_4: 2^(32 + 2) quotient states (toric_3's 2^20 now fit)
        c = ring_repetition(4)
        with pytest.raises(CapExceeded):
            pauli_barrier_general(build_hgp(c, c), PauliVec.identity(32))

    def test_cap_counts_quotient_states_before_any_search(self, monkeypatch):
        code = tiny_hgp()
        states = 1 << (code.n_qubits + code.k)  # 2^(5 + 1)
        target = PauliVec.identity(5)
        assert pauli_barrier_general(code, target, cap=states).explored == states

        def no_search(*args, **kwargs):
            raise AssertionError("search ran despite the cap")

        # the cap is checked before the table cache and before any search
        monkeypatch.setattr(barrier_module, "_syndrome_search", no_search)
        with pytest.raises(CapExceeded):
            pauli_barrier_general(code, target, cap=states - 1)
        barrier_module._table.cache_clear()
        with pytest.raises(CapExceeded):
            pauli_barrier_general(code, target, cap=states - 1)

    def test_warm_call_builds_no_table_inputs(self):
        code = quantum_instances()["rect_2_3"]
        n = code.n_qubits
        pauli_barrier_general(code, PauliVec.identity(n))
        inputs = barrier_module._pauli_inputs.cache_info()
        tables = barrier_module._table.cache_info()
        target = PauliVec(n, BitVec(n, 0b101), BitVec(n, 0b11))
        pauli_barrier_general(code, target)
        # no rows or stabilizer rows rebuilt, no table built
        assert barrier_module._pauli_inputs.cache_info().misses == inputs.misses
        assert barrier_module._pauli_inputs.cache_info().hits > inputs.hits
        assert barrier_module._table.cache_info().misses == tables.misses

    def test_cached_inputs_keep_no_table_alive(self):
        code = tiny_hgp()
        table = barrier_module._pauli_table(code)
        ref = weakref.ref(table)
        del table
        barrier_module._table.cache_clear()
        gc.collect()
        assert ref() is None


class TestNormalizerBarrier:
    def test_requires_commuting_pauli(self):
        code = tiny_hgp()
        with pytest.raises(OutsideNormalizer):
            normalizer_barrier(code, PauliVec.x_type(BitVec.unit(5, 0)))

    def test_agrees_with_full_pauli_search_on_mixed_elements(self):
        code = tiny_hgp()
        rng = random.Random(31)
        zops = canonical_z_basis(code)
        xops = canonical_x_basis(code)
        for _ in range(6):
            x_bits = 0
            z_bits = 0
            for i in range(code.hx.rows):
                if rng.random() < 0.5:
                    x_bits ^= code.hx.row_bits[i]
            for i in range(code.hz.rows):
                if rng.random() < 0.5:
                    z_bits ^= code.hz.row_bits[i]
            if rng.random() < 0.5:
                x_bits ^= xops[0].realized.x.bits
            if rng.random() < 0.5:
                z_bits ^= zops[0].realized.z.bits
            p = PauliVec(5, BitVec(5, x_bits), BitVec(5, z_bits))
            ours = normalizer_barrier(code, p)
            ref = pauli_barrier_general(code, p)
            assert ours.value == ref.value
            assert validate_path(ours.witness, lambda q: energy_quantum(code, q))
            assert ours.witness.states[-1].x == p.x
            assert ours.witness.states[-1].z == p.z


class TestSweepPath:
    def test_toric_vv_string(self):
        code = toric()
        op = canonical_z_basis(code)[0]
        path = sweep_path_for_canonical(code, op)
        assert path.steps() == 3
        assert path.max_energy == 2
        assert path.states[-1].z == op.realized.z

    def test_surface_vv_string(self):
        code = surface()
        op = canonical_z_basis(code)[0]
        path = sweep_path_for_canonical(code, op)
        assert path.max_energy == 1

    def test_toric_cc_op_bounded_by_transpose_barrier(self):
        code = toric()
        cc_ops = [op for op in canonical_z_basis(code) if op.kappa.row_bits != (0,)]
        assert cc_ops
        path = sweep_path_for_canonical(code, cc_ops[0])
        assert path.max_energy <= classical_barrier(code.h1.transpose()).value

    def test_vv_ops_bounded_by_parent_barrier_on_repetition_families(self):
        for make in (ring_repetition, open_repetition):
            code = build_hgp(make(4), make(3))
            delta1 = classical_barrier(code.h1).value
            for op in canonical_z_basis(code):
                if not any(op.lam.row_bits):
                    continue
                path = sweep_path_for_canonical(code, op)
                assert path.max_energy <= delta1

    def test_x_type_ops_sweep_too(self):
        code = toric()
        for op in canonical_x_basis(code):
            path = sweep_path_for_canonical(code, op)
            assert path.states[-1].x == op.realized.x
            assert validate_path(path, lambda p: energy_quantum(code, p))

    def test_paths_are_valid_witnesses(self):
        code = toric()
        for op in canonical_z_basis(code):
            path = sweep_path_for_canonical(code, op)
            assert validate_path(path, lambda p: energy_quantum(code, p))

    def test_identity_rejected(self):
        code = toric()
        op = CanonicalOp("z", BitMatrix.zeros(1, 1), BitMatrix.zeros(1, 1), PauliVec.identity(18))
        with pytest.raises(NotElementary):
            sweep_path_for_canonical(code, op)

    def test_wrong_leg_endpoint_raises_typed_error(self, monkeypatch):
        code = toric()
        op = canonical_z_basis(code)[0]
        # the classical leg's search stops at once, at the zero vector
        stuck = lambda energy, stab, goal, cap, state: BarrierResult(
            0, PathRecord((state(0),), (0,), 0), state(0), 1
        )
        monkeypatch.setattr(barrier_module, "_target_search", stuck)
        with pytest.raises(WitnessError):
            sweep_path_for_canonical(code, op)

    def test_wrong_leg_energies_raise_typed_error(self, monkeypatch):
        code = toric()
        op = canonical_z_basis(code)[0]
        real = barrier_module._target_search

        def inflated(*args):
            res = real(*args)
            energies = tuple(e + 1 for e in res.witness.energies)
            leg = PathRecord(res.witness.states, energies, max(energies))
            return BarrierResult(res.value, leg, res.target, res.explored)

        monkeypatch.setattr(barrier_module, "_target_search", inflated)
        with pytest.raises(WitnessError):
            sweep_path_for_canonical(code, op)


class TestStabilizerPath:
    def test_single_check(self):
        code = toric()
        combo = BitVec.unit(18, 0)
        s = PauliVec.x_type(code.hx.row(0))
        path = stabilizer_path(code, s, combo)
        assert path.max_energy == 4
        assert path.max_energy <= code.w_c * code.w_q
        assert path.states[-1].x == s.x

    def test_empty_combo(self):
        code = toric()
        path = stabilizer_path(code, PauliVec.identity(18), BitVec(18))
        assert path.steps() == 0
        assert path.max_energy == 0

    def test_disjoint_pair(self):
        code = toric()
        r0, r4 = code.hx.row(0), code.hx.row(4)
        if (r0.bits & r4.bits) == 0:
            s = PauliVec.x_type(r0 ^ r4)
            combo = BitVec.from_support(18, [0, 4])
            assert stabilizer_path(code, s, combo).max_energy == 4

    def test_combo_must_reproduce_pauli(self):
        code = toric()
        with pytest.raises(NotAStabilizer):
            stabilizer_path(code, PauliVec.identity(18), BitVec.unit(18, 2))

    def test_path_is_valid_witness(self):
        code = surface()
        combo = BitVec.from_support(12, [0, 3, 7])
        x_bits = code.hx.row_bits[0] ^ code.hx.row_bits[3]
        z_bits = code.hz.row_bits[7 - code.hx.rows]
        s = PauliVec(13, BitVec(13, x_bits), BitVec(13, z_bits))
        path = stabilizer_path(code, s, combo)
        assert validate_path(path, lambda p: energy_quantum(code, p))
        assert path.max_energy <= code.w_c * code.w_q


class TestTables:
    def test_surface_table_matches_targeted_searches(self):
        code = surface()
        table = sector_table(code, "z")
        energy = SyndromeEnergy(code.hx.row_bits, 13)
        rng = random.Random(2)
        for _ in range(10):
            target = rng.randrange(1 << 13)
            res = bottleneck_search(energy, 13, BitVec(13, target))
            assert res.value == table.value(target)

    def test_table_paths_are_optimal_witnesses(self):
        code = surface()
        table = sector_table(code, "z")
        op = canonical_z_basis(code)[0]
        path = table.path(op.realized.z.bits)
        assert path.max_energy == table.value(op.realized.z.bits)
        assert validate_path(path, lambda v: energy_classical_like(code, v))

    def test_classical_table(self):
        c = ring_repetition(5)
        table = classical_table(c)
        assert min(
            table.value(w.bits) for w in c.iter_codewords() if w.bits
        ) == classical_barrier(c).value


def energy_classical_like(code, v):
    return SyndromeEnergy(code.hx.row_bits, code.n_qubits)(v)


class TestPathRecord:
    def test_max_energy_checked(self):
        with pytest.raises(DimensionMismatch):
            PathRecord((BitVec(2),), (0,), 5)

    def test_steps_json_classical(self):
        res = classical_barrier(open_repetition(3))
        steps = res.witness.steps_json()
        assert steps[0]["flipped_qubit"] is None
        assert all(s["pauli_change"] == "X" for s in steps[1:])
        assert [s["energy"] for s in steps] == list(res.witness.energies)

    def test_steps_json_quantum_labels(self):
        code = tiny_hgp()
        p = PauliVec(5, BitVec.unit(5, 1), BitVec.unit(5, 1))
        res = pauli_barrier_general(code, p)
        labels = {s["pauli_change"] for s in res.witness.steps_json()[1:]}
        assert labels <= {"X", "Z"}

    @pytest.mark.parametrize("kind", ["bitvec", "pauli"])
    def test_bad_steps_fail_export_and_validation(self, kind):
        if kind == "bitvec":
            state, energy = (lambda b: BitVec(3, b)), (lambda v: v.bits.bit_count())
        else:
            state, energy = (lambda b: PauliVec.z_type(BitVec(3, b))), PauliVec.weight
        good = PathRecord((state(0), state(0b001), state(0b011)), (0, 1, 2), 2)
        assert validate_path(good, energy)
        assert [s["flipped_qubit"] for s in good.steps_json()] == [None, 0, 1]
        repeated = PathRecord((state(0), state(0b001), state(0b001)), (0, 1, 1), 1)
        two_qubits = PathRecord((state(0), state(0b011)), (0, 2), 2)
        for bad in (repeated, two_qubits):
            with pytest.raises(WitnessError):
                bad.steps_json()
            assert not validate_path(bad, energy)
        wrong_energy = PathRecord(good.states, (0, 2, 2), 2)
        assert not validate_path(wrong_energy, energy)

    def test_steps_between_states_of_different_types_or_lengths_fail(self):
        one_x = PauliVec.x_type(BitVec(2, 1))
        for states in [
            (BitVec(2), BitVec(3, 1)),
            (PauliVec.identity(2), PauliVec.x_type(BitVec(3, 1))),
            (BitVec(2), one_x),
            (PauliVec.identity(2), BitVec(2, 1)),
        ]:
            record = PathRecord(states, (0, 0), 0)
            with pytest.raises(WitnessError):
                record.steps_json()
            assert not validate_path(record, lambda s: 0)

    def test_y_step_is_one_qubit(self):
        y = PauliVec(2, BitVec(2, 0b10), BitVec(2, 0b10))
        record = PathRecord((PauliVec.identity(2), y), (0, 0), 0)
        assert record.steps_json()[1]["flipped_qubit"] == 1
        assert record.steps_json()[1]["pauli_change"] == "Y"
        assert validate_path(record, lambda p: 0)


class TestTableStateRange:
    @pytest.mark.parametrize("which", ["classical", "sector", "pauli"])
    def test_states_outside_the_table_raise(self, which):
        table = {
            "classical": lambda: classical_table(ring_repetition(8)),
            "sector": lambda: sector_table(surface(), "z"),
            "pauli": lambda: barrier_module._pauli_table(tiny_hgp()),
        }[which]()
        n = table.n_dim
        for bits in (-1, 1 << n, (1 << n) + 1, 1 << (n + 8)):
            with pytest.raises(IndexOutOfRange):
                table.value(bits)
            with pytest.raises(IndexOutOfRange):
                table.path(bits)
        top = (1 << n) - 1  # the last state in range still answers
        assert table.path(top).max_energy == table.value(top)
