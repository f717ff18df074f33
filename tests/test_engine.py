"""The minimax engines, pinned to the binary-heap engine they replaced.

Every call that the package makes to ``barrier._flood`` (exhaustive tables)
or ``barrier._nearest`` (target searches) is recorded and replayed through
``oracles.heap_syndrome_search``. A fill's ``best`` must be identical to
the oracle's, table type included, and the oracle must pop every state; the
``tree`` of the table built from it must give the oracle's ``pred`` as the
parent move of every state but the root and the oracle's ``lifts`` (0
without stabilizers) as every state's lift, derived on demand from the
fill's layer order. A target search's end state, value,
``explored`` count and ``pred`` must be the oracle's; only ``pred``'s root
entry, which the package marks seen, may differ. So no value, witness or
count moves.
"""

from contextlib import contextmanager

import pytest
from hypothesis import assume, given, settings

import oracles
from hgpbarrier import barrier
from hgpbarrier.barrier import (
    classical_barrier,
    classical_table,
    quantum_barrier,
    sector_table,
)
from hgpbarrier.codes import ClassicalCode, open_repetition, ring_repetition
from hgpbarrier.errors import NoLogicals
from hgpbarrier.f2core import BitMatrix
from hgpbarrier.hgp import build_hgp
from hgpbarrier.verify import quantum_instances
from test_quotient import _code, _parent


def _same_table(a, b):
    return (
        type(a) is type(b)
        and getattr(a, "typecode", None) == getattr(b, "typecode", None)
        and a == b
    )


ENGINES = ("_flood", "_nearest")


@contextmanager
def _recorded_engine_calls():
    """Record (engine name, args, result) of every engine call, tables built
    afresh. A fill's result is recorded as the MinimaxTable built from it."""
    calls = []
    real = {name: getattr(barrier, name) for name in (*ENGINES, "MinimaxTable")}

    def spy(name):
        def call(*args):
            result = real[name](*args)
            if name == "MinimaxTable":  # _table builds it from the fill just recorded
                calls[-1] = (*calls[-1][:2], result)
            else:
                calls.append((name, args, result))
            return result
        return call

    for name in real:
        setattr(barrier, name, spy(name))
    barrier._table.cache_clear()
    try:
        yield calls
    finally:
        for name in real:
            setattr(barrier, name, real[name])
        barrier._table.cache_clear()


def heap_replay(name, args, lift_moves=None, **kwargs):
    """The oracle run of one recorded engine call: a fill exhausts every
    state, carrying ``lift_moves``; a target search stops at its predicate."""
    if name == "_flood":
        return oracles.heap_syndrome_search(*args, None, lift_moves, **kwargs)
    return oracles.heap_syndrome_search(*args, **kwargs)


@pytest.fixture
def engine_calls():
    with _recorded_engine_calls() as calls:
        yield calls


def _check_against_heap(calls, n_calls):
    assert len(calls) == n_calls
    for name, args, result in calls:
        if name == "_flood":
            table = result
            ref_state, ref_best, ref_pred, ref_lifts, ref_explored = heap_replay(
                name, args, table.quotient.lift_moves
            )
            n_states = 1 << args[0]
            assert ref_explored == table.explored == n_states
            assert _same_table(table.best, ref_best)
            assert [table.tree[s][0] for s in range(1, n_states)] == list(ref_pred[1:])
            if ref_lifts is None:
                assert {table.tree[s][1] for s in range(n_states)} == {0}
            else:
                assert [table.tree[s][1] for s in range(n_states)] == list(ref_lifts)
        else:
            ref_state, ref_best, ref_pred, ref_lifts, ref_explored = heap_replay(name, args)
            state, value, pred, explored = result
            assert (state, value, explored) == (ref_state, ref_best[ref_state], ref_explored)
            assert _same_table(pred[1:], ref_pred[1:])


def _parents(code):
    return (code.h1, code.h2, code.h1.transpose(), code.h2.transpose())


@pytest.mark.parametrize("name", sorted(quantum_instances()))
def test_registry_tables_match_heap_engine(engine_calls, name):
    code = quantum_instances()[name]
    for sector in ("z", "x"):
        sector_table(code, sector)
    for parent in _parents(code):
        barrier._table.cache_clear()  # parents may repeat
        classical_table(parent)
    _check_against_heap(engine_calls, 6)


@pytest.mark.parametrize("name", ("tiny_2", "ring_2", "rect_2_3", "rect_3_2"))
def test_pauli_tables_match_heap_engine(engine_calls, name):
    barrier.pauli_table(quantum_instances()[name])
    _check_against_heap(engine_calls, 1)


@pytest.mark.parametrize("name", sorted(quantum_instances()))
def test_target_searches_match_heap_engine(engine_calls, name):
    code = quantum_instances()[name]
    quantum_barrier(code, "z")
    quantum_barrier(code, "x")
    n_calls = 2
    for parent in _parents(code):
        try:
            classical_barrier(parent)
        except NoLogicals:
            continue
        n_calls += 1
    _check_against_heap(engine_calls, n_calls)


def _check_product(calls, code):
    for sector in ("z", "x"):
        barrier._table.cache_clear()  # the two sectors may share a table
        sector_table(code, sector)
    n_calls = 2
    if code.k:
        quantum_barrier(code, "z")
        quantum_barrier(code, "x")
        n_calls += 2
    _check_against_heap(calls, n_calls)


def test_zero_image_and_parallel_moves_match_heap_engine(engine_calls):
    # weight-1 HZ rows make zero quotient moves, repeated columns parallel ones
    for h1, h2 in [
        (_code((0b011, 0b011, 0), 3), _code((0b01, 0b10), 2)),
        (_code((0b1, 0b1), 1), _code((0b101, 0), 3)),
    ]:
        engine_calls.clear()
        _check_product(engine_calls, build_hgp(h1, h2))


@settings(max_examples=40, deadline=None)
@given(_parent(), _parent())
def test_random_products_match_heap_engine(h1, h2):
    code = build_hgp(h1, h2)
    assume(code.n_qubits <= 12)
    with _recorded_engine_calls() as calls:
        _check_product(calls, code)


def test_energies_of_255_and_above_use_16_bit_tables(engine_calls):
    # 320 checks on 6 bits: peaks reach the hundreds, past a byte's range
    patterns = (0b000011, 0b000110, 0b001100, 0b011000, 0b110000, 0b100001, 0b111111, 0b010101)
    rows = tuple(patterns[i % len(patterns)] for i in range(320))
    c = ClassicalCode(BitMatrix(len(rows), 6, rows))
    table = classical_table(c)
    want = oracles.minimax_values(list(rows), 6)
    assert max(want) >= 255
    assert [table.value(s) for s in range(64)] == want
    assert table.best.typecode == "H"
    # bit i checked by 2^i weight-one rows: a state's energy is its value,
    # so each of the 512 states is a layer of its own, past a byte's range
    rows = tuple(1 << i for i in range(9) for _ in range(1 << i))
    table = classical_table(ClassicalCode(BitMatrix(len(rows), 9, rows)))
    assert max(table.order) == 511
    assert table.best.typecode == table.order.typecode == "H"
    assert [table.value(s) for s in range(512)] == oracles.minimax_values(list(rows), 9)
    _check_against_heap(engine_calls, 2)


def test_quotient_of_dimension_zero_matches_heap_engine(engine_calls):
    # stabilizers spanning F2^2: one quotient state, every flip a zero move
    table = barrier._table((0,), (0b01, 0b10), 2)
    assert table.quotient.dim == 0 and table.explored == 1
    assert [table.value(s) for s in range(4)] == [0, 0, 0, 0]
    assert table.path(0b11).states[-1].bits == 0b11
    _check_against_heap(engine_calls, 1)


def test_dim12_ring4_chain3_z_table_matches_heap_engine(engine_calls):
    code = build_hgp(ring_repetition(4), open_repetition(3))
    table = sector_table(code, "z")
    assert table.quotient.dim == 12
    _check_against_heap(engine_calls, 1)
