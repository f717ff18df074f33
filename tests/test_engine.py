"""The bucket-queue minimax engine, pinned to the binary-heap engine it replaced.

Every call that the package makes to ``barrier._fill`` (exhaustive tables)
or ``barrier._nearest`` (target searches) is recorded and replayed through
``oracles.heap_syndrome_search``. A fill's ``best``, ``pred`` and ``lifts``
must be identical to the oracle's, table types included, and the oracle
must pop every state. A target search's end state, value, ``explored``
count and ``pred`` must be the oracle's; only ``pred``'s root entry, which
the package marks seen, may differ. So no value, witness or count moves.
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
from hgpbarrier.codes import ClassicalCode
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


ENGINES = ("_fill", "_nearest")


@contextmanager
def _recorded_engine_calls():
    """Record (engine name, args, result) of every engine call, tables built
    afresh."""
    calls = []
    real = {name: getattr(barrier, name) for name in ENGINES}

    def spy(name):
        def call(*args):
            result = real[name](*args)
            calls.append((name, args, result))
            return result
        return call

    for name in ENGINES:
        setattr(barrier, name, spy(name))
    barrier._table.cache_clear()
    try:
        yield calls
    finally:
        for name in ENGINES:
            setattr(barrier, name, real[name])
        barrier._table.cache_clear()


def heap_replay(name, args, **kwargs):
    """The oracle run of one recorded engine call: a fill exhausts every
    state, a target search stops at its predicate."""
    if name == "_fill":
        n_dim, moves, deltas, max_energy, lift_moves = args
        return oracles.heap_syndrome_search(n_dim, moves, deltas, max_energy, None, lift_moves, **kwargs)
    return oracles.heap_syndrome_search(*args, **kwargs)


@pytest.fixture
def engine_calls():
    with _recorded_engine_calls() as calls:
        yield calls


def _check_against_heap(calls, n_calls):
    assert len(calls) == n_calls
    for name, args, result in calls:
        ref_state, ref_best, ref_pred, ref_lifts, ref_explored = heap_replay(name, args)
        if name == "_fill":
            best, pred, lifts = result
            assert ref_explored == 1 << args[0]
            assert _same_table(best, ref_best)
            assert _same_table(pred, ref_pred)
            assert _same_table(lifts, ref_lifts)
        else:
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
    barrier._pauli_table(quantum_instances()[name])
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
    (_, args, _), = engine_calls
    energy = barrier._energy_table(*args[:4])
    assert energy.typecode == "H"
    assert list(energy) == [barrier.SyndromeEnergy(rows, 6).bits_energy(s) for s in range(64)]
    _check_against_heap(engine_calls, 1)
