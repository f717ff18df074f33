"""Every push of the minimax engine is final.

Peaks popped from the frontier never fall, so the first time a state is
reached fixes its value: no state is queued twice and no popped entry is
stale. ``barrier._flood`` relies on this to assign each state its layer
once, and ``barrier._nearest`` to test a neighbour only for being unseen.
Each call the package makes to either is replayed through
``oracles.heap_syndrome_search``, which counts stale pops and repeat pushes
independently of the package engines.
"""

import pytest
from hypothesis import assume, given, settings

import oracles
from hgpbarrier import barrier
from hgpbarrier.barrier import classical_barrier, classical_table, quantum_barrier, sector_table
from hgpbarrier.errors import NoLogicals
from hgpbarrier.hgp import build_hgp
from hgpbarrier.verify import quantum_instances
from test_engine import _parents, _recorded_engine_calls, heap_replay
from test_quotient import _parent


def _check_push_once(calls, n_calls):
    assert len(calls) == n_calls
    for name, args, _ in calls:
        counts = {}
        heap_replay(name, args, counts=counts)
        assert counts == {"stale_pops": 0, "repeat_pushes": 0}


@pytest.mark.parametrize("name", sorted(quantum_instances()))
def test_registry_tables_push_each_state_once(name):
    code = quantum_instances()[name]
    with _recorded_engine_calls() as calls:
        for sector in ("z", "x"):
            sector_table(code, sector)
        for parent in _parents(code):
            barrier._table.cache_clear()  # parents may repeat
            classical_table(parent)
    _check_push_once(calls, 6)


@pytest.mark.parametrize("name", ("tiny_2", "ring_2", "rect_2_3", "rect_3_2"))
def test_pauli_tables_push_each_state_once(name):
    with _recorded_engine_calls() as calls:
        barrier.pauli_table(quantum_instances()[name])
    _check_push_once(calls, 1)


@pytest.mark.parametrize("name", sorted(quantum_instances()))
def test_target_searches_push_each_state_once(name):
    code = quantum_instances()[name]
    with _recorded_engine_calls() as calls:
        quantum_barrier(code, "z")
        quantum_barrier(code, "x")
        n_calls = 2
        for parent in _parents(code):
            try:
                classical_barrier(parent)
            except NoLogicals:
                continue
            n_calls += 1
    _check_push_once(calls, n_calls)


@settings(max_examples=40, deadline=None)
@given(_parent(), _parent())
def test_random_products_push_each_state_once(h1, h2):
    code = build_hgp(h1, h2)
    assume(code.n_qubits <= 12)
    with _recorded_engine_calls() as calls:
        n_calls = 0
        for sector in ("z", "x"):
            barrier._table.cache_clear()  # the two sectors may share a table
            sector_table(code, sector)
            n_calls += 1
        if code.k:
            quantum_barrier(code, "z")
            quantum_barrier(code, "x")
            n_calls += 2
    _check_push_once(calls, n_calls)


def test_oracle_counts_a_repeat_push_and_its_stale_pop():
    # the counters themselves: moves[1] and moves[2] flip bit 1 with different
    # syndrome changes, so energy is no function of the state, and state 1,
    # first pushed at peak 2 from 0, is pushed again at peak 1 from 3
    counts = {}
    oracles.heap_syndrome_search(2, (1, 2, 2), (0b11, 0b1, 0b11), 2, None, counts=counts)
    assert counts == {"stale_pops": 1, "repeat_pushes": 1}
