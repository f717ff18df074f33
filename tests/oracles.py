"""Independent reference implementations used to pin expected test values.

Everything here is deliberately written against numpy arrays (or plain
dict/BFS machinery) rather than the package's packed-integer types, so that
agreement between the two is meaningful.
"""

from __future__ import annotations

import heapq
from array import array
from itertools import combinations, product

import numpy as np


def np_from_bitmatrix(m) -> np.ndarray:
    return np.array([[(r >> j) & 1 for j in range(m.cols)] for r in m.row_bits], dtype=np.uint8)


def np_from_bitvec(v) -> np.ndarray:
    return np.array([(v.bits >> i) & 1 for i in range(v.n)], dtype=np.uint8)


def np_rref(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Row-reduce over GF(2); returns (rref, pivot column list)."""
    a = a.copy() % 2
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        hit = None
        for i in range(r, rows):
            if a[i, c]:
                hit = i
                break
        if hit is None:
            continue
        a[[r, hit]] = a[[hit, r]]
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] ^= a[r]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def np_rank(a: np.ndarray) -> int:
    return len(np_rref(a)[1])


def np_kernel(a: np.ndarray) -> list[np.ndarray]:
    """Right kernel basis vectors, one per free column, ascending."""
    rr, pivots = np_rref(a)
    cols = a.shape[1]
    pivset = set(pivots)
    out = []
    for c in range(cols):
        if c in pivset:
            continue
        v = np.zeros(cols, dtype=np.uint8)
        v[c] = 1
        for i, p in enumerate(pivots):
            if rr[i, c]:
                v[p] = 1
        out.append(v)
    return out


def np_in_rowspace(a: np.ndarray, v: np.ndarray) -> bool:
    return np_rank(a) == np_rank(np.vstack([a, v]))


def span(vectors: list[np.ndarray], length: int):
    """Yield every vector in the GF(2) span, including zero."""
    for r in range(len(vectors) + 1):
        for combo in combinations(range(len(vectors)), r):
            v = np.zeros(length, dtype=np.uint8)
            for i in combo:
                v ^= vectors[i]
            yield v


def min_distance(h: np.ndarray) -> float:
    """Minimum weight over nonzero kernel elements; inf when kernel is {0}."""
    ker = np_kernel(h)
    best = float("inf")
    for v in span(ker, h.shape[1]):
        w = int(v.sum())
        if 0 < w < best:
            best = w
    return best


def min_coset_weight(hz: np.ndarray, hx_rows: np.ndarray) -> float:
    """Min weight over kernel(hz) minus rowspace(hx_rows): Z-distance oracle."""
    ker = np_kernel(hz)
    best = float("inf")
    for v in span(ker, hz.shape[1]):
        if int(v.sum()) == 0 or int(v.sum()) >= best:
            continue
        if not np_in_rowspace(hx_rows, v):
            best = int(v.sum())
    return best


def bottleneck_oracle(n: int, moves: list[int], energy, start: int, is_target) -> float:
    """Exact minimax path cost by threshold sweep plus BFS.

    States are n-bit integers, edges are XORs with the given move masks, and
    the cost of a path is the max of ``energy(state)`` over every state on it
    (endpoints included). Returns inf when no target is reachable at any
    threshold.
    """
    levels = sorted({energy(s) for s in range(1 << n)} | {energy(start)})
    for t in levels:
        if energy(start) > t:
            continue
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for s in frontier:
                if is_target(s):
                    return t
                for m in moves:
                    s2 = s ^ m
                    if s2 not in seen and energy(s2) <= t:
                        seen.add(s2)
                        nxt.append(s2)
            frontier = nxt
        if is_target(start) and energy(start) <= t:
            return t
    return float("inf")


def classical_barrier_oracle(h: np.ndarray) -> float:
    """Minimax syndrome-weight barrier from 0 to the nearest nonzero codeword."""
    rows, cols = h.shape
    masks = [1 << j for j in range(cols)]

    def energy(state: int) -> int:
        e = 0
        for i in range(rows):
            rbits = 0
            for j in range(cols):
                if h[i, j]:
                    rbits |= 1 << j
            e += (rbits & state).bit_count() & 1
        return e

    def is_codeword(state: int) -> bool:
        return state != 0 and energy(state) == 0

    return bottleneck_oracle(cols, masks, energy, 0, is_codeword)


def exhaustive_pauli_barrier(hx: np.ndarray, hz: np.ndarray, x_bits: int, z_bits: int) -> float:
    """Barrier for the Pauli (x|z) via BFS over all 4^n Pauli states.

    Moves toggle the X part, the Z part, or both on one qubit. Energy is the
    number of violated stabilizer generators.
    """
    n = hx.shape[1]
    hx_masks = [sum((1 << j) for j in range(n) if hx[i, j]) for i in range(hx.shape[0])]
    hz_masks = [sum((1 << j) for j in range(n) if hz[i, j]) for i in range(hz.shape[0])]

    def energy(state: int) -> int:
        x = state & ((1 << n) - 1)
        z = state >> n
        e = sum((m & z).bit_count() & 1 for m in hx_masks)
        e += sum((m & x).bit_count() & 1 for m in hz_masks)
        return e

    target = x_bits | (z_bits << n)
    moves = []
    for q in range(n):
        moves.append(1 << q)
        moves.append(1 << (n + q))
        moves.append((1 << q) | (1 << (n + q)))
    return bottleneck_oracle(2 * n, moves, energy, 0, lambda s: s == target)


def minimax_values(rows: list[int], n: int, moves: list[int] | None = None) -> list[int]:
    """Exact minimax value from 0 of every n-bit state.

    A step XORs one of ``moves`` into the state (single-bit flips when
    omitted). The energy of a state is the number of packed ``rows`` with
    odd overlap. Values are the fixed point of
    v[s] = max(e[s], min(v[s], min_m v[s ^ m])) relaxed from v[0] = e[0] and
    infinity elsewhere, all states at once: after k rounds v holds the best
    peak over walks of at most k steps.
    """
    states = np.arange(1 << n, dtype=np.int64)
    energy = np.zeros(1 << n, dtype=np.int32)
    for r in rows:
        parity = np.zeros(1 << n, dtype=np.int64)
        for j in range(n):
            if (r >> j) & 1:
                parity ^= (states >> j) & 1
        energy += parity.astype(np.int32)
    value = np.full(1 << n, np.iinfo(np.int32).max, dtype=np.int32)
    value[0] = energy[0]
    while True:
        low = value.copy()
        if moves is None:
            for q in range(n):
                # value[s ^ 2^q] for every s: swap the halves of each 2^(q+1) block
                np.minimum(low, value.reshape(-1, 2, 1 << q)[:, ::-1, :].reshape(-1), out=low)
        else:
            for m in moves:
                np.minimum(low, value[states ^ m], out=low)
        new = np.maximum(energy, low)
        if np.array_equal(new, value):
            return value.tolist()
        value = new


def heap_syndrome_search(n_dim, moves, deltas, max_energy, target_pred, lift_moves=None):
    """The binary-heap minimax engine that ``barrier._syndrome_search``
    replaced, kept as the reference for its pop order.

    Frontier entries are (max energy, path length, state, syndrome); a state
    is pushed only when its peak strictly improves. Same arguments and
    return value as the package engine: (final_state, best, pred, lifts,
    explored), with the same table types.
    """
    n_states = 1 << n_dim
    best = bytearray(b"\xff" * n_states) if max_energy < 0xFF else array("H", [0xFFFF] * n_states)
    pred = bytearray(b"\xff" * n_states) if len(moves) < 0xFF else array("H", [0xFFFF] * n_states)
    lifts = None
    if lift_moves is not None:
        bits = max(lift_moves).bit_length()
        code = next((c for c in "BHILQ" if 8 * array(c).itemsize >= bits), None)
        lifts = array(code, bytes(array(code).itemsize * n_states)) if code else [0] * n_states
    best[0] = 0
    heap = [(0, 0, 0, 0)]
    explored = 0
    while heap:
        maxe, plen, state, syn = heapq.heappop(heap)
        if maxe != best[state]:
            continue
        explored += 1
        if target_pred is not None and target_pred(state, syn.bit_count()):
            return state, best, pred, lifts, explored
        for mi in range(len(moves)):
            ns = state ^ moves[mi]
            nsyn = syn ^ deltas[mi]
            nmax = max(maxe, nsyn.bit_count())
            if nmax < best[ns]:
                best[ns] = nmax
                pred[ns] = mi
                if lifts is not None:
                    lifts[ns] = lifts[state] ^ lift_moves[mi]
                heapq.heappush(heap, (nmax, plen + 1, ns, nsyn))
    if target_pred is not None:
        raise LookupError("no state satisfying the target predicate is reachable")
    return None, best, pred, lifts, explored
