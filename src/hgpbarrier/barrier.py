"""Exact energy barriers via best-first minimax search.

The barrier of reaching a target configuration is the smallest possible value
of the maximum energy seen along any path from the all-zero state, where a
path changes one coordinate (one qubit) per step. Searches run over packed
integer states with a Dijkstra-style frontier popped in the order

    (max energy so far, path length, state value)

so results and witness paths are deterministic. Energies of the form
weight(M x) are small integers, so the frontier is a bucket queue (Dial's
algorithm): one bucket per peak level, split by path length, each layer
sorted by state when its turn comes. A state enters the queue only when its
peak strictly improves, so it sits in at most one entry per level, and its
first pop is final. Exhaustive tables read each neighbour's energy off a
per-state table spanned out from the syndromes of the moves; target
searches, which stop early, update a running syndrome instead (flipping
coordinate q XORs column q of M into it).

Sector tables search the quotient of F2^n by the stabilizer group S that
leaves the sector energy unchanged (HZ for the z-sector, HX for the
x-sector), 2^(n - rank S) entries instead of 2^n; full-Pauli tables take
F2^(2n) modulo both groups. Exact values of single states come back through
voltages: the search tree lifts each quotient state to one vector, and every
non-tree edge (u, q, v) along move mask m_q closes a cycle whose lift ends
at the stabilizer lift(u) ^ m_q ^ lift(v), reachable at max(best u, best v).
Voltages inserted in level order into an echelon basis tag each basis
vector with the level it becomes reachable, and then

    value(z) = max(best[[z]], highest tag used to reduce z ^ lift([z])).

This is the covering-space picture of voltage graphs (Gross & Tucker,
*Topological Graph Theory*, ch. 2).
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from operator import xor
from typing import Callable, Iterable, Sequence

from .codes import ClassicalCode
from .errors import (
    CapExceeded,
    DimensionMismatch,
    IndexOutOfRange,
    NoLogicals,
    NotAStabilizer,
    NoTarget,
    OutsideNormalizer,
    WitnessError,
)
from .f2core import BitMatrix, BitVec, linear_table, mat_vec, rref, weight
from .hgp import HgpCode
from .logicals import CanonicalOp, PauliVec, _is_z, elementary_leg

__all__ = [
    "DEFAULT_STATE_CAP",
    "DEFAULT_PAULI_CAP",
    "PathRecord",
    "BarrierResult",
    "SyndromeEnergy",
    "MinimaxTable",
    "energy_classical",
    "energy_quantum",
    "bottleneck_search",
    "classical_barrier",
    "quantum_barrier",
    "pauli_barrier_general",
    "normalizer_barrier",
    "sector_table",
    "classical_table",
    "sweep_path_for_canonical",
    "stabilizer_path",
    "validate_path",
]

DEFAULT_STATE_CAP = 1 << 24
DEFAULT_PAULI_CAP = 1 << 20  # 2^(n + k) full-Pauli quotient states


@dataclass(frozen=True)
class PathRecord:
    """A walk of states with per-state energies; steps touch one coordinate."""

    states: tuple
    energies: tuple[int, ...]
    max_energy: int

    def __post_init__(self):
        if len(self.states) != len(self.energies):
            raise DimensionMismatch("one energy per state required")
        expected = max(self.energies, default=0)
        if self.max_energy != expected:
            raise DimensionMismatch(f"max_energy {self.max_energy} != {expected}")

    def steps(self) -> int:
        return max(len(self.states) - 1, 0)

    def steps_json(self) -> list[dict]:
        """Step records for export: flipped qubit and Pauli change per move.
        Raises WitnessError on a step that does not flip exactly one qubit."""
        out = []
        for i, (state, e) in enumerate(zip(self.states, self.energies)):
            q, change = _flip(self.states[i - 1], state) if i else (None, None)
            out.append({"step": i, "flipped_qubit": q, "pauli_change": change, "energy": e})
        return out


def _flip(prev, state) -> tuple[int, str]:
    """(qubit, "X", "Z" or "Y") of a step between two BitVec or two PauliVec
    states of one length; a BitVec step is an X flip. Raises WitnessError
    unless both states have the same type and length and exactly one qubit
    changes."""
    if type(prev) is not type(state) or prev.n != state.n:
        raise WitnessError(f"step from {prev!r} to {state!r} changes state type or length")
    if isinstance(state, PauliVec):
        dx, dz = prev.x.bits ^ state.x.bits, prev.z.bits ^ state.z.bits
    else:
        dx, dz = prev.bits ^ state.bits, 0
    if (dx | dz).bit_count() != 1:
        raise WitnessError(f"step flips {(dx | dz).bit_count()} qubits, not one")
    q = (dx | dz).bit_length() - 1
    return q, {(1, 0): "X", (0, 1): "Z", (1, 1): "Y"}[(dx >> q) & 1, (dz >> q) & 1]


@dataclass(frozen=True)
class BarrierResult:
    value: int
    witness: PathRecord
    target: object
    explored: int
    exact: bool = True


class SyndromeEnergy:
    """Energy of a state as weight(M x)."""

    def __init__(self, rows: Sequence[int], n_dim: int):
        self.rows = tuple(rows)
        self.n_dim = n_dim

    def __call__(self, v: BitVec) -> int:
        return self.bits_energy(v.bits)

    def bits_energy(self, bits: int) -> int:
        e = 0
        for r in self.rows:
            e += (r & bits).bit_count() & 1
        return e

    @cached_property
    def columns(self) -> tuple[int, ...]:
        """Syndrome change of each unit flip: the check matrix's columns."""
        return BitMatrix(len(self.rows), self.n_dim, self.rows).transpose().row_bits


# one SyndromeEnergy per (rows, n_dim), so each keeps its columns across searches
_energy = lru_cache(maxsize=256)(SyndromeEnergy)


def energy_classical(c: ClassicalCode, x: BitVec) -> int:
    if x.n != c.n:
        raise DimensionMismatch(f"vector length {x.n} vs block length {c.n}")
    return weight(mat_vec(c.h, x))


def energy_quantum(code: HgpCode, p: PauliVec) -> int:
    if p.n != code.n_qubits:
        raise DimensionMismatch(f"Pauli on {p.n} qubits, code has {code.n_qubits}")
    return weight(mat_vec(code.hx, p.z)) + weight(mat_vec(code.hz, p.x))


def _unseen(n_states: int, top: int):
    """Per-state map for values up to ``top``, every entry unseen: a byte
    map of 0xFF when they fit, a 16-bit array of 0xFFFF otherwise."""
    return bytearray(b"\xff" * n_states) if top < 0xFF else array("H", [0xFFFF] * n_states)


def _lift_store(n_states: int, n_bits: int):
    """Zeroed per-state store for n_bits-wide lifts, in the narrowest array."""
    for code in "BHILQ":
        size = array(code).itemsize
        if 8 * size >= n_bits:
            return array(code, bytes(size * n_states))
    return [0] * n_states


def _energy_table(n_dim: int, moves: Sequence[int], deltas: Sequence[int], max_energy: int):
    """Syndrome weight of every n_dim-bit state, indexed by state.

    The syndrome is linear in the state, and every unit vector is a move (see
    ``_syndrome_search``), so the move's delta is that vector's syndrome. The
    table is then spanned out, one block of 2^lo states per value of the high
    bits, so no list of 2^n_dim ints exists.
    """
    syndrome = dict(zip(moves, deltas))
    unit = [syndrome[1 << i] for i in range(n_dim)]
    lo = n_dim // 2
    low_syns, high_syns = linear_table(unit[:lo]), linear_table(unit[lo:])
    table = bytearray() if max_energy < 0xFF else array("H")
    for high in high_syns:
        table.extend([(high ^ s).bit_count() for s in low_syns])
    return table


def _bucket_layers(buckets):
    """Pop order of the bucket queue: levels ascending, then path lengths
    ascending, each layer sorted by state. Yields (level, next path length,
    layer, list for pushes at this level); pushes at a higher level e go to
    buckets[e][next path length]."""
    for level, layers in enumerate(buckets):
        plen = 0
        while layers:
            if plen not in layers:
                plen = min(layers)
            layer = layers.pop(plen)
            layer.sort()
            plen += 1
            same = layers.setdefault(plen, [])
            yield level, plen, layer, same
            if not same:
                del layers[plen]


def _syndrome_search(
    n_dim: int,
    moves: Sequence[int],
    deltas: Sequence[int],
    max_energy: int,
    target_pred,
    lift_moves: Sequence[int] | None = None,
):
    """Core engine over the n_dim-bit states: move i XORs moves[i] into the
    state and deltas[i] into the syndrome, which must be linear in the
    state. Every unit vector 1 << i must be among the moves, as the quotient
    image of a free column's flip always is. target_pred(state, energy) or
    None to exhaust all states. With lift_moves, an exhaustive search also
    sets lifts[s] to the XOR of lift_moves along the search-tree path to
    each state s.

    A bucket queue (Dial's algorithm): energies are integers in
    [0, max_energy], so the frontier is one bucket per peak level, each
    mapping path length to a list of states, and pops come in the order
    (peak, path length, state). A state enters the queue only when its
    peak strictly improves, at its own level or above, so the first pop of
    a state is final and a popped state whose best is lower is stale.
    Exhaustive searches read neighbour energies off a per-state table
    (``_energy_table``), dropped on return; target searches stop early, so
    they carry each state's syndrome instead.

    Returns (final_state, best, pred, lifts, explored); final_state is None
    in exhaust mode, and lifts is None in target mode or without lift_moves.
    """
    best, pred = _unseen(1 << n_dim, max_energy), _unseen(1 << n_dim, len(moves))
    best[0] = 0
    buckets = [defaultdict(list) for _ in range(max_energy + 1)]
    indexed = tuple(enumerate(moves))
    explored = 0
    if target_pred is None:
        lifts = None
        if lift_moves is not None:
            lifts = _lift_store(1 << n_dim, max(lift_moves).bit_length())
        energy = _energy_table(n_dim, moves, deltas, max_energy)
        buckets[0][0].append(0)
        for level, plen, layer, same in _bucket_layers(buckets):
            for state in layer:
                if best[state] != level:
                    continue
                explored += 1
                if lifts is not None and state:  # the tree parent was popped first
                    mi = pred[state]
                    lifts[state] = lifts[state ^ moves[mi]] ^ lift_moves[mi]
                for mi, m in indexed:
                    ns = state ^ m
                    e = energy[ns]
                    if e <= level:
                        if level < best[ns]:
                            best[ns] = level
                            pred[ns] = mi
                            same.append(ns)
                    elif e < best[ns]:
                        best[ns] = e
                        pred[ns] = mi
                        buckets[e][plen].append(ns)
        return None, best, pred, lifts, explored
    buckets[0][0].append((0, 0))  # (state, syndrome)
    for level, plen, layer, same in _bucket_layers(buckets):
        for state, syn in layer:
            if best[state] != level:
                continue
            explored += 1
            if target_pred(state, syn.bit_count()):
                return state, best, pred, None, explored
            for mi, m in indexed:
                ns = state ^ m
                nsyn = syn ^ deltas[mi]
                e = nsyn.bit_count()
                if e <= level:
                    if level < best[ns]:
                        best[ns] = level
                        pred[ns] = mi
                        same.append((ns, nsyn))
                elif e < best[ns]:
                    best[ns] = e
                    pred[ns] = mi
                    buckets[e][plen].append((ns, nsyn))
    raise NoTarget("no state satisfying the target predicate is reachable")


def _tree_moves(state: int, pred, moves: Sequence[int]) -> list[int]:
    """Move indices along the search tree from the zero state to ``state``."""
    seq = []
    while state:
        mi = pred[state]
        seq.append(mi)
        state ^= moves[mi]
    seq.reverse()
    return seq


def _walk(flips: Iterable[int], energy: SyndromeEnergy, state=None) -> PathRecord:
    """The walk from zero that flips each coordinate in turn, with the
    energy of each packed state; ``state`` makes the recorded state from the
    packed bits, an ``energy.n_dim``-bit BitVec by default."""
    seq = [0]
    for q in flips:
        seq.append(seq[-1] ^ (1 << q))
    energies = tuple(map(energy.bits_energy, seq))
    state = state or (lambda b: BitVec(energy.n_dim, b))
    return PathRecord(tuple(map(state, seq)), energies, max(energies))


def _normalize_targets(targets, n_dim: int):
    """A target predicate over packed states; a BitVec of another length,
    an int outside [0, 2^n_dim) or an empty collection is rejected before
    any search."""
    if callable(targets):
        return lambda s, e: bool(targets(BitVec(n_dim, s)))
    if isinstance(targets, (BitVec, int)):
        targets = (targets,)
    goals = set()
    for t in targets:
        if isinstance(t, BitVec) and t.n != n_dim:
            raise DimensionMismatch(f"target of length {t.n}, search over {n_dim} dims")
        bits = t.bits if isinstance(t, BitVec) else int(t)
        if not 0 <= bits < 1 << n_dim:
            raise IndexOutOfRange(f"target {bits:#x} outside [0, 2^{n_dim})")
        goals.add(bits)
    if not goals:
        raise NoTarget("no target states given")
    return lambda s, e: s in goals


def bottleneck_search(
    energy: SyndromeEnergy,
    n_dim: int,
    targets,
    cap: int = DEFAULT_STATE_CAP,
) -> BarrierResult:
    """Exact minimax path value from the zero state to the nearest target.

    ``targets`` is a predicate over BitVec, a single BitVec/int state, or a
    collection of them.
    """
    if not isinstance(energy, SyndromeEnergy):
        raise TypeError(f"energy must be a SyndromeEnergy, got {type(energy).__name__}")
    if energy.n_dim != n_dim:
        raise DimensionMismatch(f"energy over {energy.n_dim} dims, search over {n_dim}")
    return _target_search(energy, (), _normalize_targets(targets, n_dim), cap)


@dataclass(frozen=True)
class _Quotient:
    """F2^n modulo the row space of a stabilizer matrix S.

    With rref(S) rows R_i and pivot columns p_i, every vector splits uniquely
    as z = f ^ (XOR of the R_i whose pivot bit is set in z), where f is zero
    on the pivots. The quotient state of z packs f's free columns, low to
    high; its lift coordinates are z's pivot bits, bit i standing for R_i.
    Both maps are linear, so ``split`` reads them off per-byte tables.
    ``images`` and ``lift_moves`` hold both maps of each unit flip; with
    no stabilizers there are no lift coordinates, and ``lift_moves`` is None.
    """

    dim: int  # n - rank S
    rank: int
    byte_tables: tuple[tuple[int, ...], ...] = field(repr=False)
    images: tuple[int, ...] = field(repr=False)
    lift_moves: tuple[int, ...] | None = field(repr=False)

    def split(self, bits: int) -> tuple[int, int]:
        """(quotient state, lift coordinates) of an n-bit vector."""
        w = 0
        for table in self.byte_tables:
            w ^= table[bits & 0xFF]
            bits >>= 8
        return w & ((1 << self.dim) - 1), w >> self.dim


@lru_cache(maxsize=256)
def _quotient(stab_rows: tuple[int, ...], n: int) -> _Quotient:
    res = rref(BitMatrix(len(stab_rows), n, stab_rows))
    dim = n - res.rank
    packed = {q: 1 << i for i, q in enumerate(res.free_cols)}
    words = [packed.get(q, 0) for q in range(n)]  # e_q: image | lift << dim
    for i, p in enumerate(res.pivot_cols):
        row = res.rref.row_bits[i]
        words[p] = sum(b for q, b in packed.items() if (row >> q) & 1) | (1 << (dim + i))
    tables = tuple(tuple(linear_table(words[base : base + 8])) for base in range(0, n, 8))
    images = tuple(w & ((1 << dim) - 1) for w in words)
    lift_moves = tuple(w >> dim for w in words) if res.rank else None
    return _Quotient(dim, res.rank, tables, images, lift_moves)


def _quotient_within(stab_rows: tuple[int, ...], n: int, cap: int) -> _Quotient:
    """F2^n / rowspace(stab_rows); CapExceeded if it has more than cap states."""
    quotient = _quotient(stab_rows, n)
    if (1 << quotient.dim) > cap:
        raise CapExceeded(f"2^{quotient.dim} quotient states exceed cap {cap}")
    return quotient


def _reduce(basis, x: int) -> tuple[int, int, int]:
    """Reduce x by a tagged echelon basis: (residue, highest tag used, edges used)."""
    level = edges = 0
    for vec, tag, vec_edges in basis:
        if x ^ vec < x:  # x has vec's leading bit
            x ^= vec
            level = max(level, tag)
            edges ^= vec_edges
    return x, level, edges


def _states_at(best, level: int):
    """States whose table value is ``level``, ascending."""
    s = -1
    try:
        while True:
            s = best.index(level, s + 1)
            yield s
    except ValueError:
        return


def _voltage_basis(best, lifts, quotient: _Quotient):
    """Tagged echelon basis of the voltages, edges taken in level order.

    An edge (u, q, v) lies at level max(best u, best v) and carries the
    voltage lift(u) ^ lift_moves[q] ^ lift(v): zero on tree edges, the
    stabilizer closing its fundamental cycle otherwise. The voltages up to
    level t span H_t, the stabilizers joined to 0 below t, so tagging each
    new basis vector with its level makes the highest tag used to reduce x
    the level at which x joins. Entries are (vector, tag, edges used) sorted
    by leading bit, highest first; ``edges`` lists the (u, q, v) behind each
    accepted voltage, and "edges used" is a bitmask over that list.
    """
    moves, lift_moves = quotient.images, quotient.lift_moves
    basis, edges = [], []
    for t in range(max(best) + 1):
        for u in _states_at(best, t):
            for q, m in enumerate(moves):
                v = u ^ m
                if best[v] > t:
                    continue
                g = lifts[u] ^ lift_moves[q] ^ lifts[v]
                if not g:
                    continue
                g, _, used = _reduce(basis, g)
                if g:
                    basis.append((g, t, used ^ (1 << len(edges))))
                    basis.sort(reverse=True)
                    edges.append((u, q, v))
                    if len(edges) == quotient.rank:
                        return tuple(basis), tuple(edges)
    return tuple(basis), tuple(edges)


@dataclass(frozen=True)
class MinimaxTable:
    """Exhaustive minimax values from the zero state.

    The search runs on ``quotient``, F2^n modulo a stabilizer group that
    leaves the energy unchanged (the empty group for classical tables, where
    quotient states are the vectors themselves), under unit flips: move q
    flips coordinate q. ``best``, ``pred`` and ``explored`` count quotient
    states. ``value`` reads ``best``, the tree ``lifts`` and the voltage
    ``basis``; the witness flips (``_flips``) also walk ``pred`` and ``edges``.
    """

    n_dim: int
    energy: SyndromeEnergy
    best: object = field(repr=False)
    pred: object = field(repr=False)
    explored: int
    quotient: _Quotient = field(repr=False)
    lifts: object = field(default=None, repr=False)
    basis: tuple = field(default=(), repr=False)
    edges: tuple = field(default=(), repr=False)

    def _fiber(self, bits: int) -> tuple[int, int]:
        """(quotient state, stabilizer from its tree lift to ``bits``)."""
        if not 0 <= bits < 1 << self.n_dim:
            raise IndexOutOfRange(f"state {bits:#x} outside [0, 2^{self.n_dim})")
        state, coords = self.quotient.split(bits)
        if self.lifts is not None:
            coords ^= self.lifts[state]
        return state, coords

    def value(self, bits: int) -> int:
        state, stab = self._fiber(bits)
        _, level, _ = _reduce(self.basis, stab)
        return max(self.best[state], level)

    def path(self, bits: int) -> PathRecord:
        """Peak-optimal walk to ``bits``, through the flips of ``_flips``."""
        return _walk(self._flips(bits), self.energy)

    def _flips(self, bits: int) -> list[int]:
        """Coordinates flipped, in order, by a peak-optimal walk to ``bits``:
        a loop around the fundamental cycle of each voltage used, then the
        lifted tree path. Every loop state is a stabilizer translate of a
        state at or below the loop's level."""
        state, stab = self._fiber(bits)
        _, _, used = _reduce(self.basis, stab)
        tree = lambda s: _tree_moves(s, self.pred, self.quotient.images)
        flips = []
        for j, (u, q, v) in enumerate(self.edges):
            if (used >> j) & 1:
                flips += tree(u) + [q] + tree(v)[::-1]
        flips += tree(state)
        end = reduce(xor, (1 << q for q in flips), 0)
        if end != bits:
            raise WitnessError(f"table walk ends at {end:#x}, not at {bits:#x}")
        return flips


@lru_cache(maxsize=64)
def _table(rows: tuple, stab_rows: tuple, n: int) -> MinimaxTable:
    """Exhaustive table over F2^n / rowspace(stab_rows); callers check the cap."""
    quotient, energy = _quotient(stab_rows, n), _energy(rows, n)
    _, best, pred, lifts, explored = _syndrome_search(
        quotient.dim, quotient.images, energy.columns, len(rows), None, quotient.lift_moves
    )
    basis, edges = _voltage_basis(best, lifts, quotient) if lifts is not None else ((), ())
    return MinimaxTable(n, energy, best, pred, explored, quotient, lifts, basis, edges)


def _target_search(
    energy: SyndromeEnergy, stab_rows: tuple, target_pred, cap: int, state=None
) -> BarrierResult:
    """Nearest quotient state of F2^n / rowspace(stab_rows) under unit flips
    with target_pred(state, energy). The witness is the lifted tree path, so
    it ends at one n-bit vector of that state (recorded through ``state``,
    as in ``_walk``); with no stabilizers the quotient states are the
    vectors themselves."""
    quotient = _quotient_within(stab_rows, energy.n_dim, cap)
    end, best, pred, _, explored = _syndrome_search(
        quotient.dim, quotient.images, energy.columns, len(energy.rows), target_pred
    )
    record = _walk(_tree_moves(end, pred, quotient.images), energy, state)
    return BarrierResult(best[end], record, record.states[-1], explored)


def _nonzero_codeword(state: int, energy: int) -> bool:
    return energy == 0 and state != 0


def classical_table(c: ClassicalCode, cap: int = DEFAULT_STATE_CAP) -> MinimaxTable:
    _quotient_within((), c.n, cap)
    return _table(c.h.row_bits, (), c.n)


def _sector_matrices(code: HgpCode, sector: str) -> tuple[BitMatrix, BitMatrix]:
    """(check matrix, stabilizer matrix) of a CSS sector: z-space is checked
    by HX and taken modulo the rows of HZ, x-space the other way round."""
    return (code.hx, code.hz) if _is_z(sector.lower()) else (code.hz, code.hx)


def sector_table(code: HgpCode, sector: str, cap: int = DEFAULT_STATE_CAP) -> MinimaxTable:
    """Exhaustive minimax table for one CSS sector, over 2^(n - rank S)
    quotient states; ``cap`` bounds that count."""
    checks, stab = _sector_matrices(code, sector)
    _quotient_within(stab.row_bits, code.n_qubits, cap)
    return _table(checks.row_bits, stab.row_bits, code.n_qubits)


def classical_barrier(c: ClassicalCode, cap: int = DEFAULT_STATE_CAP) -> BarrierResult:
    """Minimax barrier from zero to the nearest nonzero codeword."""
    if c.k == 0:
        raise NoLogicals("code has no nonzero codewords")
    return _target_search(_energy(c.h.row_bits, c.n), (), _nonzero_codeword, cap)


def _sector_result(code: HgpCode, sector: str, cap: int) -> BarrierResult:
    """Cheapest nontrivial logical of one sector, searched on the quotient:
    a nonzero quotient state without syndrome is a nontrivial logical coset,
    and the lifted tree path reaches one of its vectors at the coset's value."""
    checks, stab = _sector_matrices(code, sector)
    n = code.n_qubits
    state = lambda b: PauliVec.of_kind(sector, BitVec(n, b))
    return _target_search(_energy(checks.row_bits, n), stab.row_bits, _nonzero_codeword, cap, state)


def quantum_barrier(
    code: HgpCode, sector: str = "both", cap: int = DEFAULT_STATE_CAP
) -> BarrierResult:
    """Barrier of the code: cheapest nontrivial logical in the given sector(s).

    Pure-Z and pure-X searches suffice for the combined value: projecting any
    Pauli path onto one sector never raises the energy and lands on the
    sector component of the endpoint, so the full-group barrier is the
    smaller of the two sector barriers.
    """
    if code.k == 0:
        raise NoLogicals("code has no logical qubits")
    s = sector.lower()
    if s in ("z", "x"):
        return _sector_result(code, s, cap)
    if s != "both":
        raise DimensionMismatch(f"unknown sector {sector!r}, expected 'z', 'x', or 'both'")
    rz = _sector_result(code, "z", cap)
    rx = _sector_result(code, "x", cap)
    return rz if rz.value <= rx.value else rx


@lru_cache(maxsize=64)
def _pauli_inputs(code: HgpCode) -> tuple:
    """``_table`` arguments for states x | z << n, modulo HX on x and HZ on z:
    move q < n is an X flip of qubit q, move n + q a Z flip. Cached per code;
    the table itself lives only in ``_table``'s cache."""
    n = code.n_qubits
    rows = code.hz.row_bits + tuple(r << n for r in code.hx.row_bits)
    return rows, _generators(code), 2 * n


def _generators(code: HgpCode) -> tuple[int, ...]:
    """The stabilizer generators, HX rows then HZ rows, packed x | z << n."""
    return code.hx.row_bits + tuple(r << code.n_qubits for r in code.hz.row_bits)


def _pauli_state(bits: int, n: int) -> PauliVec:
    """The Pauli on n qubits packed as x | z << n."""
    return PauliVec(n, BitVec(n, bits & ((1 << n) - 1)), BitVec(n, bits >> n))


def _pauli_walk(code: HgpCode, flips: Iterable[int]) -> PathRecord:
    """The walk over x | z << n that flips each coordinate in turn."""
    rows, _, n2 = _pauli_inputs(code)
    return _walk(flips, SyndromeEnergy(rows, n2), lambda b: _pauli_state(b, code.n_qubits))


def _pauli_table(code: HgpCode) -> MinimaxTable:
    return _table(*_pauli_inputs(code))


def pauli_barrier_general(
    code: HgpCode, target: PauliVec, cap: int = DEFAULT_PAULI_CAP
) -> BarrierResult:
    """Minimax over the full Pauli group: states are (x, z) pairs, and a step
    flips the x or the z bit of one qubit. A Y step, which flips both, would
    add nothing: the energy is E_x(x) + E_z(z), and of the two one-flip
    orders of a Y step, the one through the lower of the two intermediate
    energies peaks no higher than the Y step itself.

    The energy wt(HZ x) + wt(HX z) is unchanged when x gains a row of HX or z
    a row of HZ, so the search runs modulo both stabilizer groups: 2^(n + k)
    quotient states, which ``cap`` bounds, in one cached table per code that
    answers every target. Used to cross-check the sector decomposition.
    """
    n = code.n_qubits
    if target.n != n:
        raise DimensionMismatch(f"target on {target.n} qubits, code has {n}")
    _quotient_within(*_pauli_inputs(code)[1:], cap)
    table = _pauli_table(code)
    goal = target.x.bits | (target.z.bits << n)
    record = _pauli_walk(code, table._flips(goal))
    return BarrierResult(table.value(goal), record, record.states[-1], table.explored)


def normalizer_barrier(
    code: HgpCode, p: PauliVec, cap: int = DEFAULT_STATE_CAP
) -> BarrierResult:
    """Exact barrier of a Pauli that commutes with every check.

    For such a Pauli the two sector projections are independent: any path
    projects to each sector without raising energy, and running the optimal
    x-sector path first (its endpoint has zero energy because HZ x = 0)
    followed by the optimal z-sector path achieves the larger of the two
    sector values. Hence the barrier is exactly max(x-sector, z-sector).
    """
    n = code.n_qubits
    if p.n != n:
        raise DimensionMismatch(f"Pauli on {p.n} qubits, code has {n}")
    if mat_vec(code.hz, p.x).bits or mat_vec(code.hx, p.z).bits:
        raise OutsideNormalizer("Pauli anticommutes with a check; barrier is sector-mixed")
    tx = sector_table(code, "x", cap)
    tz = sector_table(code, "z", cap)
    value = max(tx.value(p.x.bits), tz.value(p.z.bits))
    record = _pauli_walk(code, tx._flips(p.x.bits) + [n + q for q in tz._flips(p.z.bits)])
    return BarrierResult(value, record, record.states[-1], tx.explored + tz.explored)


def sweep_path_for_canonical(
    code: HgpCode, op: CanonicalOp, cap: int = DEFAULT_STATE_CAP
) -> PathRecord:
    """Constructive path to an elementary canonical operator along one line
    of its block's grid.

    The operator is its parent codeword placed along that line
    (``elementary_leg``); walking the codeword along an optimal classical
    witness keeps the quantum energy equal to the classical one at every
    step, so the sweep attains the parent-code barrier of that codeword.
    """
    parent, word, placement = elementary_leg(code, op)
    place = lambda b: PauliVec.of_kind(op.kind, placement(BitVec(parent.cols, b)))
    goal = lambda s, e: s == word.bits
    sweep = _target_search(_energy(parent.row_bits, parent.cols), (), goal, cap, place).witness
    checks, _ = _sector_matrices(code, op.kind)
    energy = SyndromeEnergy(checks.row_bits, code.n_qubits)
    # the quantum energy along the sweep reduces exactly to the classical one
    if tuple(energy(s.part(op.kind)) for s in sweep.states) != sweep.energies:
        raise WitnessError("sweep energies differ from its classical leg's")
    if sweep.states[-1] != op.realized:
        raise WitnessError("sweep does not end at the canonical operator")
    return sweep


def stabilizer_path(code: HgpCode, s: PauliVec, generator_combo: BitVec) -> PathRecord:
    """Constructive path to a stabilizer: apply each selected generator in
    order, one qubit at a time. Generators are the HX rows followed by the
    HZ rows; the peak energy is at most w_c * w_q.
    """
    gens = _generators(code)
    if generator_combo.n != len(gens):
        raise DimensionMismatch(f"combo length {generator_combo.n}, need {len(gens)}")
    n = code.n_qubits
    if s.n != n:
        raise DimensionMismatch(f"Pauli on {s.n} qubits, code has {n}")
    flips = [q for g in generator_combo.support() for q in BitVec(2 * n, gens[g]).support()]
    walk = _pauli_walk(code, flips)
    if walk.states[-1] != s:
        raise NotAStabilizer("selected generators do not multiply to the given Pauli")
    return walk


def validate_path(record: PathRecord, energy: Callable) -> bool:
    """Recheck a witness: single-coordinate steps and stored energies."""
    try:
        record.steps_json()
    except WitnessError:
        return False
    if any(energy(s) != e for s, e in zip(record.states, record.energies)):
        return False
    return record.max_energy == max(record.energies, default=0)
