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
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Sequence

from .codes import ClassicalCode
from .errors import (
    CapExceeded,
    DimensionMismatch,
    NoLogicals,
    NotAStabilizer,
    NoTarget,
    OutsideNormalizer,
    WitnessError,
)
from .f2core import BitMatrix, BitVec, mat_vec, rref, weight
from .hgp import HgpCode
from .logicals import CanonicalOp, PauliVec, elementary_leg

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
        """Step records for export: flipped qubit and Pauli change per move."""
        out = []
        prev = None
        for i, (state, e) in enumerate(zip(self.states, self.energies)):
            entry = {"step": i, "flipped_qubit": None, "pauli_change": None, "energy": e}
            if prev is not None:
                if isinstance(state, PauliVec):
                    dx = prev.x.bits ^ state.x.bits
                    dz = prev.z.bits ^ state.z.bits
                    q = (dx | dz).bit_length() - 1
                    entry["flipped_qubit"] = q
                    entry["pauli_change"] = {(1, 0): "X", (0, 1): "Z", (1, 1): "Y"}[
                        ((dx >> q) & 1, (dz >> q) & 1)
                    ]
                else:
                    diff = prev.bits ^ state.bits
                    entry["flipped_qubit"] = diff.bit_length() - 1
                    entry["pauli_change"] = "X"
            out.append(entry)
            prev = state
        return out


@dataclass(frozen=True)
class BarrierResult:
    value: int
    witness: PathRecord
    target: object
    explored: int
    exact: bool = True


class SyndromeEnergy:
    """Energy of a state as weight(M x), with per-flip syndrome deltas."""

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

    def delta(self, move_mask: int) -> int:
        """Syndrome XOR caused by flipping the coordinates in move_mask."""
        d = 0
        for i, r in enumerate(self.rows):
            if (r & move_mask).bit_count() & 1:
                d |= 1 << i
        return d


def energy_classical(c: ClassicalCode, x: BitVec) -> int:
    if x.n != c.n:
        raise DimensionMismatch(f"vector length {x.n} vs block length {c.n}")
    return weight(mat_vec(c.h, x))


def energy_quantum(code: HgpCode, p: PauliVec) -> int:
    if p.n != code.n_qubits:
        raise DimensionMismatch(f"Pauli on {p.n} qubits, code has {code.n_qubits}")
    return weight(mat_vec(code.hx, p.z)) + weight(mat_vec(code.hz, p.x))


def _make_tables(n_states: int, n_moves: int, max_energy: int):
    # byte maps when values fit, 16-bit arrays otherwise; 0xFF/0xFFFF = unseen
    if max_energy < 0xFF:
        best = bytearray(b"\xff" * n_states)
    else:
        best = array("H", [0xFFFF] * n_states)
    if n_moves < 0xFF:
        pred = bytearray(b"\xff" * n_states)
    else:
        pred = array("H", [0xFFFF] * n_states)
    return best, pred


def _lift_store(n_states: int, n_bits: int):
    """Zeroed per-state store for n_bits-wide lifts, in the narrowest array."""
    for code in "BHILQ":
        size = array(code).itemsize
        if 8 * size >= n_bits:
            return array(code, bytes(size * n_states))
    return [0] * n_states


def _energy_table(n_dim: int, moves: Sequence[int], deltas: Sequence[int], max_energy: int):
    """Syndrome weight of every n_dim-bit state, indexed by state.

    The syndrome is linear in the state. Reducing the moves, each with its
    syndrome, to a reduced echelon basis gives the syndrome of every unit
    vector that is a pivot; the other unit vectors get 0, which changes no
    state the moves reach. The table is then spanned out by doubling, one
    block of 2^lo states per value of the high bits, so no list of 2^n_dim
    ints exists.
    """
    basis: dict[int, tuple[int, int]] = {}  # leading bit -> (vector, syndrome)
    for m, d in zip(moves, deltas):
        while m:
            lead = m.bit_length() - 1
            if lead not in basis:
                basis[lead] = (m, d)
                break
            v, dv = basis[lead]
            m ^= v
            d ^= dv
    unit = [0] * n_dim
    for lead in sorted(basis):  # lower pivots are already reduced
        v, dv = basis[lead]
        for low in range(lead):
            if (v >> low) & 1 and low in basis:
                v ^= basis[low][0]
                dv ^= basis[low][1]
        basis[lead] = (v, dv)
        unit[lead] = dv
    lo = n_dim // 2
    low_syns, high_syns = [0], [0]
    for q in range(n_dim):
        half = low_syns if q < lo else high_syns
        half += [s ^ unit[q] for s in half]  # bit j of the index selects unit[j]
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
    cap: int,
    lift_moves: Sequence[int] | None = None,
):
    """Core engine over the n_dim-bit states: move i XORs moves[i] into the
    state and deltas[i] into the syndrome. target_pred(state, energy) or
    None to exhaust all states. With lift_moves, lifts[s] is the XOR of
    lift_moves along the search-tree path to each popped state s.

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
    in exhaust mode and lifts is None without lift_moves.
    """
    if (1 << n_dim) > cap:
        raise CapExceeded(f"2^{n_dim} states exceed cap {cap}")
    best, pred = _make_tables(1 << n_dim, len(moves), max_energy)
    lifts = None
    if lift_moves is not None:
        lifts = _lift_store(1 << n_dim, max(lift_moves).bit_length())
    best[0] = 0
    buckets = [defaultdict(list) for _ in range(max_energy + 1)]
    indexed = tuple(enumerate(moves))
    explored = 0
    if target_pred is None:
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
            if lifts is not None and state:
                mi = pred[state]
                lifts[state] = lifts[state ^ moves[mi]] ^ lift_moves[mi]
            if target_pred(state, syn.bit_count()):
                return state, best, pred, lifts, explored
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


def _walk(masks: Iterable[int]) -> list[int]:
    """States visited from zero by XORing in each mask in turn."""
    seq = [0]
    for m in masks:
        seq.append(seq[-1] ^ m)
    return seq


def _path_from_bits(seq: Iterable[int], n_dim: int, energy_bits) -> PathRecord:
    states = tuple(BitVec(n_dim, b) for b in seq)
    energies = tuple(energy_bits(b) for b in (s.bits for s in states))
    return PathRecord(states, energies, max(energies, default=0))


def _normalize_targets(targets, n_dim: int):
    if callable(targets):
        return lambda s, e: bool(targets(BitVec(n_dim, s)))
    if isinstance(targets, (BitVec, int)):
        goal = targets.bits if isinstance(targets, BitVec) else targets
        return lambda s, e: s == goal
    goals = {t.bits if isinstance(t, BitVec) else int(t) for t in targets}
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
    return _target_search(energy.rows, (), n_dim, _normalize_targets(targets, n_dim), cap)


@dataclass(frozen=True)
class _Quotient:
    """F2^n modulo the row space of a stabilizer matrix S.

    With rref(S) rows R_i and pivot columns p_i, every vector splits uniquely
    as z = f ^ (XOR of the R_i whose pivot bit is set in z), where f is zero
    on the pivots. The quotient state of z packs f's free columns, low to
    high; its lift coordinates are z's pivot bits, bit i standing for R_i.
    Both maps are linear, so ``split`` reads them off per-byte tables.
    """

    n: int
    rank: int
    byte_tables: tuple[tuple[int, ...], ...] = field(repr=False)

    @property
    def dim(self) -> int:
        return self.n - self.rank

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
    pivots = res.pivot_cols
    free = [q for q in range(n) if q not in set(pivots)]
    packed = {q: 1 << i for i, q in enumerate(free)}
    words = [packed.get(q, 0) for q in range(n)]  # e_q: image | lift << dim
    for i, p in enumerate(pivots):
        row = res.rref.row_bits[i]
        words[p] = sum(b for q, b in packed.items() if (row >> q) & 1) | (1 << (len(free) + i))
    tables = []
    for base in range(0, n, 8):
        table = [0]
        for w in words[base : base + 8]:
            table += [t ^ w for t in table]  # bit j of the index selects words[base + j]
        tables.append(tuple(table))
    return _Quotient(n, res.rank, tuple(tables))


def _quotient_within(stab_rows: tuple[int, ...], n: int, cap: int) -> _Quotient:
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


def _voltage_basis(best, lifts, moves, lift_moves, rank: int):
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
                    if len(edges) == rank:
                        return tuple(basis), tuple(edges)
    return tuple(basis), tuple(edges)


@dataclass(frozen=True)
class MinimaxTable:
    """Exhaustive minimax values from the zero state.

    The search runs on ``quotient``, F2^n modulo a stabilizer group that
    leaves the energy unchanged (the empty group for classical tables, where
    quotient states are the vectors themselves), along the full-space masks
    ``moves``. ``best``, ``pred`` and ``explored`` count quotient states;
    ``lifts``, ``basis`` and ``edges`` hold the voltage bookkeeping that
    recovers each vector's exact value.
    """

    n_dim: int
    energy: SyndromeEnergy
    best: object = field(repr=False)
    pred: object = field(repr=False)
    explored: int
    quotient: _Quotient = field(repr=False)
    moves: tuple[int, ...] = field(repr=False)
    images: tuple[int, ...] = field(repr=False)  # quotient image of each move
    lifts: object = field(default=None, repr=False)
    basis: tuple = field(default=(), repr=False)
    edges: tuple = field(default=(), repr=False)

    def _fiber(self, bits: int) -> tuple[int, int]:
        """(quotient state, stabilizer from its tree lift to ``bits``)."""
        state, coords = self.quotient.split(bits)
        if self.lifts is not None:
            coords ^= self.lifts[state]
        return state, coords

    def value(self, bits: int) -> int:
        state, stab = self._fiber(bits)
        _, level, _ = _reduce(self.basis, stab)
        return max(self.best[state], level)

    def path(self, bits: int) -> PathRecord:
        """Peak-optimal walk to ``bits``: a loop around the fundamental cycle
        of each voltage used, then the lifted tree path. Every loop state is
        a stabilizer translate of a state at or below the loop's level."""
        state, stab = self._fiber(bits)
        _, _, used = _reduce(self.basis, stab)
        tree = lambda s: _tree_moves(s, self.pred, self.images)
        flips = []
        for j, (u, q, v) in enumerate(self.edges):
            if (used >> j) & 1:
                flips += tree(u) + [q] + tree(v)[::-1]
        flips += tree(state)
        seq = _walk(self.moves[q] for q in flips)
        if seq[-1] != bits:
            raise WitnessError(f"table walk ends at {seq[-1]:#x}, not at {bits:#x}")
        return _path_from_bits(seq, self.n_dim, self.energy.bits_energy)


class _Inputs(NamedTuple):
    """What a search over F2^n / rowspace(S) along full-space move masks needs."""

    quotient: _Quotient
    energy: SyndromeEnergy
    moves: tuple[int, ...]
    images: tuple[int, ...]  # quotient image of each move
    lift_moves: tuple[int, ...] | None  # lift coordinates of each move; None if S = 0
    deltas: tuple[int, ...]  # syndrome change of each move


@lru_cache(maxsize=256)
def _search_inputs(rows: tuple, stab_rows: tuple, n: int, moves: tuple | None) -> _Inputs:
    """Search inputs over F2^n / rowspace(stab_rows) along the full-space
    move masks ``moves`` (unit vectors when None), cached per argument tuple."""
    moves = moves or tuple(1 << q for q in range(n))
    quotient = _quotient(stab_rows, n)
    energy = SyndromeEnergy(rows, n)
    splits = [quotient.split(m) for m in moves]
    lift_moves = tuple(lift for _, lift in splits) if quotient.rank else None
    deltas = tuple(energy.delta(m) for m in moves)
    return _Inputs(quotient, energy, moves, tuple(s for s, _ in splits), lift_moves, deltas)


@lru_cache(maxsize=64)
def _table(rows: tuple, stab_rows: tuple, n: int, moves: tuple | None = None) -> MinimaxTable:
    """Exhaustive table over F2^n / rowspace(stab_rows) along the full-space
    move masks ``moves`` (unit vectors by default); callers check the cap."""
    quotient, energy, moves, images, lift_moves, deltas = _search_inputs(rows, stab_rows, n, moves)
    _, best, pred, lifts, explored = _syndrome_search(
        quotient.dim, images, deltas, len(rows), None, 1 << quotient.dim, lift_moves
    )
    basis = edges = ()
    if lifts is not None:
        basis, edges = _voltage_basis(best, lifts, images, lift_moves, quotient.rank)
    return MinimaxTable(
        n, energy, best, pred, explored, quotient, moves, images, lifts, basis, edges
    )


def _target_search(rows, stab_rows, n: int, target_pred, cap: int) -> BarrierResult:
    """Nearest quotient state of F2^n / rowspace(stab_rows) under unit flips
    with target_pred(state, energy). The witness is the lifted tree path, so
    it ends at one n-bit vector of that state; with no stabilizers the
    quotient states are the vectors themselves."""
    inputs = _search_inputs(rows, stab_rows, n, None)
    state, best, pred, _, explored = _syndrome_search(
        inputs.quotient.dim, inputs.images, inputs.deltas, len(rows), target_pred, cap
    )
    seq = _walk(inputs.moves[mi] for mi in _tree_moves(state, pred, inputs.images))
    record = _path_from_bits(seq, n, inputs.energy.bits_energy)
    return BarrierResult(best[state], record, record.states[-1], explored)


def _nonzero_codeword(state: int, energy: int) -> bool:
    return energy == 0 and state != 0


def classical_table(c: ClassicalCode, cap: int = DEFAULT_STATE_CAP) -> MinimaxTable:
    _quotient_within((), c.n, cap)
    return _table(c.h.row_bits, (), c.n)


def _sector_matrices(code: HgpCode, sector: str) -> tuple[BitMatrix, BitMatrix]:
    """(check matrix, stabilizer matrix) of a CSS sector: z-space is checked
    by HX and taken modulo the rows of HZ, x-space the other way round."""
    s = sector.lower()
    if s == "z":
        return code.hx, code.hz
    if s == "x":
        return code.hz, code.hx
    raise DimensionMismatch(f"unknown sector {sector!r}, expected 'z' or 'x'")


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
    return _target_search(c.h.row_bits, (), c.n, _nonzero_codeword, cap)


def _sector_result(code: HgpCode, sector: str, cap: int) -> BarrierResult:
    """Cheapest nontrivial logical of one sector, searched on the quotient:
    a nonzero quotient state without syndrome is a nontrivial logical coset,
    and the lifted tree path reaches one of its vectors at the coset's value."""
    checks, stab = _sector_matrices(code, sector)
    res = _target_search(checks.row_bits, stab.row_bits, code.n_qubits, _nonzero_codeword, cap)
    states = tuple(PauliVec.of_kind(sector, s) for s in res.witness.states)
    record = PathRecord(states, res.witness.energies, res.witness.max_energy)
    return BarrierResult(res.value, record, states[-1], res.explored)


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
    """``_table`` arguments for states x | z << n under the 2n X and Z flips,
    modulo HX on x and HZ on z. Cached per code; the table itself lives
    only in ``_table``'s cache."""
    n = code.n_qubits
    rows = code.hz.row_bits + tuple(r << n for r in code.hx.row_bits)
    moves = tuple(m for q in range(n) for m in (1 << q, 1 << (n + q)))
    return rows, _generators(code), 2 * n, moves


def _generators(code: HgpCode) -> tuple[int, ...]:
    """The stabilizer generators, HX rows then HZ rows, packed x | z << n."""
    return code.hx.row_bits + tuple(r << code.n_qubits for r in code.hz.row_bits)


def _pauli_state(bits: int, n: int) -> PauliVec:
    """The Pauli on n qubits packed as x | z << n."""
    return PauliVec(n, BitVec(n, bits & ((1 << n) - 1)), BitVec(n, bits >> n))


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
    if (1 << (n + code.k)) > cap:
        raise CapExceeded(f"2^(n + k) = 2^{n + code.k} Pauli quotient states exceed cap {cap}")
    table = _pauli_table(code)
    goal = target.x.bits | (target.z.bits << n)
    walk = table.path(goal)
    states = tuple(_pauli_state(s.bits, n) for s in walk.states)
    record = PathRecord(states, walk.energies, walk.max_energy)
    return BarrierResult(table.value(goal), record, states[-1], table.explored)


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
    xleg = tx.path(p.x.bits)
    zleg = tz.path(p.z.bits)
    states = [PauliVec.x_type(s) for s in xleg.states]
    energies = list(xleg.energies)
    for s, e in zip(zleg.states[1:], zleg.energies[1:]):
        states.append(PauliVec(n, p.x, s))
        energies.append(e)
    record = PathRecord(tuple(states), tuple(energies), max(energies, default=0))
    return BarrierResult(value, record, states[-1], tx.explored + tz.explored)


def _classical_path_to(h: BitMatrix, word: BitVec, cap: int) -> PathRecord:
    return _target_search(h.row_bits, (), h.cols, lambda s, e: s == word.bits, cap).witness


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
    leg = _classical_path_to(parent, word, cap)
    checks, _ = _sector_matrices(code, op.kind)
    energy = SyndromeEnergy(checks.row_bits, code.n_qubits)
    states = tuple(PauliVec.of_kind(op.kind, placement(w)) for w in leg.states)
    energies = tuple(energy.bits_energy(s.x.bits | s.z.bits) for s in states)
    # the quantum energy along the sweep reduces exactly to the classical one
    if energies != leg.energies:
        raise WitnessError("sweep energies differ from its classical leg's")
    if states[-1] != op.realized:
        raise WitnessError("sweep does not end at the canonical operator")
    return PathRecord(states, energies, max(energies, default=0))


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
    seq = [0]
    for g in generator_combo.support():
        flips = gens[g]
        while flips:
            seq.append(seq[-1] ^ (flips & -flips))
            flips &= flips - 1
    if seq[-1] != s.x.bits | s.z.bits << n:
        raise NotAStabilizer("selected generators do not multiply to the given Pauli")
    states = tuple(_pauli_state(b, n) for b in seq)
    energies = tuple(energy_quantum(code, p) for p in states)
    return PathRecord(states, energies, max(energies))


def validate_path(record: PathRecord, energy: Callable) -> bool:
    """Recheck a witness: single-coordinate steps and stored energies."""
    prev = None
    for state, e in zip(record.states, record.energies):
        if energy(state) != e:
            return False
        if prev is not None:
            if isinstance(state, PauliVec):
                diff = (prev.x.bits ^ state.x.bits) | (prev.z.bits ^ state.z.bits)
            else:
                diff = prev.bits ^ state.bits
            if diff.bit_count() != 1:
                return False
        prev = state
    return record.max_energy == max(record.energies, default=0)
