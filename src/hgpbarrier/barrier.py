"""Exact energy barriers via best-first minimax search.

The barrier of reaching a target configuration is the smallest possible value
of the maximum energy seen along any path from the all-zero state, where a
path changes one coordinate (one qubit) per step. Searches run over packed
integer states with a Dijkstra-style frontier popped in the order

    (max energy so far, path length, state value)

so results and witness paths are deterministic. Energies of the form
weight(M x) are small integers, so the frontier is a bucket queue (Dial's
algorithm): one bucket per peak level, split by path length, each layer
sorted by state when its turn comes. Levels never fall, so the first time a
state is reached fixes its peak: every push is final, no queued entry ever
goes stale, and each state is popped once.

Target searches, which stop early, pop state by state (``_nearest``): a
neighbour is tested only for being unseen, its energy is read off a running
syndrome (flipping coordinate q XORs column q of M into it), as witness
walks do, and only the search-tree parents are stored. Exhaustive tables
run the same order a whole layer at a time (``_flood``): a layer is a bitset
over all states in one Python int, its neighbours are its XOR-translates
by the moves (one butterfly swap per bit of a move), and bit-sliced
syndrome counts give the states of each energy, so no Python loop runs per
state. A table keeps per state only its value and its layer's index. The
search tree is derived from those when asked for: the parent of a state is
its neighbour of least (layer, state), the one the queue pops first.

Sector tables search the quotient of F2^n by the stabilizer group S that
leaves the sector energy unchanged (HZ for the z-sector, HX for the
x-sector), 2^(n - rank S) entries instead of 2^n; full-Pauli tables take
F2^(2n) modulo both groups. Exact values of single states come back through
voltages: the search tree lifts each quotient state to one vector, and every
non-tree edge (u, q, v) along move mask m_q closes a cycle whose lift ends
at the stabilizer lift(u) ^ m_q ^ lift(v), reachable at max(best u, best v).
Voltages inserted in level order into an echelon basis tag each basis
vector with the level it becomes reachable, and then

    value(z) = max(best[[z]], highest tag used to reduce z ^ lift([z])),

so the largest value on S is the highest tag (``stabilizer_max``), and on
the coset z + S it is max(value(z), highest tag): some vector of the coset
uses the last basis vector, and every value is best[[z]] or a tag. This is
the covering-space picture of voltage graphs (Gross & Tucker, *Topological
Graph Theory*, ch. 2).
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from collections.abc import Callable, Iterable, Sequence
from functools import cached_property, lru_cache, reduce
from operator import xor

from .codes import DEFAULT_STATE_CAP, ClassicalCode
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
from .f2core import BitMatrix, BitVec, Quotient, _ones, _Record, combine, linear_table, mat_vec, quotient, weight
from .hgp import HgpCode, PauliVec, _is_z
from .logicals import CanonicalOp, elementary_leg

__all__ = [
    "DEFAULT_STATE_CAP",  # defined in codes, the one default cap
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
    "pauli_table",
    "sweep_path_for_canonical",
    "stabilizer_path",
    "validate_path",
]


class PathRecord(_Record):
    """A walk of states with per-state energies; steps touch one coordinate."""

    def __init__(self, states: tuple, energies: tuple[int, ...], max_energy: int):
        if len(states) != len(energies):
            raise DimensionMismatch("one energy per state required")
        expected = max(energies, default=0)
        if max_energy != expected:
            raise DimensionMismatch(f"max_energy {max_energy} != {expected}")
        self._store(locals())

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


class BarrierResult(_Record):
    def __init__(self, value: int, witness: PathRecord, explored: int):
        self._store(locals())

    @property
    def target(self):
        """The state the witness ends at."""
        return self.witness.states[-1]


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
    return weight(c.syndrome(x))


def energy_quantum(code: HgpCode, p: PauliVec) -> int:
    code.check_pauli(p)
    return sum(weight(mat_vec(code.sector(kind)[0], p.part(kind))) for kind in ("z", "x"))


@lru_cache(maxsize=8)
def _butterflies(n_dim: int) -> tuple[int, ...]:
    """Per bit b < n_dim, the bitset of the 2^n_dim states with bit b clear."""
    n_states = 1 << n_dim
    masks = []
    for b in range(n_dim):
        if b < 3:
            block = (b"\x55", b"\x33", b"\x0f")[b]
        else:
            block = b"\xff" * (1 << (b - 3)) + bytes(1 << (b - 3))
        reps = -(-n_states // (8 * len(block)))
        masks.append(int.from_bytes(block * reps, "little") & ((1 << n_states) - 1))
    return tuple(masks)


# per bit j of a value, the table that turns a "0"/"1" string into bytes 0 / 2^(j % 8)
_SPREAD = tuple(bytes.maketrans(b"01", bytes((0, 1 << j))) for j in range(8))


def _per_state(planes: Sequence[int], n_states: int, wide: bool):
    """The per-state values whose bit j is the bitset planes[j]: a byte map,
    or when ``wide`` or past 8 planes the narrowest array of at least 16
    bits. Each plane is spread to one byte per state through its binary
    string, so no Python loop runs per state."""
    words = [0] * max(-(-len(planes) // 8), 1 + wide)  # one int per byte of a value
    for j, plane in enumerate(planes):
        words[j >> 3] |= int.from_bytes(
            format(plane, "b").encode().translate(_SPREAD[j & 7]), "big"
        )
    if len(words) == 1:
        return bytearray(words[0].to_bytes(n_states, "little"))
    code = next(c for c in "HLQ" if array(c).itemsize >= len(words))
    size = array(code).itemsize
    buf = bytearray(size * n_states)
    for k, word in enumerate(words):
        buf[k::size] = word.to_bytes(n_states, "little")
    table = array(code, buf)
    if sys.byteorder == "big":
        table.byteswap()
    return table


def _level_sets(n_dim: int, moves: Sequence[int], deltas: Sequence[int]) -> list[int]:
    """Bit-sliced syndrome weights: bit j of every state's energy, as one
    bitset per j. The syndrome is linear in the state, and every unit vector
    is a move, so check r is violated on the XOR of the bit-i sets over the
    i whose unit move's delta has bit r; the bit-i set is the complement of
    butterfly mask i."""
    syndrome = dict(zip(moves, deltas))
    unit = [syndrome[1 << i] for i in range(n_dim)]
    full, masks = (1 << (1 << n_dim)) - 1, _butterflies(n_dim)
    counter = []
    for r in range(max(unit, default=0).bit_length()):
        touching = [masks[i] for i in range(n_dim) if (unit[i] >> r) & 1]
        carry = reduce(xor, touching, full if len(touching) & 1 else 0)
        for j, plane in enumerate(counter):
            counter[j], carry = plane ^ carry, plane & carry
        if carry:
            counter.append(carry)
    return counter


def _layers(n_dim: int, moves: Sequence[int], deltas: Sequence[int], max_energy: int):
    """Dial's pop order over (level, path length), one whole layer at a
    time: yields (level, layer), each layer a bitset over the 2^n_dim
    states. A layer's neighbours are its XOR-translates by the distinct
    nonzero moves, one butterfly swap (shift, mask) per set bit of a move.
    A new state of energy at most the level joins the next path length at
    that level; any other waits, at that path length, for its own energy's
    level."""
    full, masks = (1 << (1 << n_dim)) - 1, _butterflies(n_dim)
    swaps = [[(1 << b, masks[b]) for b in range(n_dim) if (m >> b) & 1] for m in set(moves) if m]
    counter = _level_sets(n_dim, moves, deltas)
    unseen, waiting = full ^ 1, {0: 1}  # waiting: path length -> states pushed below their energy
    at_most = 0  # states of energy <= level
    for level in range(max_energy + 1):
        equal = full
        for j, plane in enumerate(counter):
            equal &= plane if (level >> j) & 1 else full ^ plane
        at_most |= equal
        same = 0  # states joining this level at path length plen
        while True:
            if not same:
                ready = [p for p, w in waiting.items() if w & equal]
                if not ready:
                    break
                plen = min(ready)
            joining = waiting.pop(plen, 0)
            got = joining & equal
            if joining ^ got:
                waiting[plen] = joining ^ got
            layer = same | got
            yield level, layer
            plen += 1
            same = 0
            if unseen:
                near = 0
                for move in swaps:
                    x = layer
                    for shift, mask in move:
                        x = ((x & mask) << shift) | ((x >> shift) & mask)
                    near |= x
                new = near & unseen
                unseen ^= new
                same = new & at_most
                if new ^ same:
                    waiting[plen] = waiting.get(plen, 0) | (new ^ same)
        if not (unseen or waiting):
            return


def _flood(n_dim: int, moves: Sequence[int], deltas: Sequence[int], max_energy: int):
    """Exhaustive minimax table over the n_dim-bit states: move i XORs
    moves[i] into the state and deltas[i] into its syndrome, which must be
    linear in the state, with every unit vector 1 << i among the moves (as
    the quotient image of a free column's flip always is). Returns (best,
    order): per state its value, and the index of its layer in the pop
    order of ``_layers``, in which the bucket queue pops the states when
    each layer is sorted by state. Both are written as bit planes, one
    bitset per bit of the value, so no Python loop runs per state."""
    best_planes, order_planes = [], []
    for index, (level, layer) in enumerate(_layers(n_dim, moves, deltas, max_energy)):
        for planes, value in ((best_planes, level), (order_planes, index)):
            planes += [0] * (value.bit_length() - len(planes))
            for j in range(value.bit_length()):
                if (value >> j) & 1:
                    planes[j] |= layer
    best = _per_state(best_planes, 1 << n_dim, max_energy >= 0xFF)
    return best, _per_state(order_planes, 1 << n_dim, False)


def _nearest(n_dim: int, moves: Sequence[int], deltas: Sequence[int], max_energy: int, target_pred):
    """First state popped with target_pred(state, energy), over the moves
    of ``_flood`` and in its pop order: buckets[level][path length] holds
    (state, syndrome) pairs, each layer popped sorted by state. A state is
    popped at its value, so only pred is kept, its root entry marked seen.
    Returns (state, value, pred, explored), explored counting pops.
    """
    n_states = 1 << n_dim  # pred entries start unseen: 0xFF, or 0xFFFF past 254 moves
    pred = bytearray(b"\xff") * n_states if len(moves) < 0xFF else array("H", [0xFFFF]) * n_states
    unseen, pred[0] = pred[0], 0
    buckets = [defaultdict(list) for _ in range(max_energy + 1)]
    buckets[0][0].append((0, 0))  # (state, syndrome)
    explored = 0
    indexed = tuple(enumerate(moves))
    for level, layers in enumerate(buckets):
        while layers:
            plen = min(layers)  # every key left exceeds the last layer popped
            layer = sorted(layers.pop(plen))
            plen += 1
            same = layers[plen]  # pushes at this level, on the next layer
            for state, syn in layer:
                explored += 1
                if target_pred(state, syn.bit_count()):
                    return state, level, pred, explored
                for mi, m in indexed:
                    ns = state ^ m
                    if pred[ns] == unseen:
                        pred[ns] = mi
                        nsyn = syn ^ deltas[mi]
                        e = nsyn.bit_count()
                        if e <= level:
                            same.append((ns, nsyn))
                        else:
                            buckets[e][plen].append((ns, nsyn))
            if not same:
                del layers[plen]
    raise NoTarget("no state satisfying the target predicate is reachable")


class _Tree(dict):
    """``tree[s]``: (parent move, lift) of state s in the search tree,
    derived from a table's layer ``order`` when first asked for and kept per
    state. The first state popped next to s pushes it, so its parent is the
    neighbour of least (layer, state), reached by the lowest move index with
    that image; zero images never reach a new state. The lift is the XOR of
    lift_moves along the tree path from 0 (0 without stabilizers)."""

    def __init__(self, order, quotient: Quotient):
        super().__init__({0: (None, 0)})
        self.order, self.n_dim, self.images, self.first = order, quotient.dim, quotient.images, {}
        self.lift_moves = quotient.lift_moves or (0,) * quotient.n
        for i, m in enumerate(self.images):
            if m:
                self.first.setdefault(m, i)

    def __missing__(self, state: int) -> tuple[int, int]:
        order, first, n_dim = self.order, self.first, self.n_dim
        path = []
        while state not in self:
            key = min((order[u] << n_dim) | u for u in map(state.__xor__, first))
            mi = first[state ^ (key & ((1 << n_dim) - 1))]
            path.append((state, mi))
            state ^= self.images[mi]
        lift = self[state][1]
        for state, mi in reversed(path):
            lift ^= self.lift_moves[mi]
            self[state] = (mi, lift)
        return mi, lift

    def moves(self, state: int) -> list[int]:
        """Move indices along the search tree from the zero state to ``state``."""
        seq = []
        while state:
            mi = self[state][0]
            seq.append(mi)
            state ^= self.images[mi]
        seq.reverse()
        return seq


def _walk(flips: Iterable[int], energy: SyndromeEnergy, state=None) -> PathRecord:
    """The walk from zero that flips each coordinate in turn, with the
    energy of each packed state, read off a running syndrome: flipping q
    XORs column q of the check matrix into it. ``state`` makes the recorded
    state from the packed bits, an ``energy.n_dim``-bit BitVec by default."""
    columns, syn, seq, energies = energy.columns, 0, [0], [0]
    for q in flips:
        seq.append(seq[-1] ^ (1 << q))
        syn ^= columns[q]
        energies.append(syn.bit_count())
    state = state or (lambda b: BitVec(energy.n_dim, b))
    return PathRecord(tuple(map(state, seq)), tuple(energies), max(energies))


def _normalize_targets(targets, n_dim: int):
    """A target predicate over packed states; a target that is neither a
    BitVec nor an int (a bool is neither), a BitVec of another length, an
    int outside [0, 2^n_dim) or an empty collection is rejected before any
    search."""
    if callable(targets):
        return lambda s, e: bool(targets(BitVec(n_dim, s)))
    if isinstance(targets, (BitVec, int)):
        targets = (targets,)
    goals = set()
    for t in targets:
        if isinstance(t, BitVec) and t.n != n_dim:
            raise DimensionMismatch(f"target of length {t.n}, search over {n_dim} dims")
        if isinstance(t, bool) or not isinstance(t, (BitVec, int)):
            raise TypeError(f"target must be a BitVec or an int, got {type(t).__name__}")
        bits = t.bits if isinstance(t, BitVec) else t
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


def _within(dim: int, cap: int) -> None:
    """CapExceeded if 2^dim quotient states exceed cap, before any quotient table."""
    if (1 << dim) > cap:
        raise CapExceeded(f"2^{dim} quotient states exceed cap {cap}")


def _reduce(basis, x: int) -> tuple[int, int]:
    """Reduce x by an echelon basis of (vector, edges used): (residue, edges used)."""
    edges = 0
    for vec, vec_edges in basis:
        if x ^ vec < x:  # x has vec's leading bit
            x ^= vec
            edges ^= vec_edges
    return x, edges


def _states_at(best, level: int):
    """States whose table value is ``level``, ascending."""
    s = -1
    try:
        while True:
            s = best.index(level, s + 1)
            yield s
    except ValueError:
        return


def _voltage_basis(best, tree: _Tree, quotient: Quotient):
    """(basis, edges, tags): an echelon basis of the voltages, edges taken
    in level order.

    An edge (u, q, v) lies at level max(best u, best v) and carries the
    voltage lift(u) ^ lift_moves[q] ^ lift(v), lifts read off the ``tree``:
    zero on tree edges, the stabilizer closing its fundamental cycle
    otherwise. The voltages up to level t span H_t, the stabilizers joined
    to 0 below t. ``edges`` lists the (u, q, v) whose voltages are
    independent of those before them, and tags[j] is the level of the j-th,
    the level at which the first j have all joined (tags[0] = 0). So the
    last edge used to reduce x gives the level at which x joins. ``basis``
    holds (vector, edges used) pairs sorted by leading bit, highest first,
    "edges used" a bitmask over ``edges``.
    """
    if not quotient.rows:
        return (), (), (0,)
    moves, lift_moves = quotient.images, quotient.lift_moves
    basis, edges, tags = [], [], [0]
    for t in range(max(best) + 1):
        for u in _states_at(best, t):
            for q, m in enumerate(moves):
                v = u ^ m
                if best[v] > t:
                    continue
                g = tree[u][1] ^ lift_moves[q] ^ tree[v][1]
                if not g:
                    continue
                g, used = _reduce(basis, g)
                if g:
                    basis.append((g, used ^ (1 << len(edges))))
                    basis.sort(reverse=True)
                    edges.append((u, q, v))
                    tags.append(t)
                    if len(edges) == quotient.rank:
                        return tuple(basis), tuple(edges), tuple(tags)
    return tuple(basis), tuple(edges), tuple(tags)


class MinimaxTable(_Record):
    """Exhaustive minimax values from the zero state.

    The search runs on ``quotient``, F2^n modulo a stabilizer group that
    leaves the energy unchanged (the empty group for classical tables, where
    quotient states are the vectors themselves), under unit flips: move q
    flips coordinate q. A table is its fill: ``best`` holds each quotient
    state's value and ``order`` the index of its layer in the pop order.
    The search ``tree``, each state's (parent move, tree lift), is derived
    from ``order`` on demand, and the voltages (``_voltage_basis``) from
    ``best`` and the tree when the table is built. ``value`` reads ``best``,
    the tree lift and the voltages' edge map (``_edge_map``); the witness
    flips (``_flips``) also walk the tree's parent moves.
    """

    _shown = ("energy",)

    def __init__(self, energy: SyndromeEnergy, quotient: Quotient, best, order):
        self._store(locals())

    @property
    def n_dim(self) -> int:
        return self.quotient.n

    @property
    def explored(self) -> int:
        return 1 << self.quotient.dim

    tree = cached_property(lambda self: _Tree(self.order, self.quotient))
    _voltages = cached_property(lambda self: _voltage_basis(self.best, self.tree, self.quotient))

    @cached_property
    def _edge_map(self) -> tuple[tuple, ...]:
        """Byte tables: reduction by the voltage basis is linear, so the
        edges it uses for x XOR tables[i] at byte i of x."""
        used = [_reduce(self._voltages[0], 1 << j)[1] for j in range(self.quotient.rank)]
        return tuple(tuple(linear_table(used[b : b + 8])) for b in range(0, len(used), 8))

    def _fiber(self, bits: int) -> tuple[int, int]:
        """(quotient state, voltage edges used from its tree lift to ``bits``)."""
        if isinstance(bits, bool) or not isinstance(bits, int):
            raise TypeError(f"state must be an int, got {type(bits).__name__}")
        q = self.quotient
        if not 0 <= bits < 1 << q.n:
            raise IndexOutOfRange(f"state {bits:#x} outside [0, 2^{q.n})")
        state, coords = q.split(bits)
        if q.rows:  # without stabilizers every lift is 0
            coords ^= self.tree[state][1]
        used = 0
        for table in self._edge_map:
            used ^= table[coords & 0xFF]
            coords >>= 8
        return state, used

    def value(self, bits: int) -> int:
        state, used = self._fiber(bits)
        return max(self.best[state], self._voltages[2][used.bit_length()])

    @property
    def stabilizer_max(self) -> int:
        """The largest value on span(quotient.rows), the level at which the
        last stabilizer joins 0 (0 without stabilizers); the largest value
        on base + span(quotient.rows) is max(value(base), stabilizer_max)."""
        return self._voltages[2][-1]

    def path(self, bits: int) -> PathRecord:
        """Peak-optimal walk to ``bits``, through the flips of ``_flips``."""
        return _walk(self._flips(bits), self.energy)

    def _flips(self, bits: int) -> list[int]:
        """Coordinates flipped, in order, by a peak-optimal walk to ``bits``:
        a loop around the fundamental cycle of each voltage used, then the
        lifted tree path. Every loop state is a stabilizer translate of a
        state at or below the loop's level."""
        state, used = self._fiber(bits)
        flips = []
        for j, (u, q, v) in enumerate(self._voltages[1]):
            if (used >> j) & 1:
                flips += self.tree.moves(u) + [q] + self.tree.moves(v)[::-1]
        flips += self.tree.moves(state)
        end = reduce(xor, (1 << q for q in flips), 0)
        if end != bits:
            raise WitnessError(f"table walk ends at {end:#x}, not at {bits:#x}")
        return flips


@lru_cache(maxsize=64)
def _table(rows: tuple, stab_rows: tuple, n: int) -> MinimaxTable:
    """Exhaustive table over F2^n / rowspace(stab_rows); callers check the cap.
    The voltages are built here with the fill, so a read stays a lookup."""
    q, energy = quotient(stab_rows, n), _energy(rows, n)
    table = MinimaxTable(energy, q, *_flood(q.dim, q.images, energy.columns, len(rows)))
    table._voltages
    return table


def _target_search(
    energy: SyndromeEnergy, stab_rows: tuple, target_pred, cap: int, state=None
) -> BarrierResult:
    """Nearest quotient state of F2^n / rowspace(stab_rows) under unit flips
    with target_pred(state, energy). The witness is the lifted tree path, so
    it ends at one n-bit vector of that state (recorded through ``state``,
    as in ``_walk``); with no stabilizers the quotient states are the
    vectors themselves."""
    q = quotient(stab_rows, energy.n_dim)
    _within(q.dim, cap)
    end, value, pred, explored = _nearest(q.dim, q.images, energy.columns, len(energy.rows), target_pred)
    flips, s = [], end  # the tree path, walked back from the end
    while s:
        flips.append(pred[s])
        s ^= q.images[flips[-1]]
    return BarrierResult(value, _walk(reversed(flips), energy, state), explored)


def _nonzero_codeword(state: int, energy: int) -> bool:
    return energy == 0 and state != 0


def classical_table(c: ClassicalCode, cap: int = DEFAULT_STATE_CAP) -> MinimaxTable:
    _within(c.n, cap)
    return _table(c.h.row_bits, (), c.n)


def sector_table(code: HgpCode, sector: str, cap: int = DEFAULT_STATE_CAP) -> MinimaxTable:
    """Exhaustive minimax table for one CSS sector, over 2^(n - rank S)
    quotient states; ``cap`` bounds that count, read off the parents."""
    _within(code.sector_dim(sector), cap)
    checks, stab = code.sector(sector)
    return _table(checks.row_bits, stab.row_bits, code.n_qubits)


def classical_barrier(c: ClassicalCode, cap: int = DEFAULT_STATE_CAP) -> BarrierResult:
    """Minimax barrier from zero to the nearest nonzero codeword."""
    if c.k == 0:
        raise NoLogicals("code has no nonzero codewords")
    return _target_search(_energy(c.h.row_bits, c.n), (), _nonzero_codeword, cap)


def _sector_result(code: HgpCode, kind: str, cap: int) -> BarrierResult:
    """Cheapest nontrivial logical of one sector, searched on the quotient:
    a nonzero quotient state without syndrome is a nontrivial logical coset,
    and the lifted tree path reaches one of its vectors at the coset's value."""
    _within(code.sector_dim(kind), cap)
    checks, stab = code.sector(kind)
    n = code.n_qubits
    state = lambda b: PauliVec.of_kind(kind, BitVec(n, b))
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
    if sector != "both":  # refused before any search, naming all three
        _is_z(sector, "'z', 'x' or 'both'")
    kinds = ("z", "x") if sector == "both" else (sector,)
    results = [_sector_result(code, kind, cap) for kind in kinds]
    return min(results, key=lambda r: r.value)  # the z result on a tie


def _pauli_walk(code: HgpCode, flips: Iterable[int], state=None) -> PathRecord:
    """``_walk`` over packed full-Pauli states (``HgpCode.pack``), its states
    PauliVecs by default: move q < n flips qubit q's x bit, move n + q its z bit."""
    n = code.n_qubits

    def pauli(bits: int) -> PauliVec:
        x, z = code.unpack(bits)
        return PauliVec(n, BitVec(n, x), BitVec(n, z))

    return _walk(flips, _energy(code.pauli_rows[0], 2 * n), state or pauli)


def pauli_table(code: HgpCode, cap: int = DEFAULT_STATE_CAP) -> MinimaxTable:
    """Exhaustive minimax table over the full Pauli group, packed states
    modulo HX on x and HZ on z (``HgpCode.pauli_rows``): 2^(n + k) quotient
    states, which ``cap`` bounds before HX or HZ is built. One cached table
    per code answers every target."""
    _within(code.n_qubits + code.k, cap)
    return _table(*code.pauli_rows, 2 * code.n_qubits)


def pauli_barrier_general(
    code: HgpCode, target: PauliVec, cap: int = DEFAULT_STATE_CAP
) -> BarrierResult:
    """Minimax over the full Pauli group: states are (x, z) pairs, and a step
    flips the x or the z bit of one qubit. A Y step, which flips both, would
    add nothing: the energy is E_x(x) + E_z(z), and of the two one-flip
    orders of a Y step, the one through the lower of the two intermediate
    energies peaks no higher than the Y step itself.

    The energy wt(HZ x) + wt(HX z) is unchanged when x gains a row of HX or z
    a row of HZ, so the search runs modulo both stabilizer groups: 2^(n + k)
    quotient states, which ``cap`` bounds: one cached ``pauli_table`` per
    code answers every target. Used to cross-check the sector decomposition.
    """
    code.check_pauli(target)
    table = pauli_table(code, cap)
    goal = code.pack(target.x.bits, target.z.bits)
    return BarrierResult(table.value(goal), _pauli_walk(code, table._flips(goal)), table.explored)


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
    code.check_pauli(p)
    if any(mat_vec(code.sector(kind)[0], p.part(kind)).bits for kind in ("x", "z")):
        raise OutsideNormalizer("Pauli anticommutes with a check; barrier is sector-mixed")
    tx = sector_table(code, "x", cap)
    tz = sector_table(code, "z", cap)
    value = max(tx.value(p.x.bits), tz.value(p.z.bits))
    record = _pauli_walk(code, tx._flips(p.x.bits) + [code.n_qubits + q for q in tz._flips(p.z.bits)])
    return BarrierResult(value, record, tx.explored + tz.explored)


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
    place = lambda b: PauliVec.of_kind(op.kind, placement(BitVec(parent.n, b)))
    goal = lambda s, e: s == word.bits
    sweep = _target_search(_energy(parent.h.row_bits, parent.n), (), goal, cap, place).witness
    energy = _energy(code.sector(op.kind)[0].row_bits, code.n_qubits)
    # the quantum energy along the sweep reduces exactly to the classical one
    if tuple(energy(s.part(op.kind)) for s in sweep.states) != sweep.energies:
        raise WitnessError("sweep energies differ from its classical leg's")
    if sweep.states[-1] != op.realized:
        raise WitnessError("sweep does not end at the canonical operator")
    return sweep


def stabilizer_path(code: HgpCode, s: PauliVec, generator_combo: BitVec) -> PathRecord:
    """Constructive path to a stabilizer: apply each selected generator in
    order, one qubit at a time. Generators are those of
    ``HgpCode.pauli_rows``; the peak energy is at most w_c * w_q.
    """
    gens = code.pauli_rows[1]
    if generator_combo.n != len(gens):
        raise DimensionMismatch(f"combo length {generator_combo.n}, need {len(gens)}")
    combo = generator_combo.bits
    code.check_pauli(s)
    if combine(gens, combo) != code.pack(s.x.bits, s.z.bits):
        raise NotAStabilizer("selected generators do not multiply to the given Pauli")
    return _pauli_walk(code, [q for g in _ones(combo) for q in _ones(gens[g])])


def validate_path(record: PathRecord, energy: Callable) -> bool:
    """Recheck a witness: single-coordinate steps and stored energies."""
    try:
        record.steps_json()
    except WitnessError:
        return False
    if any(energy(s) != e for s, e in zip(record.states, record.energies)):
        return False
    return record.max_energy == max(record.energies, default=0)
