"""Independent GF(2) and minimax arithmetic used to check the program's answers.

Nothing here imports hgpbarrier. Matrices are tuples of row integers (bit j
of a row is column j), the same packing the input files describe, so every
check recomputes energies, kernels and row spaces from the raw rows.
"""

from __future__ import annotations

import heapq


def transpose(rows, n_cols):
    out = [0] * n_cols
    for i, r in enumerate(rows):
        for j in range(n_cols):
            if (r >> j) & 1:
                out[j] |= 1 << i
    return tuple(out)


def hgp_rows(h1, n1, h2, n2):
    """Check rows (hx, hz) and qubit count of the hypergraph product.

    HX = (H1 (x) I_n2 | I_r1 (x) H2^T), HZ = (I_n1 (x) H2 | H1^T (x) I_r2);
    bit-bit qubit (i, j) is i*n2 + j, check-check qubit (a, b) is
    n1*n2 + a*r2 + b.
    """
    r1, r2 = len(h1), len(h2)
    vv = n1 * n2
    hx = []
    for a in range(r1):
        for j in range(n2):
            bits = 0
            for i in range(n1):
                if (h1[a] >> i) & 1:
                    bits |= 1 << (i * n2 + j)
            for b in range(r2):
                if (h2[b] >> j) & 1:
                    bits |= 1 << (vv + a * r2 + b)
            hx.append(bits)
    hz = []
    for i in range(n1):
        for b in range(r2):
            bits = 0
            for j in range(n2):
                if (h2[b] >> j) & 1:
                    bits |= 1 << (i * n2 + j)
            for a in range(r1):
                if (h1[a] >> i) & 1:
                    bits |= 1 << (vv + a * r2 + b)
            hz.append(bits)
    return tuple(hx), tuple(hz), vv + r1 * r2


def energy(rows, bits):
    return sum((r & bits).bit_count() & 1 for r in rows)


def echelon(rows):
    """XOR basis of the row space, keyed by leading bit."""
    basis = {}
    for v in rows:
        while v:
            lead = v.bit_length() - 1
            if lead not in basis:
                basis[lead] = v
                break
            v ^= basis[lead]
    return basis


def reduce(basis, v):
    while v:
        lead = v.bit_length() - 1
        if lead not in basis:
            return v
        v ^= basis[lead]
    return 0


def rank(rows):
    return len(echelon(rows))


def kernel_basis(rows, n):
    """Basis of {v : rows . v = 0} by column elimination."""
    pivots = {}  # pivot column -> reduced row
    for r in rows:
        for c, pr in pivots.items():
            if (r >> c) & 1:
                r ^= pr
        if r:
            c = (r & -r).bit_length() - 1
            for pc in list(pivots):
                if (pivots[pc] >> c) & 1:
                    pivots[pc] ^= r
            pivots[c] = r
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        v = 1 << f
        for c, pr in pivots.items():
            if (pr >> f) & 1:
                v |= 1 << c
        basis.append(v)
    return basis


def span(basis):
    """All 2^len(basis) combinations, zero first."""
    acc = 0
    yield acc
    for t in range(1, 1 << len(basis)):
        acc ^= basis[(t & -t).bit_length() - 1]
        yield acc


def nontrivial_logicals(check_rows, stab_rows, n):
    """Elements of ker(check_rows) outside rowspace(stab_rows)."""
    stab = echelon(stab_rows)
    return [v for v in span(kernel_basis(check_rows, n)) if reduce(stab, v)]


def distance(rows, n):
    words = [v for v in span(kernel_basis(rows, n)) if v]
    return min((v.bit_count() for v in words), default=None)


def minimax_all(rows, n):
    """Exact minimax value from 0 of every state; single-bit moves."""
    best = [None] * (1 << n)
    best[0] = 0
    heap = [(0, 0)]
    while heap:
        m, s = heapq.heappop(heap)
        if m != best[s]:
            continue
        for q in range(n):
            t = s ^ (1 << q)
            nm = max(m, energy(rows, t))
            if best[t] is None or nm < best[t]:
                best[t] = nm
                heapq.heappush(heap, (nm, t))
    return best


def classical_barrier(rows, n):
    """Minimax barrier to the cheapest nonzero codeword, or None when k = 0."""
    words = [v for v in span(kernel_basis(rows, n)) if v]
    if not words:
        return None
    best = minimax_all(rows, n)
    return min(best[v] for v in words)


def path_errors(states, energies, value, energy_of):
    """Problems with a witness walk: single-coordinate steps from the zero
    state, energies recomputed by ``energy_of``, and a peak equal to ``value``."""
    errors = []
    if not states or states[0] != 0:
        errors.append("walk does not start at the origin")
    for a, b in zip(states, states[1:]):
        if (a ^ b).bit_count() != 1:
            errors.append("a step changes more or less than one coordinate")
            break
    if len(energies) != len(states):
        errors.append("one energy per state required")
    elif [energy_of(s) for s in states] != list(energies):
        errors.append("listed energies differ from recomputed ones")
    if max(energies, default=0) != value:
        errors.append(f"peak {max(energies, default=0)} differs from value {value}")
    return errors
