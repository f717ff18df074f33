"""Path deformation: projecting Z-type paths onto a single grid column.

For a pure-Z Pauli on the product code, reshape the bit-bit part into the
n1 x n2 matrix Z1 and the check-check part into the r1 x r2 matrix Z2; the
energy is then wt(H1 Z1 + Z2 H2). Collapsing Z1's columns along a codeword
L_c of H2 (XOR the columns selected by L_c into one chosen column alpha,
zero everything else including Z2) never raises that energy:

    (H1 Z1 + Z2 H2) L_c = H1 (Z1 L_c)    because H2 L_c = 0,

and a sum of selected columns weighs no more than the whole matrix. Applied
pointwise to a path this confines it to one column while keeping every step
a single-qubit move, which is the engine behind the canonical-operator lower
bound. The check-check mirror collapses rows of Z2 along a codeword of H1^T.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import (
    DimensionMismatch,
    NotACodeword,
    TrivialOperator,
)
from .f2core import (
    BitMatrix,
    BitVec,
    combine,
    kernel_basis,
    mat_add,
    mat_mul,
    mat_vec,
    reshape,
    vec_split,
    weight,
)
from .hgp import HgpCode
from .logicals import CanonicalOp, PauliVec, _ingredients
from .barrier import PathRecord, energy_quantum

__all__ = [
    "DeformSpec",
    "deform_pauli",
    "deform_path",
    "deformation_trace",
    "weight_reduction_gap",
    "find_activating_codeword",
]


@dataclass(frozen=True)
class DeformSpec:
    """A collapse target: codeword, chosen column, and its support.

    block selects the grid being collapsed: "vv" collapses columns of the
    bit-bit block along a codeword of H2; "cc" collapses rows of the
    check-check block along a codeword of H1^T.
    """

    l_c: BitVec
    alpha: int
    col_set: frozenset[int]
    block: str = "vv"

    def __post_init__(self):
        if self.col_set != frozenset(self.l_c.support()):
            raise DimensionMismatch("col_set must be the support of the codeword")
        if self.alpha not in self.col_set:
            raise DimensionMismatch(f"alpha {self.alpha} not in the collapsed set")
        if self.block not in ("vv", "cc"):
            raise DimensionMismatch(f"unknown block {self.block!r}")


def _check_spec(code: HgpCode, spec: DeformSpec) -> None:
    if spec.block == "vv":
        check, name, length = code.h2.h, "H2", "n2"
    else:
        check, name, length = code.h1.h.transpose(), "H1^T", "r1"
    if spec.l_c.n != check.cols:
        raise DimensionMismatch(f"codeword length {spec.l_c.n}, need {length}={check.cols}")
    if mat_vec(check, spec.l_c).bits:
        raise NotACodeword(f"collapse codeword must satisfy {name} L = 0")


def deform_pauli(code: HgpCode, p: PauliVec, spec: DeformSpec) -> PauliVec:
    """Project a Pauli onto the collapse column; the x part is discarded.

    The result is pure-Z and supported on one column of the bit-bit grid
    (or one row of the check-check grid for a "cc" spec).
    """
    if p.n != code.n_qubits:
        raise DimensionMismatch(f"Pauli on {p.n} qubits, code has {code.n_qubits}")
    _check_spec(code, spec)
    vv, cc = vec_split(p.z, code.vv_count)
    if spec.block == "vv":
        z1 = reshape(vv, code.n1, code.n2)
        collapsed = mat_vec(z1, spec.l_c)
        bits = 0
        cb = collapsed.bits
        while cb:
            i = (cb & -cb).bit_length() - 1
            bits |= 1 << (i * code.n2 + spec.alpha)
            cb &= cb - 1
        return PauliVec.z_type(BitVec(code.n_qubits, bits))
    z2 = reshape(cc, code.r1, code.r2)
    row = 0
    for a in spec.col_set:
        row ^= z2.row_bits[a]
    bits = row << (code.vv_count + spec.alpha * code.r2)
    return PauliVec.z_type(BitVec(code.n_qubits, bits))


def deform_path(code: HgpCode, r: PathRecord, spec: DeformSpec) -> PathRecord:
    """Deform every state of a path and drop consecutive duplicates."""
    states = []
    for s in r.states:
        d = deform_pauli(code, s, spec)
        if not states or states[-1] != d:
            states.append(d)
    energies = tuple(energy_quantum(code, s) for s in states)
    return PathRecord(tuple(states), energies, max(energies, default=0))


def deformation_trace(code: HgpCode, r: PathRecord, spec: DeformSpec) -> list[dict]:
    """Per original step: energy before and after deformation."""
    out = []
    for i, s in enumerate(r.states):
        d = deform_pauli(code, s, spec)
        out.append(
            {
                "step": i,
                "original_energy": r.energies[i],
                "deformed_energy": energy_quantum(code, d),
            }
        )
    return out


def weight_reduction_gap(
    code: HgpCode, z1: BitMatrix, z2: BitMatrix, l_c: BitVec
) -> tuple[int, int]:
    """Both sides of the collapse inequality wt(H1 (Z1 L)) <= wt(H1 Z1 + Z2 H2)."""
    h1, h2 = code.h1.h, code.h2.h
    if (z1.rows, z1.cols) != (code.n1, code.n2):
        raise DimensionMismatch(f"Z1 is {z1.rows}x{z1.cols}, need {code.n1}x{code.n2}")
    if (z2.rows, z2.cols) != (code.r1, code.r2):
        raise DimensionMismatch(f"Z2 is {z2.rows}x{z2.cols}, need {code.r1}x{code.r2}")
    if l_c.n != code.n2:
        raise DimensionMismatch(f"codeword length {l_c.n}, need {code.n2}")
    if mat_vec(h2, l_c).bits:
        raise NotACodeword("L_c must be a codeword of H2")
    lhs = weight(mat_vec(h1, mat_vec(z1, l_c)))
    rhs = weight(mat_add(mat_mul(h1, z1), mat_mul(z2, h2)))
    return lhs, rhs


def _graded_combinations(k: int):
    for size in range(1, k + 1):
        yield from combinations(range(k), size)


def find_activating_codeword(code: HgpCode, op: CanonicalOp) -> DeformSpec:
    """Choose a collapse codeword that keeps the operator nontrivial.

    Works on the coefficient matrices: the collapsed column carries
    c_k = sum_{j in C(L)} lam[k, j], so we need a codeword whose support hits
    an odd number of ones in some row of lam (equivalently, a codeword not
    orthogonal to every u_k). Such a codeword always exists when lam is
    nonzero because each u_k lives on free columns, hence outside the row
    space of H2. Searched in graded-lex order over the kernel basis for a
    deterministic result. A pure check-check operator gets the mirrored
    treatment via H1^T: u_m sums the a_l over column m of kappa.

    Only Z-kind operators can be collapsed; any other kind raises
    DimensionMismatch.
    """
    if op.kind != "z":
        raise DimensionMismatch(f"cannot collapse a {op.kind!r}-kind operator, need 'z'")
    if not any(op.lam.row_bits) and not any(op.kappa.row_bits):
        raise TrivialOperator("all coefficients are zero")
    _, ys, als, _ = _ingredients(code, "z")
    if any(op.lam.row_bits):
        block, units, coeffs, check = "vv", ys, op.lam, code.h2.h
    else:
        block, units, coeffs, check = "cc", als, op.kappa.transpose(), code.h1.h.transpose()
    us = [combine([u.bits for u in units], row) for row in coeffs.row_bits]
    basis = [v.bits for v in kernel_basis(check)]
    for combo in _graded_combinations(len(basis)):
        l_c = BitVec(check.cols, combine(basis, sum(1 << i for i in combo)))
        if any((u & l_c.bits).bit_count() & 1 for u in us):
            alpha = min(l_c.support())
            return DeformSpec(l_c, alpha, frozenset(l_c.support()), block)
    raise TrivialOperator("no collapse codeword activates the operator")
