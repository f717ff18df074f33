"""Canonical logical operators and Pauli classification for product codes.

A Z-type canonical operator is determined by two coefficient matrices: lam
(k1 x k2) weights the vectors xbar_k (x) y_j on the bit-bit block, kappa
(k1T x k2T) weights a_l (x) bbar_m on the check-check block, where

    xbar_k : kernel basis of H1          y_j : units at free columns of H2
    a_l    : units at free columns of H1^T   bbar_m : kernel basis of H2^T

The unit vectors sit at non-pivot columns, which keeps them outside the
relevant row spaces, so any nonzero coefficient choice realizes an operator
that is logical and not a stabilizer. X-type operators mirror this through
the H1 <-> H2^T symmetry of the construction.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from functools import lru_cache

from .codes import DEFAULT_STATE_CAP
from .errors import CapExceeded, NoLogicals, NotElementary, ShapeMismatch
from .f2core import (
    BitMatrix,
    BitVec,
    _ones,
    _Record,
    combine,
    kernel_basis,
    mat_vec,
    quotient,
    rref,
    span,
    tensor_vec,
    unit_matrices,
)
from .hgp import HgpCode, PauliVec

__all__ = [
    "PauliVec",  # defined in hgp, with the other CSS conventions
    "PauliClass",
    "CanonicalOp",
    "canonical_z_basis",
    "canonical_x_basis",
    "compose_canonical",
    "elementary_leg",
    "classify",
    "enumerate_z_logicals",
    "enumerate_x_logicals",
]


class PauliClass(enum.Enum):
    IDENTITY = "Identity"
    STABILIZER = "Stabilizer"
    NONTRIVIAL_LOGICAL = "NontrivialLogical"
    NON_COMMUTING = "NonCommuting"


class CanonicalOp(_Record):
    """A canonical operator of ``kind`` "z" or "x": coefficients lam on the
    bit-bit block and kappa on the check-check block, and the Pauli they
    realize."""

    def __init__(self, kind: str, lam: BitMatrix, kappa: BitMatrix, realized: PauliVec):
        self._store(locals())

    def coefficient(self) -> tuple[str, int, int]:
        """(block, row, column) of the one nonzero coefficient, block "vv"
        for lam and "cc" for kappa."""
        ones = [
            (block, i, j)
            for block, m in (("vv", self.lam), ("cc", self.kappa))
            for i, row in enumerate(m.row_bits)
            for j in _ones(row)
        ]
        if len(ones) != 1:
            raise NotElementary("operator must have exactly one nonzero coefficient")
        return ones[0]


@lru_cache(maxsize=256)
def _ingredients(code: HgpCode, kind: str):
    """(vv left, vv right, cc left, cc right): the vectors whose tensor
    products lam and kappa weight. Each block pairs the kernel of ``kind``'s
    parent with the units of the mirror kind's: for Z kernels of H1 and H2^T
    and units of H2 and H1^T, for X the other way round."""
    (h1, h2t), (h2, h1t) = code.parents("z"), code.parents("x")
    units = lambda c: tuple(BitVec.unit(c.n, col) for col in rref(c.h).free_cols)
    if kind == "z":
        return h1.kernel, units(h2), units(h1t), h2t.kernel
    return units(h1), h2.kernel, h1t.kernel, units(h2t)


def _fitted_ingredients(code: HgpCode, kind: str, lam: BitMatrix, kappa: BitMatrix):
    """``_ingredients(code, kind)``, once lam and kappa are shown to have the
    shapes they weight; an operator of another code raises ShapeMismatch."""
    left, right, aside, bside = ingredients = _ingredients(code, kind)
    if (lam.rows, lam.cols) != (len(left), len(right)):
        raise ShapeMismatch(f"lam is {lam.rows}x{lam.cols}, need {len(left)}x{len(right)}")
    if (kappa.rows, kappa.cols) != (len(aside), len(bside)):
        raise ShapeMismatch(
            f"kappa is {kappa.rows}x{kappa.cols}, need {len(aside)}x{len(bside)}"
        )
    return ingredients


def _compose(code: HgpCode, kind: str, lam: BitMatrix, kappa: BitMatrix) -> CanonicalOp:
    left, right, aside, bside = _fitted_ingredients(code, kind, lam, kappa)
    vv = cc = 0  # block k of each sum: left[k] (x) the right vectors row k selects
    rights, bsides = [r.bits for r in right], [b.bits for b in bside]
    for vec, sel in zip(left, lam.row_bits):
        if sel:
            vv ^= tensor_vec(vec, BitVec(code.n2, combine(rights, sel))).bits
    for vec, sel in zip(aside, kappa.row_bits):
        if sel:
            cc ^= tensor_vec(vec, BitVec(code.r2, combine(bsides, sel))).bits
    realized = PauliVec.of_kind(kind, BitVec(code.n_qubits, vv | cc << code.vv_count))
    return CanonicalOp(kind, lam, kappa, realized)


def compose_canonical(code: HgpCode, lam: BitMatrix, kappa: BitMatrix) -> CanonicalOp:
    """Realize the Z-type operator with the given coefficients.

    All-zero coefficients give the identity Pauli.
    """
    return _compose(code, "z", lam, kappa)


@lru_cache(maxsize=256)
def _basis(code: HgpCode, kind: str) -> tuple[CanonicalOp, ...]:
    """The elementary operators of one kind, bit-bit block first, composed
    once per code; NoLogicals propagates and is not cached."""
    if code.k == 0:
        raise NoLogicals("code has no logical qubits")
    left, right, aside, bside = _ingredients(code, kind)
    lam_shape, kappa_shape = (len(left), len(right)), (len(aside), len(bside))
    no_lam, no_kappa = BitMatrix.zeros(*lam_shape), BitMatrix.zeros(*kappa_shape)
    vv = [_compose(code, kind, lam, no_kappa) for lam in unit_matrices(*lam_shape)]
    return tuple(vv + [_compose(code, kind, no_lam, kap) for kap in unit_matrices(*kappa_shape)])


def canonical_z_basis(code: HgpCode) -> list[CanonicalOp]:
    """The k1*k2 + k1T*k2T elementary Z operators, bit-bit block first, as a
    new list on every call."""
    return list(_basis(code, "z"))


def canonical_x_basis(code: HgpCode) -> list[CanonicalOp]:
    return list(_basis(code, "x"))


def elementary_leg(code: HgpCode, op: CanonicalOp):
    """(parent code, parent codeword, placement) of an elementary
    operator: the operator is ``placement(codeword)``, the codeword laid
    along one line of its block's grid, and ``placement`` maps any parent
    vector onto that line. The parent is the code ``code.parents`` holds: a
    Z operator's codeword is a word of H1 (bit-bit) or H2^T (check-check),
    an X operator's a word of H2 or H1^T."""
    vv_left, vv_right, cc_left, cc_right = _fitted_ingredients(code, op.kind, op.lam, op.kappa)
    block, i, j = op.coefficient()
    left, right = (vv_left[i], vv_right[j]) if block == "vv" else (cc_left[i], cc_right[j])
    n, shift = code.n_qubits, 0 if block == "vv" else code.vv_count
    parent = code.parents(op.kind)[block == "cc"]
    if (op.kind == "z") == (block == "vv"):  # the codeword is the left factor
        return parent, left, lambda w: BitVec(n, tensor_vec(w, right).bits << shift)
    return parent, right, lambda w: BitVec(n, tensor_vec(left, w).bits << shift)


def classify(code: HgpCode, p: PauliVec) -> PauliClass:
    """Place a Pauli in the normalizer hierarchy of the code."""
    code.check_pauli(p)
    sectors = [(*code.sector(kind), p.part(kind)) for kind in ("x", "z")]
    if any(mat_vec(checks, v).bits for checks, _, v in sectors):
        return PauliClass.NON_COMMUTING
    if all(v.bits in quotient(stabs.row_bits, code.n_qubits) for _, stabs, v in sectors):
        if p.is_identity():
            return PauliClass.IDENTITY
        return PauliClass.STABILIZER
    return PauliClass.NONTRIVIAL_LOGICAL


def _enumerate_coset(code: HgpCode, kind: str, cap: int) -> Iterator[PauliVec]:
    """The pure-``kind`` Paulis whose part is in the kernel of the sector's
    checks and outside its stabilizers' row space."""
    checks, stabs = code.sector(kind)
    basis = kernel_basis(checks)
    if 1 << len(basis) > cap:
        raise CapExceeded(f"2^{len(basis)} kernel elements exceed cap {cap}")
    split = quotient(stabs.row_bits, checks.cols).split
    for bits in span([v.bits for v in basis]):
        if split(bits)[0]:
            yield PauliVec.of_kind(kind, BitVec(checks.cols, bits))


def enumerate_z_logicals(code: HgpCode, cap: int = DEFAULT_STATE_CAP) -> Iterator[PauliVec]:
    """All Z parts in ker(HX) outside rowspace(HZ), as Z-type Paulis."""
    yield from _enumerate_coset(code, "z", cap)


def enumerate_x_logicals(code: HgpCode, cap: int = DEFAULT_STATE_CAP) -> Iterator[PauliVec]:
    yield from _enumerate_coset(code, "x", cap)
