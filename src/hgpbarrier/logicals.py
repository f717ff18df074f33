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
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .errors import CapExceeded, DimensionMismatch, NoLogicals, NotElementary, ShapeMismatch
from .f2core import (
    BitMatrix,
    BitVec,
    combine,
    kernel_basis,
    mat_vec,
    row_reducer,
    rref,
    span,
    tensor_vec,
    unit_matrices,
)
from .hgp import HgpCode

__all__ = [
    "PauliVec",
    "PauliClass",
    "CanonicalOp",
    "canonical_z_basis",
    "canonical_x_basis",
    "compose_canonical",
    "compose_canonical_x",
    "elementary_leg",
    "classify",
    "enumerate_z_logicals",
    "enumerate_x_logicals",
]


@dataclass(frozen=True)
class PauliVec:
    """Binary symplectic representation: x and z flip patterns over N qubits."""

    n: int
    x: BitVec
    z: BitVec

    def __post_init__(self):
        if self.x.n != self.n or self.z.n != self.n:
            raise DimensionMismatch(
                f"parts of length {self.x.n}/{self.z.n} on {self.n} qubits"
            )

    @classmethod
    def identity(cls, n: int) -> "PauliVec":
        return cls(n, BitVec(n), BitVec(n))

    @classmethod
    def z_type(cls, z: BitVec) -> "PauliVec":
        return cls(z.n, BitVec(z.n), z)

    @classmethod
    def x_type(cls, x: BitVec) -> "PauliVec":
        return cls(x.n, x, BitVec(x.n))

    @classmethod
    def of_kind(cls, kind: str, v: BitVec) -> "PauliVec":
        """The pure-``kind`` Pauli flipping ``v``: Z flips for kind "z", X
        flips for kind "x"."""
        return cls.z_type(v) if _is_z(kind) else cls.x_type(v)

    def part(self, kind: str) -> BitVec:
        """The z part for kind "z", the x part for kind "x"."""
        return self.z if _is_z(kind) else self.x

    def __mul__(self, other: "PauliVec") -> "PauliVec":
        return PauliVec(self.n, self.x ^ other.x, self.z ^ other.z)

    def weight(self) -> int:
        return (self.x.bits | self.z.bits).bit_count()

    def support(self) -> tuple[int, ...]:
        return BitVec(self.n, self.x.bits | self.z.bits).support()

    def is_identity(self) -> bool:
        return not (self.x.bits or self.z.bits)


def _is_z(kind: str) -> bool:
    if kind not in ("z", "x"):
        raise DimensionMismatch(f"unknown kind {kind!r}, expected 'z' or 'x'")
    return kind == "z"


class PauliClass(enum.Enum):
    IDENTITY = "Identity"
    STABILIZER = "Stabilizer"
    NONTRIVIAL_LOGICAL = "NontrivialLogical"
    NON_COMMUTING = "NonCommuting"


@dataclass(frozen=True)
class CanonicalOp:
    """A canonical operator of ``kind`` "z" or "x": coefficients lam on the
    bit-bit block and kappa on the check-check block, and the Pauli they
    realize."""

    kind: str
    lam: BitMatrix
    kappa: BitMatrix
    realized: PauliVec

    def is_elementary(self) -> bool:
        ones = sum(r.bit_count() for r in self.lam.row_bits)
        ones += sum(r.bit_count() for r in self.kappa.row_bits)
        return ones == 1

    def coefficient(self) -> tuple[str, int, int]:
        """(block, row, column) of the one nonzero coefficient, block "vv"
        for lam and "cc" for kappa."""
        ones = [
            (block, i, j)
            for block, m in (("vv", self.lam), ("cc", self.kappa))
            for i in range(m.rows)
            for j in range(m.cols)
            if m.entry(i, j)
        ]
        if len(ones) != 1:
            raise NotElementary("operator must have exactly one nonzero coefficient")
        return ones[0]


@lru_cache(maxsize=256)
def _ingredients(code: HgpCode, kind: str):
    """(vv left, vv right, cc left, cc right): the vectors whose tensor
    products lam and kappa weight. Z takes kernels of H1 and H2^T and units
    of H2 and H1^T; X is the mirror, kernels of H2 and H1^T and units of H1
    and H2^T."""
    h1, h2 = code.h1.h, code.h2.h
    h1t, h2t = h1.transpose(), h2.transpose()
    units = lambda m: tuple(BitVec.unit(m.cols, c) for c in rref(m).free_cols)
    if kind == "z":
        return kernel_basis(h1), units(h2), units(h1t), kernel_basis(h2t)
    return units(h1), kernel_basis(h2), kernel_basis(h1t), units(h2t)


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
    for vec, sel in zip(left, lam.row_bits):
        vv ^= tensor_vec(vec, BitVec(code.n2, combine([r.bits for r in right], sel))).bits
    for vec, sel in zip(aside, kappa.row_bits):
        cc ^= tensor_vec(vec, BitVec(code.r2, combine([b.bits for b in bside], sel))).bits
    realized = PauliVec.of_kind(kind, BitVec(code.n_qubits, vv | cc << code.vv_count))
    return CanonicalOp(kind, lam, kappa, realized)


def compose_canonical(code: HgpCode, lam: BitMatrix, kappa: BitMatrix) -> CanonicalOp:
    """Realize the Z-type operator with the given coefficients.

    All-zero coefficients give the identity Pauli.
    """
    return _compose(code, "z", lam, kappa)


def compose_canonical_x(code: HgpCode, lam: BitMatrix, kappa: BitMatrix) -> CanonicalOp:
    return _compose(code, "x", lam, kappa)


def _basis(code: HgpCode, kind: str) -> list[CanonicalOp]:
    """The elementary operators of one kind, bit-bit block first."""
    if code.k == 0:
        raise NoLogicals("code has no logical qubits")
    left, right, aside, bside = _ingredients(code, kind)
    lam_shape, kappa_shape = (len(left), len(right)), (len(aside), len(bside))
    no_lam, no_kappa = BitMatrix.zeros(*lam_shape), BitMatrix.zeros(*kappa_shape)
    vv = [_compose(code, kind, lam, no_kappa) for lam in unit_matrices(*lam_shape)]
    return vv + [_compose(code, kind, no_lam, kap) for kap in unit_matrices(*kappa_shape)]


def canonical_z_basis(code: HgpCode) -> list[CanonicalOp]:
    """The k1*k2 + k1T*k2T elementary Z operators, bit-bit block first."""
    return _basis(code, "z")


def canonical_x_basis(code: HgpCode) -> list[CanonicalOp]:
    return _basis(code, "x")


def elementary_leg(code: HgpCode, op: CanonicalOp):
    """(parent check matrix, parent codeword, placement) of an elementary
    operator: the operator is ``placement(codeword)``, the codeword laid
    along one line of its block's grid, and ``placement`` maps any parent
    vector onto that line. A Z operator's codeword is a word of H1 (bit-bit)
    or H2^T (check-check), an X operator's a word of H2 or H1^T."""
    vv_left, vv_right, cc_left, cc_right = _fitted_ingredients(code, op.kind, op.lam, op.kappa)
    block, i, j = op.coefficient()
    left, right = (vv_left[i], vv_right[j]) if block == "vv" else (cc_left[i], cc_right[j])
    n, shift = code.n_qubits, 0 if block == "vv" else code.vv_count
    if (op.kind == "z") == (block == "vv"):  # the codeword is the left factor
        parent = code.h1.h if block == "vv" else code.h1.h.transpose()
        return parent, left, lambda w: BitVec(n, tensor_vec(w, right).bits << shift)
    parent = code.h2.h if block == "vv" else code.h2.h.transpose()
    return parent, right, lambda w: BitVec(n, tensor_vec(left, w).bits << shift)


def classify(code: HgpCode, p: PauliVec) -> PauliClass:
    """Place a Pauli in the normalizer hierarchy of the code."""
    if p.n != code.n_qubits:
        raise DimensionMismatch(f"Pauli on {p.n} qubits, code has {code.n_qubits}")
    if mat_vec(code.hx, p.z).bits or mat_vec(code.hz, p.x).bits:
        return PauliClass.NON_COMMUTING
    x_stab = row_reducer(code.hx)(p.x.bits) == 0
    z_stab = row_reducer(code.hz)(p.z.bits) == 0
    if x_stab and z_stab:
        if p.is_identity():
            return PauliClass.IDENTITY
        return PauliClass.STABILIZER
    return PauliClass.NONTRIVIAL_LOGICAL


def _enumerate_coset(check: BitMatrix, stab_rows: BitMatrix, cap: int) -> Iterator[BitVec]:
    basis = kernel_basis(check)
    if 1 << len(basis) > cap:
        raise CapExceeded(f"2^{len(basis)} kernel elements exceed cap {cap}")
    reduce_bits = row_reducer(stab_rows)
    for bits in span([v.bits for v in basis]):
        if reduce_bits(bits):
            yield BitVec(check.cols, bits)


def enumerate_z_logicals(code: HgpCode, cap: int = 1 << 20) -> Iterator[PauliVec]:
    """All Z parts in ker(HX) outside rowspace(HZ), as Z-type Paulis."""
    for z in _enumerate_coset(code.hx, code.hz, cap):
        yield PauliVec.z_type(z)


def enumerate_x_logicals(code: HgpCode, cap: int = 1 << 20) -> Iterator[PauliVec]:
    for x in _enumerate_coset(code.hz, code.hx, cap):
        yield PauliVec.x_type(x)
