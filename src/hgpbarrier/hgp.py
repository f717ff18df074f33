"""Hypergraph product of two classical codes.

Given check matrices H1 (r1 x n1) and H2 (r2 x n2), the product CSS code has

    HX = (H1 (x) I_n2 | I_r1 (x) H2^T)
    HZ = (I_n1 (x) H2 | H1^T (x) I_r2)

acting on N = n1*n2 + r1*r2 qubits. Qubits [0, n1*n2) form the bit-bit block
(coordinates (i, j) with i < n1, j < n2, row-major); qubits [n1*n2, N) form
the check-check block (coordinates (a, b) with a < r1, b < r2).
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .codes import DEFAULT_ENUM_CAP, ClassicalCode, CodeParams
from .errors import IndexOutOfRange, NoLogicals
from .f2core import BitMatrix, _Record, hstack, kron, mat_mul

__all__ = [
    "HgpCode",
    "build_hgp",
    "css_check",
    "hgp_parameters",
    "qubit_index",
    "index_to_block",
]


class HgpCode(_Record):
    def __init__(self, h1: ClassicalCode, h2: ClassicalCode, hx: BitMatrix, hz: BitMatrix):
        self._store(locals())

    # caches key on codes, and the fields' hash walks four matrices: take it once
    _hash = cached_property(lambda self: hash((self.h1, self.h2, self.hx, self.hz)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def n1(self) -> int:
        return self.h1.n

    @property
    def r1(self) -> int:
        return self.h1.r

    @property
    def n2(self) -> int:
        return self.h2.n

    @property
    def r2(self) -> int:
        return self.h2.r

    @property
    def vv_count(self) -> int:
        return self.n1 * self.n2

    @cached_property
    def n_qubits(self) -> int:
        return self.n1 * self.n2 + self.r1 * self.r2

    @property
    def k(self) -> int:
        """Logical qubits, k1*k2 + k1T*k2T; a transpose code has dimension r - rank."""
        return self.h1.k * self.h2.k + (self.r1 - self.h1.rank) * (self.r2 - self.h2.rank)

    @cached_property
    def w_c(self) -> int:
        """Largest stabilizer weight across both check matrices."""
        return max(r.bit_count() for r in (*self.hx.row_bits, *self.hz.row_bits))

    @cached_property
    def w_q(self) -> int:
        """Largest number of stabilizers touching one qubit."""
        columns = zip(self.hx.transpose().row_bits, self.hz.transpose().row_bits)
        return max(x.bit_count() + z.bit_count() for x, z in columns)


@lru_cache(maxsize=256)
def build_hgp(h1: ClassicalCode, h2: ClassicalCode) -> HgpCode:
    """The product of ``h1`` and ``h2``, built once per pair of parents; a
    repeated pair returns the same code, with its cached properties."""
    hx = hstack(
        kron(h1.h, BitMatrix.identity(h2.n)),
        kron(BitMatrix.identity(h1.r), h2.h.transpose()),
    )
    hz = hstack(
        kron(BitMatrix.identity(h1.n), h2.h),
        kron(h1.h.transpose(), BitMatrix.identity(h2.r)),
    )
    return HgpCode(h1, h2, hx, hz)


def css_check(code: HgpCode) -> bool:
    return mat_mul(code.hx, code.hz.transpose()).is_zero()


def hgp_parameters(code: HgpCode, cap: int = DEFAULT_ENUM_CAP) -> CodeParams:
    """[[n, k, d]] from the parent code parameters.

    k = k1*k2 + k1T*k2T. The distance is the minimum over the four parent
    distances, skipping the infinite ones (a parent with k = 0 contributes no
    logicals, hence no distance).
    """
    if code.k == 0:
        raise NoLogicals("code has no logical qubits, distance undefined")
    parents = (code.h1, code.h2, code.h1.transpose(), code.h2.transpose())
    return CodeParams(code.n_qubits, code.k, min(p.parameters(cap).d for p in parents))


def qubit_index(code: HgpCode, block: str, a: int, b: int) -> int:
    """Flat qubit index of VV coordinate (i, j) or CC coordinate (a, b)."""
    if block == "VV":
        if not (0 <= a < code.n1 and 0 <= b < code.n2):
            raise IndexOutOfRange(f"VV({a},{b}) outside {code.n1}x{code.n2}")
        return a * code.n2 + b
    if block == "CC":
        if not (0 <= a < code.r1 and 0 <= b < code.r2):
            raise IndexOutOfRange(f"CC({a},{b}) outside {code.r1}x{code.r2}")
        return code.vv_count + a * code.r2 + b
    raise IndexOutOfRange(f"unknown block {block!r}, expected 'VV' or 'CC'")


def index_to_block(code: HgpCode, q: int) -> tuple[str, int, int]:
    if not 0 <= q < code.n_qubits:
        raise IndexOutOfRange(f"qubit {q} outside [0, {code.n_qubits})")
    if q < code.vv_count:
        return "VV", q // code.n2, q % code.n2
    q -= code.vv_count
    return "CC", q // code.r2, q % code.r2
