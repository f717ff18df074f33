"""Hypergraph product of two classical codes.

Given check matrices H1 (r1 x n1) and H2 (r2 x n2), the product CSS code has

    HX = (H1 (x) I_n2 | I_r1 (x) H2^T)
    HZ = (I_n1 (x) H2 | H1^T (x) I_r2)

acting on N = n1*n2 + r1*r2 qubits. Qubits [0, n1*n2) form the bit-bit block
(coordinates (i, j) with i < n1, j < n2, row-major); qubits [n1*n2, N) form
the check-check block (coordinates (a, b) with a < r1, b < r2).

A code is its two parents: HX and HZ are built on first read, after every
cap has been read off the parents. The CSS conventions live here alone: the
matrices that check and stabilize each sector (``HgpCode.sector``), the
parents of Z and of X operators (``HgpCode.parents``), the packing of
full Paulis and generators (``HgpCode.pack``, ``HgpCode.pauli_rows``), and
the check of a Pauli argument (``HgpCode.check_pauli``).
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .codes import DEFAULT_STATE_CAP, ClassicalCode, CodeParams
from .errors import DimensionMismatch, IndexOutOfRange, NoLogicals
from .f2core import BitMatrix, BitVec, _Record, hstack, kron, mat_mul

__all__ = [
    "PauliVec",
    "HgpCode",
    "build_hgp",
    "css_check",
    "hgp_parameters",
    "qubit_index",
    "index_to_block",
]


def _is_z(kind: str, expected: str = "'z' or 'x'") -> bool:
    """Whether ``kind`` is "z" rather than "x": the one check of a kind,
    whose refusal names the ``expected`` kinds."""
    if kind in ("z", "x"):
        return kind == "z"
    if not isinstance(kind, str):
        raise TypeError(f"kind must be a str, got {type(kind).__name__}")
    raise DimensionMismatch(f"unknown kind {kind!r}, expected {expected}")


class PauliVec(_Record):
    """Binary symplectic representation: x and z flip patterns over N qubits."""

    def __init__(self, n: int, x: BitVec, z: BitVec):
        if x.n != n or z.n != n:
            raise DimensionMismatch(f"parts of length {x.n}/{z.n} on {n} qubits")
        self._store(locals())

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


class HgpCode(_Record):
    """The product of ``h1`` and ``h2``. Its fields are the two parents; HX,
    HZ and the transposed parents are built on first read and kept."""

    def __init__(self, h1: ClassicalCode, h2: ClassicalCode):
        self._store(locals())

    # caches key on codes, and the fields' hash walks both parents: take it once
    _hash = cached_property(lambda self: hash((self.h1, self.h2)))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def hx(self) -> BitMatrix:
        h1, h2 = self.h1.h, self.h2.h
        return hstack(kron(h1, BitMatrix.identity(self.n2)), kron(BitMatrix.identity(self.r1), h2.transpose()))

    @cached_property
    def hz(self) -> BitMatrix:
        h1, h2 = self.h1.h, self.h2.h
        return hstack(kron(BitMatrix.identity(self.n1), h2), kron(h1.transpose(), BitMatrix.identity(self.r2)))

    # the parents' sizes, and the number of bit-bit qubits
    n1 = property(lambda self: self.h1.n)
    r1 = property(lambda self: self.h1.r)
    n2 = property(lambda self: self.h2.n)
    r2 = property(lambda self: self.h2.r)
    vv_count = property(lambda self: self.n1 * self.n2)

    @cached_property
    def n_qubits(self) -> int:
        return self.n1 * self.n2 + self.r1 * self.r2

    @cached_property
    def _transposes(self) -> tuple[ClassicalCode, ClassicalCode]:
        return self.h1.transpose(), self.h2.transpose()

    @cached_property
    def k(self) -> int:
        """Logical qubits, k1*k2 + k1T*k2T."""
        h1t, h2t = self._transposes
        return self.h1.k * self.h2.k + h1t.k * h2t.k

    def sector(self, kind: str) -> tuple[BitMatrix, BitMatrix]:
        """(checks, stabilizers) of a CSS sector: z-space is checked by HX and
        taken modulo the rows of HZ, x-space the other way round."""
        return (self.hx, self.hz) if _is_z(kind) else (self.hz, self.hx)

    def sector_dim(self, kind: str) -> int:
        """log2 of the sector's quotient states, n - rank of its stabilizers,
        read off the parents without building HX or HZ: HZ has n1*r2 rows and
        the left kernel ker H1 (x) ker H2^T, so rank HZ = n1*r2 - k1*k2T, in
        the sizes of z's parents; HX mirrors it in those of x's."""
        vv, cc = self.parents(kind)
        return self.n_qubits - vv.n * cc.n + vv.k * cc.k

    def parents(self, kind: str) -> tuple[ClassicalCode, ClassicalCode]:
        """(bit-bit parent, check-check parent) of ``kind``'s canonical
        operators: their codewords are words of H1 and H2^T for Z, of H2 and
        H1^T for X. Each is one code per product, with its cached rank and
        kernel."""
        h1t, h2t = self._transposes
        return (self.h1, h2t) if _is_z(kind) else (self.h2, h1t)

    def check_pauli(self, p: PauliVec) -> None:
        """The one check of a Pauli argument: TypeError unless ``p`` is a
        PauliVec, DimensionMismatch unless it acts on this code's qubits."""
        if not isinstance(p, PauliVec):
            raise TypeError(f"expected a PauliVec, got {type(p).__name__}")
        if p.n != self.n_qubits:
            raise DimensionMismatch(f"Pauli on {p.n} qubits, code has {self.n_qubits}")

    @cached_property
    def pauli_rows(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(check rows, stabilizer generators) of the full Pauli group on
        packed states x | z << n: the x sector's rows on the x bits, then
        the z sector's on the z bits. So the energy of x | z << n is
        wt(HZ x) + wt(HX z), and the generators are the HX rows as X, then
        the HZ rows as Z."""
        (x_checks, x_stabs), (z_checks, z_stabs) = self.sector("x"), self.sector("z")
        packed = lambda xs, zs: (
            tuple(self.pack(r, 0) for r in xs.row_bits) + tuple(self.pack(0, r) for r in zs.row_bits)
        )
        return packed(x_checks, z_checks), packed(x_stabs, z_stabs)

    def pack(self, x: int, z: int) -> int:
        """A Pauli's x and z flips as one int of 2n bits, x | z << n: the
        packing of every full-Pauli state, check row and generator."""
        return x | z << self.n_qubits

    def unpack(self, bits: int) -> tuple[int, int]:
        """The (x, z) flips that ``pack`` packed into ``bits``."""
        n = self.n_qubits
        return bits & ((1 << n) - 1), bits >> n

    @cached_property
    def w_c(self) -> int:
        """Largest stabilizer weight across both check matrices, read off the
        parents: an HX row is a row of H1 beside a column of H2, an HZ row a
        row of H2 beside a column of H1."""
        return max(self.h1.w_c + self.h2.w_q, self.h2.w_c + self.h1.w_q)

    @cached_property
    def w_q(self) -> int:
        """Largest number of stabilizers touching one qubit: a bit-bit qubit
        meets a column of each parent, a check-check qubit a row of each."""
        return max(self.h1.w_q + self.h2.w_q, self.h1.w_c + self.h2.w_c)


@lru_cache(maxsize=256)
def build_hgp(h1: ClassicalCode, h2: ClassicalCode) -> HgpCode:
    """The product of ``h1`` and ``h2``, one per pair of parents; a repeated
    pair returns the same code, with its cached matrices and properties."""
    return HgpCode(h1, h2)


def css_check(code: HgpCode) -> bool:
    return mat_mul(code.hx, code.hz.transpose()).is_zero()


def hgp_parameters(code: HgpCode, cap: int = DEFAULT_STATE_CAP) -> CodeParams:
    """[[n, k, d]] from the parent code parameters.

    k = k1*k2 + k1T*k2T. The distance is the minimum over the four parent
    distances, skipping the infinite ones (a parent with k = 0 contributes no
    logicals, hence no distance).
    """
    if code.k == 0:
        raise NoLogicals("code has no logical qubits, distance undefined")
    parents = (code.h1, code.h2, *code._transposes)
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
