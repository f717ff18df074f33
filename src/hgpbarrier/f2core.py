"""Bit-packed linear algebra over GF(2).

Vectors and matrices pack their entries into Python integers, one integer per
matrix row. Bit i of a row holds coordinate i, so the least significant bit is
the first coordinate. Tensor coordinates follow row-major order: coordinate
(i*n2 + j) of a length n1*n2 vector corresponds to entry (i, j) of its n1 x n2
reshape. All values are immutable; every operation returns a new value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DimensionMismatch, IndexOutOfRange

__all__ = [
    "BitVec",
    "BitMatrix",
    "RrefResult",
    "weight",
    "combine",
    "span",
    "mat_mul",
    "mat_vec",
    "mat_add",
    "hstack",
    "kron",
    "tensor_vec",
    "vec_concat",
    "vec_split",
    "reshape",
    "flatten",
    "rref",
    "rank",
    "kernel_basis",
    "in_row_space",
    "row_reducer",
]


@dataclass(frozen=True, repr=False)
class BitVec:
    """A GF(2) vector of length ``n`` packed into a single integer.

    Parameters
    ----------
    n : int
        Number of coordinates.
    bits : int
        Packed payload; bit i is coordinate i. Bits at or above ``n`` must
        be zero.
    """

    n: int
    bits: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise DimensionMismatch("vector length must be nonnegative")
        if self.bits < 0 or self.bits >> self.n:
            raise IndexOutOfRange(f"payload has bits beyond length {self.n}")

    @classmethod
    def from_ints(cls, entries: Iterable[int]) -> "BitVec":
        entries = list(entries)
        bits = 0
        for i, e in enumerate(entries):
            if e not in (0, 1):
                raise DimensionMismatch(f"entry {e!r} is not a bit")
            bits |= e << i
        return cls(len(entries), bits)

    @classmethod
    def from_support(cls, n: int, support: Iterable[int]) -> "BitVec":
        bits = 0
        for q in support:
            if not 0 <= q < n:
                raise IndexOutOfRange(f"index {q} outside [0, {n})")
            bits |= 1 << q
        return cls(n, bits)

    @classmethod
    def from01(cls, text: str) -> "BitVec":
        """Parse a string like ``"0110"``; leftmost character is coordinate 0."""
        return cls.from_ints(int(ch) for ch in text)

    @classmethod
    def unit(cls, n: int, i: int) -> "BitVec":
        return cls.from_support(n, (i,))

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexOutOfRange(f"index {i} outside [0, {self.n})")
        return (self.bits >> i) & 1

    def __iter__(self) -> Iterator[int]:
        for i in range(self.n):
            yield (self.bits >> i) & 1

    def __xor__(self, other: "BitVec") -> "BitVec":
        if self.n != other.n:
            raise DimensionMismatch(f"length {self.n} vs {other.n}")
        return BitVec(self.n, self.bits ^ other.bits)

    def __bool__(self) -> bool:
        return self.bits != 0

    def support(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if (self.bits >> i) & 1)

    def to01(self) -> str:
        return "".join("1" if (self.bits >> i) & 1 else "0" for i in range(self.n))

    def __repr__(self) -> str:
        return f"BitVec({self.to01()!r})"

    def __str__(self) -> str:
        return self.to01()


@dataclass(frozen=True, repr=False)
class BitMatrix:
    """A GF(2) matrix stored as one packed integer per row."""

    rows: int
    cols: int
    row_bits: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise DimensionMismatch("matrix dimensions must be nonnegative")
        if len(self.row_bits) != self.rows:
            raise DimensionMismatch(
                f"{self.rows} rows declared but {len(self.row_bits)} provided"
            )
        for r in self.row_bits:
            if r < 0 or r >> self.cols:
                raise IndexOutOfRange(f"row has bits beyond {self.cols} columns")

    @classmethod
    def from_rows(cls, rows: Iterable) -> "BitMatrix":
        """Build from row vectors (BitVecs, 0/1 iterables, or 0/1 strings)."""
        parsed = []
        for row in rows:
            if isinstance(row, BitVec):
                parsed.append(row)
            elif isinstance(row, str):
                parsed.append(BitVec.from01(row))
            else:
                parsed.append(BitVec.from_ints(row))
        if not parsed:
            raise DimensionMismatch("cannot infer column count from zero rows")
        cols = parsed[0].n
        for v in parsed:
            if v.n != cols:
                raise DimensionMismatch(f"ragged rows: {v.n} vs {cols}")
        return cls(len(parsed), cols, tuple(v.bits for v in parsed))

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols, (0,) * rows)

    def row(self, i: int) -> BitVec:
        if not 0 <= i < self.rows:
            raise IndexOutOfRange(f"row {i} outside [0, {self.rows})")
        return BitVec(self.cols, self.row_bits[i])

    def column(self, j: int) -> BitVec:
        if not 0 <= j < self.cols:
            raise IndexOutOfRange(f"column {j} outside [0, {self.cols})")
        bits = 0
        for i, r in enumerate(self.row_bits):
            bits |= ((r >> j) & 1) << i
        return BitVec(self.rows, bits)

    def entry(self, i: int, j: int) -> int:
        return self.row(i)[j]

    def transpose(self) -> "BitMatrix":
        out = []
        for j in range(self.cols):
            bits = 0
            for i, r in enumerate(self.row_bits):
                bits |= ((r >> j) & 1) << i
            out.append(bits)
        return BitMatrix(self.cols, self.rows, tuple(out))

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.row_bits)

    def to01_rows(self) -> list[str]:
        return [self.row(i).to01() for i in range(self.rows)]

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"

    def __str__(self) -> str:
        return "\n".join(self.to01_rows())


@dataclass(frozen=True)
class RrefResult:
    """Reduced row-echelon form with its pivot columns."""

    rref: BitMatrix
    pivot_cols: tuple[int, ...]
    rank: int


def weight(v) -> int:
    """Number of ones in a BitVec or BitMatrix."""
    if isinstance(v, BitVec):
        return v.bits.bit_count()
    if isinstance(v, BitMatrix):
        return sum(r.bit_count() for r in v.row_bits)
    raise TypeError(f"weight() expects BitVec or BitMatrix, not {type(v).__name__}")


def combine(rows: Sequence[int], sel: int) -> int:
    """XOR of the packed ``rows`` selected by ``sel``: bit i selects rows[i]."""
    acc = 0
    for i in range(sel.bit_length()):
        if (sel >> i) & 1:
            acc ^= rows[i]
    return acc


def span(basis: Sequence[int]) -> Iterator[int]:
    """All 2^len(basis) XOR combinations of the packed ``basis`` vectors, zero
    first, in Gray-code order: each entry differs from the one before it by
    exactly one basis vector."""
    acc = 0
    yield acc
    for t in range(1, 1 << len(basis)):
        acc ^= basis[(t & -t).bit_length() - 1]
        yield acc


def mat_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """GF(2) matrix product.

    Each output row is the XOR of the rows of ``b`` selected by the
    corresponding row of ``a``.
    """
    if a.cols != b.rows:
        raise DimensionMismatch(f"cannot multiply {a.cols} columns into {b.rows} rows")
    out = []
    brows = b.row_bits
    for arow in a.row_bits:
        acc = 0
        while arow:
            j = (arow & -arow).bit_length() - 1
            acc ^= brows[j]
            arow &= arow - 1
        out.append(acc)
    return BitMatrix(a.rows, b.cols, tuple(out))


def mat_vec(a: BitMatrix, v: BitVec) -> BitVec:
    """Matrix-vector product; output bit i is the parity of row i AND v."""
    if v.n != a.cols:
        raise DimensionMismatch(f"vector length {v.n} vs {a.cols} columns")
    bits = 0
    vb = v.bits
    for i, r in enumerate(a.row_bits):
        if (r & vb).bit_count() & 1:
            bits |= 1 << i
    return BitVec(a.rows, bits)


def mat_add(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionMismatch(f"{a.rows}x{a.cols} vs {b.rows}x{b.cols}")
    return BitMatrix(a.rows, a.cols, tuple(x ^ y for x, y in zip(a.row_bits, b.row_bits)))


def hstack(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Concatenate columns: rows of ``b`` occupy the high bit positions."""
    if a.rows != b.rows:
        raise DimensionMismatch(f"{a.rows} rows vs {b.rows}")
    rows = tuple(x | (y << a.cols) for x, y in zip(a.row_bits, b.row_bits))
    return BitMatrix(a.rows, a.cols + b.cols, rows)


def kron(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Kronecker product; entry ((i*b.rows+p), (j*b.cols+q)) is a[i,j]*b[p,q]."""
    out = []
    for arow in a.row_bits:
        for brow in b.row_bits:
            bits = 0
            aa = arow
            while aa:
                j = (aa & -aa).bit_length() - 1
                bits |= brow << (j * b.cols)
                aa &= aa - 1
            out.append(bits)
    return BitMatrix(a.rows * b.rows, a.cols * b.cols, tuple(out))


def tensor_vec(a: BitVec, b: BitVec) -> BitVec:
    """Tensor product of vectors; coordinate (i*b.n + j) is a[i]*b[j]."""
    bits = 0
    aa = a.bits
    while aa:
        i = (aa & -aa).bit_length() - 1
        bits |= b.bits << (i * b.n)
        aa &= aa - 1
    return BitVec(a.n * b.n, bits)


def vec_concat(a: BitVec, b: BitVec) -> BitVec:
    return BitVec(a.n + b.n, a.bits | (b.bits << a.n))


def vec_split(v: BitVec, n_low: int) -> tuple[BitVec, BitVec]:
    if not 0 <= n_low <= v.n:
        raise DimensionMismatch(f"split point {n_low} outside [0, {v.n}]")
    return BitVec(n_low, v.bits & ((1 << n_low) - 1)), BitVec(v.n - n_low, v.bits >> n_low)


def reshape(v: BitVec, n1: int, n2: int) -> BitMatrix:
    """Reinterpret a length n1*n2 vector as an n1 x n2 matrix.

    Coordinate (i*n2 + j) becomes entry (i, j); the packing makes this a pure
    reinterpretation (each row is a contiguous slice of the payload).
    """
    if n1 < 0 or n2 < 0 or v.n != n1 * n2:
        raise DimensionMismatch(f"cannot reshape length {v.n} into {n1}x{n2}")
    mask = (1 << n2) - 1
    rows = tuple((v.bits >> (i * n2)) & mask for i in range(n1))
    return BitMatrix(n1, n2, rows)


def flatten(m: BitMatrix) -> BitVec:
    """Inverse of reshape: flatten(reshape(v, n1, n2)) == v."""
    bits = 0
    for i, r in enumerate(m.row_bits):
        bits |= r << (i * m.cols)
    return BitVec(m.rows * m.cols, bits)


@lru_cache(maxsize=1024)
def rref(a: BitMatrix) -> RrefResult:
    """Reduced row-echelon form over GF(2).

    Deterministic: for each column in ascending order the pivot is the lowest
    not-yet-used row with a one in that column, and the pivot row clears the
    column everywhere else.
    """
    rows = list(a.row_bits)
    pivots = []
    r = 0
    for c in range(a.cols):
        sel = None
        for i in range(r, a.rows):
            if (rows[i] >> c) & 1:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        for i in range(a.rows):
            if i != r and (rows[i] >> c) & 1:
                rows[i] ^= rows[r]
        pivots.append(c)
        r += 1
        if r == a.rows:
            break
    return RrefResult(BitMatrix(a.rows, a.cols, tuple(rows)), tuple(pivots), r)


def rank(a: BitMatrix) -> int:
    return rref(a).rank


def kernel_basis(a: BitMatrix) -> tuple[BitVec, ...]:
    """Basis of the right kernel {v : Av = 0}, one vector per non-pivot column.

    Vector for free column c has bit c set and, at each pivot column p_i, the
    entry of rref row i in column c. Ordered by ascending free column.
    """
    res = rref(a)
    piv = res.pivot_cols
    pivset = set(piv)
    rr = res.rref.row_bits
    basis = []
    for c in range(a.cols):
        if c in pivset:
            continue
        bits = 1 << c
        for i, p in enumerate(piv):
            if (rr[i] >> c) & 1:
                bits |= 1 << p
        basis.append(BitVec(a.cols, bits))
    return tuple(basis)


def row_reducer(a: BitMatrix) -> Callable[[int], int]:
    """Return a function reducing packed vectors modulo the row space of ``a``.

    The reduced value is 0 exactly when the vector lies in the row space;
    membership tests in hot loops should use this rather than in_row_space.
    """
    res = rref(a)
    pairs = tuple((res.rref.row_bits[i], p) for i, p in enumerate(res.pivot_cols))

    def reduce_bits(bits: int) -> int:
        for row, p in pairs:
            if (bits >> p) & 1:
                bits ^= row
        return bits

    return reduce_bits


def in_row_space(a: BitMatrix, v: BitVec) -> bool:
    if v.n != a.cols:
        raise DimensionMismatch(f"vector length {v.n} vs {a.cols} columns")
    return row_reducer(a)(v.bits) == 0
