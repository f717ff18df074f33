"""Bit-packed linear algebra over GF(2).

Vectors and matrices pack their entries into Python integers, one integer per
matrix row. Bit i of a row holds coordinate i, so the least significant bit is
the first coordinate. Tensor coordinates follow row-major order: coordinate
(i*n2 + j) of a length n1*n2 vector corresponds to entry (i, j) of its n1 x n2
reshape. All values are immutable; every operation returns a new value.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property, lru_cache
from operator import attrgetter

from .errors import DimensionMismatch, IndexOutOfRange

__all__ = [
    "BitVec",
    "BitMatrix",
    "RrefResult",
    "weight",
    "combine",
    "span",
    "linear_table",
    "unit_matrices",
    "mat_mul",
    "mat_vec",
    "mat_add",
    "hstack",
    "kron",
    "tensor_vec",
    "vec_split",
    "reshape",
    "flatten",
    "rref",
    "rank",
    "kernel_basis",
    "Quotient",
    "quotient",
]


def _ones(bits: int) -> Iterator[int]:
    """Indices of the set bits of a nonnegative int, ascending."""
    while bits:
        yield (bits & -bits).bit_length() - 1
        bits &= bits - 1


class _Record:
    """A frozen value record. Its fields are its ``__init__``'s positional
    parameters, in order, unless the class names them in ``_fields``; the
    ``__init__`` checks its arguments and stores them with
    ``self._store(locals())``. Records of one type compare and hash as their
    field tuples, and the repr shows the fields in ``_shown`` (all of them
    unless a subclass says otherwise). Instances keep a ``__dict__``, so
    ``cached_property`` works on them."""

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = fields = vars(cls).get("_fields", code.co_varnames[1 : code.co_argcount])
        # closures over one C getter per class: a method would look the
        # getter up on each call, twice per comparison
        get = attrgetter(*fields)
        cls._shown = vars(cls).get("_shown", fields)
        # object's own store, found once per class past the frozen
        # __setattr__, keeps the fields in the instance's inline values;
        # filling the __dict__ directly would slow every later field read
        # and grow every record
        store = super(_Record, cls).__setattr__

        def _store(self, scope: dict) -> None:
            for name in fields:
                store(self, name, scope[name])

        cls._store = _store
        cls.__eq__ = lambda self, other: (
            get(self) == get(other) if other.__class__ is self.__class__ else NotImplemented
        )
        if "__hash__" in vars(cls):  # HgpCode caches its hash; a VerifyReport has none
            return
        if len(fields) == 1:  # the getter returns a lone field bare
            cls.__hash__ = lambda self: hash((get(self),))
        else:
            cls.__hash__ = lambda self: hash(get(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"


class BitVec(_Record):
    """A GF(2) vector of length ``n`` packed into a single integer.

    Parameters
    ----------
    n : int
        Number of coordinates.
    bits : int
        Packed payload; bit i is coordinate i. Bits at or above ``n`` must
        be zero.
    """

    def __init__(self, n: int, bits: int = 0):
        if n < 0:
            raise DimensionMismatch("vector length must be nonnegative")
        if bits < 0 or bits >> n:
            raise IndexOutOfRange(f"payload has bits beyond length {n}")
        self._store(locals())

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
        return tuple(_ones(self.bits))

    def to01(self) -> str:
        # the marker bit at n keeps the leading zeros; "" when n is 0
        return bin(self.bits | 1 << self.n)[3:][::-1]

    def __repr__(self) -> str:
        return f"BitVec({self.to01()!r})"

    def __str__(self) -> str:
        return self.to01()


class BitMatrix(_Record):
    """A GF(2) matrix stored as one packed integer per row."""

    def __init__(self, rows: int, cols: int, row_bits: tuple[int, ...]):
        if rows < 0 or cols < 0:
            raise DimensionMismatch("matrix dimensions must be nonnegative")
        if len(row_bits) != rows:
            raise DimensionMismatch(f"{rows} rows declared but {len(row_bits)} provided")
        for r in row_bits:
            if r < 0 or r >> cols:
                raise IndexOutOfRange(f"row has bits beyond {cols} columns")
        self._store(locals())

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
        out = [0] * self.cols
        for i, r in enumerate(self.row_bits):
            bit = 1 << i
            while r:
                low = r & -r
                out[low.bit_length() - 1] |= bit
                r ^= low
        return BitMatrix(self.cols, self.rows, tuple(out))

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.row_bits)

    def to01_rows(self) -> list[str]:
        return [bin(r | 1 << self.cols)[3:][::-1] for r in self.row_bits]  # as BitVec.to01

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"

    def __str__(self) -> str:
        return "\n".join(self.to01_rows())


class RrefResult(_Record):
    """Reduced row-echelon form with its pivot columns."""

    def __init__(self, rref: BitMatrix, pivot_cols: tuple[int, ...], rank: int):
        self._store(locals())

    @property
    def free_cols(self) -> tuple[int, ...]:
        """The non-pivot columns, ascending."""
        pivots = set(self.pivot_cols)
        return tuple(c for c in range(self.rref.cols) if c not in pivots)


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


def linear_table(images: Sequence[int]) -> list[int]:
    """The linear map sending bit j to the packed ``images[j]``, tabulated in
    index order: entry i is ``combine(images, i)``. Spanned by doubling, so
    each entry costs one XOR."""
    table = [0]
    for w in images:
        table += [t ^ w for t in table]
    return table


def unit_matrices(rows: int, cols: int) -> Iterator[BitMatrix]:
    """The rows * cols one-hot rows x cols matrices, in row-major order of
    their one entry."""
    for i in range(rows):
        for j in range(cols):
            yield BitMatrix(rows, cols, tuple((1 << j) if r == i else 0 for r in range(rows)))


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
    free = 0  # OR of the rows not yet used as pivots
    for row in rows:
        free |= row
    r = 0
    while free:
        # unused rows are zero in every column before the next pivot column,
        # so that column is the lowest bit any of them holds
        bit = free & -free
        sel = r
        while not rows[sel] & bit:
            sel += 1
        rows[r], rows[sel] = rows[sel], rows[r]
        pivot = rows[r]
        free = 0
        for i, row in enumerate(rows):
            if row & bit and i != r:
                row ^= pivot
                rows[i] = row
            if i > r:
                free |= row
        pivots.append(bit.bit_length() - 1)
        r += 1
    return RrefResult(BitMatrix(a.rows, a.cols, tuple(rows)), tuple(pivots), r)


def rank(a: BitMatrix) -> int:
    return rref(a).rank


def kernel_basis(a: BitMatrix) -> tuple[BitVec, ...]:
    """Basis of the right kernel {v : Av = 0}, one vector per non-pivot column.

    Vector for free column c has bit c set and, at each pivot column p_i, the
    entry of rref row i in column c. Ordered by ascending free column.
    """
    res = rref(a)
    pivots = tuple(zip(res.rref.row_bits, res.pivot_cols))
    return tuple(
        BitVec(a.cols, sum((1 << p for row, p in pivots if (row >> c) & 1), 1 << c))
        for c in res.free_cols
    )


class Quotient(_Record):
    """F2^n modulo the row space of a matrix S, such as a stabilizer group.

    ``rows`` are the nonzero rows R_i of rref(S); the pivot p_i of R_i is its
    lowest set bit, and no other row has bit p_i. Every vector splits uniquely
    as z = f ^ (XOR of the R_i whose pivot bit is set in z), where f is zero
    on the pivots. The quotient state of z packs f's free columns, low to
    high; its lift coordinates are z's pivot bits, bit i standing for R_i, so
    z lies in the row space (``z in quotient``) exactly when its state is 0.
    Both maps are linear: ``images`` and ``lift_moves`` hold both maps of
    each unit vector (``lift_moves`` is None when S is zero), and ``split``
    reads them off per-byte tables. All three are built on first use, so
    ``dim`` can be checked against a cap before anything of size n is built.
    """

    def __init__(self, n: int, rows: tuple[int, ...]):
        self._store(locals())

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def dim(self) -> int:
        return self.n - len(self.rows)

    @cached_property
    def _words(self) -> list[int]:
        """image | lift << dim of each unit vector e_q: a free column is its
        own state, and a pivot's e_p is R_i plus R_i's free columns."""
        pivots = sum(row & -row for row in self.rows)
        free = {q: 1 << i for i, q in enumerate(q for q in range(self.n) if not (pivots >> q) & 1)}
        words = [free.get(q, 0) for q in range(self.n)]
        for i, row in enumerate(self.rows):
            image = sum(free.get(q, 0) for q in _ones(row))
            words[(row & -row).bit_length() - 1] = image | 1 << (self.dim + i)
        return words

    @cached_property
    def images(self) -> tuple[int, ...]:
        return tuple(w & ((1 << self.dim) - 1) for w in self._words)

    @cached_property
    def lift_moves(self) -> tuple[int, ...] | None:
        return tuple(w >> self.dim for w in self._words) if self.rows else None

    @cached_property
    def _split_maps(self) -> tuple:
        """(per-byte tables, state mask, dim): all ``split`` reads, in one lookup."""
        words, dim = self._words, self.dim
        tables = tuple(tuple(linear_table(words[b : b + 8])) for b in range(0, self.n, 8))
        return tables, (1 << dim) - 1, dim

    def __contains__(self, bits: int) -> bool:
        """Whether the n-bit vector lies in the row space, by clearing each
        row's pivot: no per-byte tables, so a wide S costs no n^2 memory."""
        for row in self.rows:
            if bits & row & -row:
                bits ^= row
        return bits == 0

    def split(self, bits: int) -> tuple[int, int]:
        """(quotient state, lift coordinates) of an n-bit vector."""
        tables, mask, dim = self._split_maps
        w = 0
        for table in tables:
            w ^= table[bits & 0xFF]
            bits >>= 8
        return w & mask, w >> dim


@lru_cache(maxsize=256)
def quotient(rows: tuple[int, ...], n: int) -> Quotient:
    """F2^n / rowspace of the packed ``rows``: one per (rows, n) while
    cached, split tables and all."""
    res = rref(BitMatrix(len(rows), n, rows))
    return Quotient(n, res.rref.row_bits[: res.rank])
