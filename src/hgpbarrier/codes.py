"""Classical linear codes presented by parity-check matrices.

The check matrix is kept exactly as given, never row-reduced: the energy
barrier machinery downstream is sensitive to the chosen generating set, so two
codes with the same row space but different check lists are different objects
here.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from functools import cached_property

from .errors import (
    CapExceeded,
    DimensionMismatch,
    EmptyMatrix,
    InconsistentDegrees,
    ParseError,
)
from .f2core import BitMatrix, BitVec, _ones, _Record, kernel_basis, mat_vec, rref, span

__all__ = [
    "ClassicalCode",
    "CodeParams",
    "parse_dense",
    "parse_alist",
    "parse_auto",
    "emit_dense",
    "emit_alist",
    "ring_repetition",
    "open_repetition",
    "hamming_7_4",
    "random_ldpc",
]

DEFAULT_ENUM_CAP = 1 << 20


class CodeParams(_Record):
    """Block length, dimension, and exact distance (inf when there are no codewords)."""

    def __init__(self, n: int, k: int, d: int | float):
        if not 0 <= k <= n:
            raise DimensionMismatch(f"dimension {k} outside [0, {n}]")
        if k >= 1 and d < 1:
            raise DimensionMismatch("nonzero codes have distance at least 1")
        self._store(locals())


class ClassicalCode(_Record):
    def __init__(self, h: BitMatrix):
        if h.rows < 1 or h.cols < 1:
            raise EmptyMatrix("parity-check matrix needs at least one row and one column")
        self._store(locals())

    @property
    def n(self) -> int:
        return self.h.cols

    @property
    def r(self) -> int:
        return self.h.rows

    @cached_property
    def rank(self) -> int:
        return rref(self.h).rank

    @property
    def k(self) -> int:
        return self.n - self.rank

    @cached_property
    def kernel(self) -> tuple[BitVec, ...]:
        return kernel_basis(self.h)

    @cached_property
    def w_c(self) -> int:
        """Largest check weight (max ones in a row)."""
        return max(rb.bit_count() for rb in self.h.row_bits)

    @cached_property
    def w_q(self) -> int:
        """Largest bit degree (max ones in a column)."""
        return max(c.bit_count() for c in self.h.transpose().row_bits)

    def syndrome(self, x: BitVec) -> BitVec:
        if x.n != self.n:
            raise DimensionMismatch(f"vector length {x.n} vs block length {self.n}")
        return mat_vec(self.h, x)

    def iter_codewords(self) -> Iterator[BitVec]:
        """All 2^k codewords, zero first, via a Gray walk over the kernel basis."""
        for bits in span([v.bits for v in self.kernel]):
            yield BitVec(self.n, bits)

    def parameters(self, cap: int = DEFAULT_ENUM_CAP) -> CodeParams:
        """Exact [n, k, d] with d found by enumerating all nonzero codewords."""
        k = self.k
        if k == 0:
            return CodeParams(self.n, 0, math.inf)
        if (1 << k) > cap:
            raise CapExceeded(f"2^{k} codewords exceed the enumeration cap {cap}")
        d = min(b.bit_count() for b in span([v.bits for v in self.kernel]) if b)
        return CodeParams(self.n, k, d)

    def transpose(self) -> "ClassicalCode":
        return ClassicalCode(self.h.transpose())


# -- file formats -------------------------------------------------------------

def _nonempty_lines(text: str) -> list[tuple[int, str]]:
    return [(i + 1, ln) for i, ln in enumerate(text.splitlines()) if ln.strip()]


def _is_count(token: str) -> bool:
    """ASCII decimal digits only: str.isdigit also accepts digits such as
    "²" that int() rejects. At most 640 of them: int() converts a string
    that long under any sys.set_int_max_str_digits limit, and raises a bare
    ValueError on a longer one under the default limit."""
    return token.isascii() and token.isdigit() and len(token) <= 640


def _clip(value, show=str) -> str:
    """A token or declared count as a parse error echoes it: whole up to 20
    characters, else its first 20 and its length."""
    text = str(value)
    return show(text) if len(text) <= 20 else f"{show(text[:20])}... ({len(text)} characters)"


def parse_dense(text: str) -> ClassicalCode:
    """Read the dense format: a "rows cols" header, then 0/1 rows.

    Whitespace inside a row is ignored, so "1 0 1" and "101" are the same row.
    """
    entries = _nonempty_lines(text)
    if not entries:
        raise ParseError("empty input")
    header_line, header = entries[0]
    parts = header.split()
    if len(parts) != 2 or not all(_is_count(p) for p in parts):
        raise ParseError("expected header 'rows cols'", line=header_line)
    rows, cols = int(parts[0]), int(parts[1])
    if rows < 1 or cols < 1:
        raise ParseError("dimensions must be positive", line=header_line)
    body = entries[1:]
    if len(body) != rows:
        raise ParseError(
            f"expected {_clip(rows)} matrix rows, found {len(body)}",
            line=body[-1][0] if body else header_line,
        )
    row_bits = []
    for lineno, ln in body:
        bits = 0
        count = 0
        for col, ch in enumerate(ln, start=1):
            if ch.isspace():
                continue
            if ch == "1":
                bits |= 1 << count
            elif ch != "0":
                raise ParseError(f"invalid character {ch!r}", line=lineno, column=col)
            count += 1
        if count != cols:
            raise ParseError(f"expected {_clip(cols)} entries, found {count}", line=lineno)
        row_bits.append(bits)
    return ClassicalCode(BitMatrix(rows, cols, tuple(row_bits)))


def emit_dense(code: ClassicalCode) -> str:
    lines = [f"{code.r} {code.n}"]
    lines.extend(code.h.to01_rows())
    return "\n".join(lines) + "\n"


def _int_line(entries, idx: int, what: str, expect: int | None = None) -> tuple[int, list[int]]:
    lineno, ln = entries[idx]
    toks = ln.split()
    vals = []
    for pos, t in enumerate(toks, start=1):
        if not (_is_count(t) or (t.startswith("-") and _is_count(t[1:]))):
            raise ParseError(
                f"non-integer token {_clip(t, repr)} in {what}", line=lineno, column=pos
            )
        vals.append(int(t))
    if expect is not None and len(vals) != expect:
        raise ParseError(
            f"expected {_clip(expect)} values in {what}, found {len(vals)}", line=lineno
        )
    return lineno, vals


def parse_alist(text: str) -> ClassicalCode:
    """Read MacKay alist: sizes, max degrees, per-node degrees, adjacency lists.

    Neighbor indices are 1-based; zero tokens are padding and are skipped. The
    per-line neighbor counts must match the declared degree lines, and the bit
    and check adjacency lists must describe the same matrix.
    """
    entries = _nonempty_lines(text)
    if len(entries) < 4:
        raise ParseError("truncated input: need sizes, max degrees, and two degree lines")
    size_line, (n, m) = _int_line(entries, 0, "size header", expect=2)
    if n < 1 or m < 1:
        raise ParseError("sizes must be positive", line=size_line)
    _, (max_col_deg, max_row_deg) = _int_line(entries, 1, "max-degree line", expect=2)
    col_deg_line, col_degs = _int_line(entries, 2, "column-degree line", expect=n)
    row_deg_line, row_degs = _int_line(entries, 3, "row-degree line", expect=m)
    if col_degs and max(col_degs) != max_col_deg:
        raise InconsistentDegrees(
            f"declared max column degree {_clip(max_col_deg)}, actual {_clip(max(col_degs))}",
            line=col_deg_line,
        )
    if row_degs and max(row_degs) != max_row_deg:
        raise InconsistentDegrees(
            f"declared max row degree {_clip(max_row_deg)}, actual {_clip(max(row_degs))}",
            line=row_deg_line,
        )
    if len(entries) != 4 + n + m:
        raise ParseError(
            f"expected {_clip(4 + n + m)} lines for n={_clip(n)}, m={_clip(m)},"
            f" found {len(entries)}",
            line=entries[-1][0],
        )

    def neighbors(idx: int, what: str, limit: int, declared: int) -> tuple[int, list[int]]:
        lineno, vals = _int_line(entries, idx, what)
        out = []
        for pos, v in enumerate(vals, start=1):
            if v == 0:
                continue
            if not 1 <= v <= limit:
                raise ParseError(
                    f"neighbor {_clip(v)} outside [1, {_clip(limit)}]", line=lineno, column=pos
                )
            out.append(v - 1)
        if len(set(out)) != len(out):
            raise InconsistentDegrees("duplicate neighbor", line=lineno)
        if len(out) != declared:
            raise InconsistentDegrees(
                f"{what} lists {len(out)} neighbors but degree line declares {_clip(declared)}",
                line=lineno,
            )
        return lineno, out

    from_bits: set[tuple[int, int]] = set()
    for j in range(n):
        _, checks = neighbors(4 + j, f"bit {j + 1}", m, col_degs[j])
        from_bits.update((c, j) for c in checks)
    row_bits = [0] * m
    for i in range(m):
        lineno, bits = neighbors(4 + n + i, f"check {i + 1}", n, row_degs[i])
        for j in bits:
            if (i, j) not in from_bits:
                raise InconsistentDegrees(
                    f"check {i + 1} lists bit {j + 1} but bit {j + 1} does not list check {i + 1}",
                    line=lineno,
                )
            row_bits[i] |= 1 << j
    listed = sum(r.bit_count() for r in row_bits)
    if listed != len(from_bits):
        raise InconsistentDegrees(
            f"bit side lists {len(from_bits)} edges, check side lists {listed}"
        )
    return ClassicalCode(BitMatrix(m, n, tuple(row_bits)))


def emit_alist(code: ClassicalCode) -> str:
    h = code.h
    n, m = h.cols, h.rows
    cols = [tuple(_ones(c)) for c in h.transpose().row_bits]
    rows = [tuple(_ones(r)) for r in h.row_bits]
    col_degs = [len(c) for c in cols]
    row_degs = [len(r) for r in rows]
    lines = [
        f"{n} {m}",
        f"{max(col_degs, default=0)} {max(row_degs, default=0)}",
        " ".join(map(str, col_degs)),
        " ".join(map(str, row_degs)),
    ]
    # an empty neighbor list is written as one "0" padding token, since the
    # parser skips blank lines
    lines.extend(" ".join(str(c + 1) for c in col) or "0" for col in cols)
    lines.extend(" ".join(str(b + 1) for b in row) or "0" for row in rows)
    return "\n".join(lines) + "\n"


def parse_auto(text: str) -> ClassicalCode:
    """Detect dense vs alist by line count.

    A dense file with header (a, b) has exactly a+1 nonempty lines; an alist
    file with header (a, b) has 4+a+b. The two never coincide, so the count
    decides the format.
    """
    entries = _nonempty_lines(text)
    if not entries:
        raise ParseError("empty input")
    parts = entries[0][1].split()
    if len(parts) != 2 or not all(_is_count(p) for p in parts):
        raise ParseError("expected a two-integer header", line=entries[0][0])
    a, b = int(parts[0]), int(parts[1])
    if len(entries) == a + 1:
        return parse_dense(text)
    if len(entries) == 4 + a + b:
        return parse_alist(text)
    raise ParseError(
        f"line count {len(entries)} matches neither dense ({_clip(a + 1)})"
        f" nor alist ({_clip(4 + a + b)})",
        line=entries[0][0],
    )


# -- small built-in families ---------------------------------------------------

def ring_repetition(n: int) -> ClassicalCode:
    """Cycle code: n checks, check i touching bits i and i+1 mod n."""
    if n < 2:
        raise DimensionMismatch("ring needs at least 2 bits")
    rows = tuple((1 << i) | (1 << ((i + 1) % n)) for i in range(n))
    return ClassicalCode(BitMatrix(n, n, rows))


def open_repetition(n: int) -> ClassicalCode:
    """Chain code: n-1 checks, check i touching bits i and i+1."""
    if n < 2:
        raise DimensionMismatch("chain needs at least 2 bits")
    rows = tuple((1 << i) | (1 << (i + 1)) for i in range(n - 1))
    return ClassicalCode(BitMatrix(n - 1, n, rows))


def hamming_7_4() -> ClassicalCode:
    """[7,4,3] code whose check columns are the binary numbers 1..7."""
    rows = []
    for bit in range(3):
        rows.append(sum(1 << j for j in range(7) if ((j + 1) >> bit) & 1))
    return ClassicalCode(BitMatrix(3, 7, tuple(rows)))


def random_ldpc(rng: random.Random, n: int = 8, r: int = 6, row_weight: int = 3) -> ClassicalCode:
    """Seeded roughly-regular sparse code: each check picks row_weight distinct bits.

    Columns left untouched get attached to one random check afterwards so no
    bit is free of every check.
    """
    if r < 1 or not 0 <= row_weight <= n:
        raise DimensionMismatch(f"need r >= 1 and row weight in [0, {n}], got {r}, {row_weight}")
    rows = []
    for _ in range(r):
        bits = 0
        for j in rng.sample(range(n), row_weight):
            bits |= 1 << j
        rows.append(bits)
    for j in range(n):
        if not any((row >> j) & 1 for row in rows):
            rows[rng.randrange(r)] |= 1 << j
    return ClassicalCode(BitMatrix(r, n, tuple(rows)))
