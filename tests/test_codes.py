"""Tests for classical code parameters, enumeration, and file formats."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hgpbarrier.codes import (
    ClassicalCode,
    emit_alist,
    emit_dense,
    hamming_7_4,
    open_repetition,
    parse_alist,
    parse_auto,
    parse_dense,
    random_ldpc,
    ring_repetition,
)
from hgpbarrier.errors import (
    CapExceeded,
    DimensionMismatch,
    EmptyMatrix,
    HgpBarrierError,
    InconsistentDegrees,
    ParseError,
)
from hgpbarrier.f2core import BitMatrix, BitVec, quotient


def small_code(max_rows=4, max_cols=6):
    return st.tuples(st.integers(1, max_rows), st.integers(1, max_cols)).flatmap(
        lambda rc: st.lists(
            st.integers(0, (1 << rc[1]) - 1), min_size=rc[0], max_size=rc[0]
        ).map(lambda rows: ClassicalCode(BitMatrix(rc[0], rc[1], tuple(rows))))
    )


class TestParameters:
    def test_identity_has_no_codewords(self):
        p = ClassicalCode(BitMatrix.identity(3)).parameters()
        assert (p.n, p.k) == (3, 0)
        assert p.d == math.inf

    def test_zero_matrix_keeps_everything(self):
        p = ClassicalCode(BitMatrix.zeros(1, 3)).parameters()
        assert (p.n, p.k, p.d) == (3, 3, 1)

    def test_ring_four_dimensions(self):
        c = ring_repetition(4)
        assert c.k == 1
        assert c.w_c == 2
        assert c.w_q == 2

    def test_ring_five_parameters(self):
        p = ring_repetition(5).parameters()
        assert (p.n, p.k, p.d) == (5, 1, 5)

    def test_hamming_parameters(self):
        code = hamming_7_4()
        p = code.parameters()
        assert (p.n, p.k, p.d) == (7, 4, 3)
        assert p.d == oracles.min_distance(oracles.np_from_bitmatrix(code.h))

    def test_cap_enforced(self):
        c = ClassicalCode(BitMatrix.zeros(1, 12))
        with pytest.raises(CapExceeded):
            c.parameters(cap=1 << 4)

    def test_empty_matrix_rejected(self):
        with pytest.raises(EmptyMatrix):
            ClassicalCode(BitMatrix(0, 0, ()))


class TestTranspose:
    def test_ring_three_transpose_keeps_dimension(self):
        assert ring_repetition(3).transpose().k == 1

    def test_open_three_transpose_is_trivial(self):
        assert open_repetition(3).transpose().k == 0

    def test_zero_transpose_dimension_is_row_count(self):
        c = ClassicalCode(BitMatrix.zeros(2, 3))
        assert c.transpose().k == 2

    @given(small_code())
    def test_double_transpose_round_trip(self, c):
        assert c.transpose().transpose().h == c.h


class TestSyndrome:
    def test_open_chain_single_flip(self):
        c = open_repetition(3)
        assert c.syndrome(BitVec.from01("100")).to01() == "10"

    def test_codeword_has_zero_syndrome(self):
        c = ring_repetition(4)
        assert c.syndrome(BitVec.from01("1111")).bits == 0

    def test_length_checked(self):
        with pytest.raises(DimensionMismatch):
            ring_repetition(4).syndrome(BitVec(3))

    @given(small_code())
    def test_zero_syndrome_iff_kernel_member(self, c):
        rows = tuple(b.bits for b in c.kernel) or (0,)
        q, a = quotient(rows, c.n), oracles.np_from_bitmatrix(BitMatrix(len(rows), c.n, rows))
        for bits in range(min(1 << c.n, 128)):
            v = BitVec(c.n, bits)
            in_kernel = c.syndrome(v).bits == 0
            assert in_kernel == (q.split(bits)[0] == 0)
            assert in_kernel == oracles.np_in_rowspace(a, oracles.np_from_bitvec(v))


@settings(max_examples=60)
@given(small_code(max_rows=4, max_cols=5))
def test_distance_matches_exhaustive_oracle(c):
    ours = c.parameters().d
    ref = oracles.min_distance(oracles.np_from_bitmatrix(c.h))
    assert ours == ref


@pytest.mark.parametrize("seed", range(4))
def test_distance_of_wider_codes_matches_exhaustive_oracle(seed):
    # k from 8 to 12: more codewords than small_code reaches
    rng = random.Random(seed)
    h = BitMatrix(3, 12 + seed, tuple(rng.getrandbits(12 + seed) for _ in range(3)))
    c = ClassicalCode(h)
    assert c.parameters().d == oracles.min_distance(oracles.np_from_bitmatrix(h))


@given(small_code())
def test_codeword_enumeration_is_complete_and_distinct(c):
    words = list(c.iter_codewords())
    assert len(words) == 1 << c.k
    assert len({w.bits for w in words}) == len(words)
    assert all(c.syndrome(w).bits == 0 for w in words)


class TestDense:
    def test_documented_example(self):
        c = parse_dense("2 3\n110\n011")
        assert c.h == open_repetition(3).h

    def test_interior_whitespace_ignored(self):
        c = parse_dense("2 3\n1 1 0\n0\t1 1")
        assert c.h == open_repetition(3).h

    def test_round_trip(self):
        c = hamming_7_4()
        assert parse_dense(emit_dense(c)).h == c.h

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_dense("x 3\n110")

    def test_row_count_mismatch(self):
        with pytest.raises(ParseError) as exc:
            parse_dense("2 3\n110")
        assert "expected 2" in str(exc.value)

    def test_bad_character_reports_position(self):
        with pytest.raises(ParseError) as exc:
            parse_dense("1 3\n1x0")
        assert exc.value.line == 2
        assert exc.value.column == 2

    def test_row_width_checked(self):
        with pytest.raises(ParseError):
            parse_dense("1 3\n11")


class TestAlist:
    def test_round_trip_ring(self):
        c = ring_repetition(4)
        assert parse_alist(emit_alist(c)).h == c.h

    def test_round_trip_hamming(self):
        c = hamming_7_4()
        assert parse_alist(emit_alist(c)).h == c.h

    def test_zero_padding_ignored(self):
        text = "3 2\n2 2\n1 2 1\n2 2\n1 0\n1 2\n2 0\n1 2 0\n2 3 0\n"
        c = parse_alist(text)
        assert c.h == open_repetition(3).h

    def test_degree_line_disagreement(self):
        good = emit_alist(ring_repetition(3))
        lines = good.splitlines()
        lines[2] = "2 2 1"  # column degrees no longer match adjacency
        with pytest.raises(InconsistentDegrees):
            parse_alist("\n".join(lines) + "\n")

    def test_cross_side_disagreement(self):
        lines = emit_alist(open_repetition(3)).splitlines()
        # check 1 claims bit 3 instead of bit 2
        lines[-2] = "1 3"
        with pytest.raises(InconsistentDegrees):
            parse_alist("\n".join(lines) + "\n")

    def test_neighbor_out_of_range(self):
        lines = emit_alist(open_repetition(3)).splitlines()
        lines[4] = "9"
        with pytest.raises(ParseError):
            parse_alist("\n".join(lines) + "\n")

    def test_truncated_input(self):
        with pytest.raises(ParseError):
            parse_alist("3 2\n2 2\n")

    # open_repetition(3) as alist: sizes, max degrees, degree lines, bits, checks
    _OPEN3 = ["3 2", "2 2", "1 2 1", "2 2", "1", "1 2", "2", "1 2", "2 3"]

    @pytest.mark.parametrize(
        "index, line, error, lineno, message",
        [
            (1, "3 2", InconsistentDegrees, 3, "declared max column degree 3, actual 2"),
            (1, "2 3", InconsistentDegrees, 4, "declared max row degree 3, actual 2"),
            (8, None, ParseError, 8, "expected 9 lines for n=3, m=2, found 8"),
            (5, "1 1", InconsistentDegrees, 6, "duplicate neighbor"),
        ],
        ids=["max-column-degree", "max-row-degree", "line-count", "duplicate-neighbor"],
    )
    def test_rejection_names_its_line(self, index, line, error, lineno, message):
        # line None drops line ``index`` instead of replacing it
        lines = list(self._OPEN3)
        if line is None:
            del lines[index]
        else:
            lines[index] = line
        with pytest.raises(ParseError) as exc:
            parse_alist("\n".join(lines) + "\n")
        assert type(exc.value) is error
        assert str(exc.value) == f"line {lineno}: {message}"
        assert exc.value.line == lineno

    def test_edge_count_mismatch_has_no_line(self):
        # bit 1 lists check 1, whose own list is the padding token alone
        with pytest.raises(InconsistentDegrees) as exc:
            parse_alist("1 1\n1 0\n1\n0\n1\n0\n")
        assert str(exc.value) == "bit side lists 1 edges, check side lists 0"
        assert exc.value.line is None


class TestAutoDetection:
    def test_detects_dense(self):
        assert parse_auto(emit_dense(hamming_7_4())).h == hamming_7_4().h

    def test_detects_alist(self):
        assert parse_auto(emit_alist(hamming_7_4())).h == hamming_7_4().h

    def test_rejects_unmatched_line_count(self):
        with pytest.raises(ParseError):
            parse_auto("2 3\n110\n011\n101\n")


# tokens that look like numbers to str.isdigit or int() but are not ASCII
# counts, beside the characters real inputs are made of
FUZZ_ALPHABET = "0123456789 \t\n-x" + "²³¹٣０"
FUZZ_TOKENS = ["0", "1", "2", "3", "10", "11", "101", "-1", "²", "٣"]
fuzz_text = st.one_of(
    st.text(),
    st.text(alphabet=FUZZ_ALPHABET, max_size=60),
    st.lists(
        st.lists(st.sampled_from(FUZZ_TOKENS), max_size=5).map(" ".join),
        max_size=10,
    ).map("\n".join),
)


BIG = "9" * 640  # the longest count a parser converts


class TestParserFuzz:
    @settings(max_examples=300)
    @given(fuzz_text)
    def test_only_package_errors_escape(self, text):
        for parse in (parse_dense, parse_alist, parse_auto):
            try:
                parse(text)
            except HgpBarrierError:
                pass

    @pytest.mark.parametrize("count", ["9" * 641, "0" * 5000 + "1"], ids=["641-digits", "5001-digits"])
    def test_overlong_counts_are_parse_errors(self, count):
        # int() raises a bare ValueError past 4300 digits, so a count that
        # long must be turned away before it reaches int()
        for text in (f"{count} 1\n1\n", f"1 {count}\n1\n", f"{count} 1\n1 1\n1\n1\n1\n1\n"):
            for parse in (parse_dense, parse_alist, parse_auto):
                with pytest.raises(ParseError):
                    parse(text)

    @pytest.mark.parametrize(
        "parse, text, shown",
        [
            (parse_alist, f"{BIG} {BIG}\n1 1\n1\n1\n", "(640 characters)"),  # n values on a degree line
            (parse_dense, f"{BIG} 3\n101\n", "(640 characters)"),  # matrix rows
            (parse_dense, f"1 {BIG}\n101\n", "(640 characters)"),  # entries per row
            (parse_alist, "9" * 5000 + " 1\n1 1\n1\n1\n1\n1\n", "(5000 characters)"),  # the token
        ],
        ids=("alist-degree-line", "dense-rows", "dense-entries", "alist-overlong-token"),
    )
    def test_huge_declared_sizes_give_a_short_error(self, parse, text, shown):
        # a declared size, or a token too long to be one, is echoed as a
        # short prefix and its length, not whole
        with pytest.raises(ParseError) as ei:
            parse(text)
        assert shown in str(ei.value)
        assert len(str(ei.value)) < 200

    @given(small_code())
    def test_emit_then_parse_round_trips(self, c):
        assert parse_dense(emit_dense(c)).h == c.h
        assert parse_alist(emit_alist(c)).h == c.h
        assert parse_auto(emit_dense(c)).h == c.h
        assert parse_auto(emit_alist(c)).h == c.h


class TestBuilders:
    def test_open_repetition_shape(self):
        c = open_repetition(5)
        assert (c.r, c.n, c.k) == (4, 5, 1)
        assert c.parameters().d == 5

    def test_random_ldpc_is_seed_deterministic(self):
        a = random_ldpc(random.Random(7))
        b = random_ldpc(random.Random(7))
        assert a.h == b.h

    @pytest.mark.parametrize("kwargs", [{"r": 0}, {"r": -2}, {"row_weight": -1}, {"row_weight": 9}])
    def test_random_ldpc_rejects_bad_sizes_before_any_draw(self, kwargs):
        rng = random.Random(5)
        state = rng.getstate()
        with pytest.raises(DimensionMismatch):
            random_ldpc(rng, **kwargs)
        assert rng.getstate() == state

    def test_random_ldpc_row_weight_and_coverage(self):
        c = random_ldpc(random.Random(3), n=10, r=6, row_weight=4)
        assert all(r.bit_count() >= 4 for r in c.h.row_bits)
        assert all(c.h.column(j).bits != 0 for j in range(c.n))
