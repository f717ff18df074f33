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
from hgpbarrier.f2core import BitMatrix, BitVec, in_row_space


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
        for bits in range(min(1 << c.n, 128)):
            v = BitVec(c.n, bits)
            in_kernel = c.syndrome(v).bits == 0
            assert in_kernel == in_row_space(
                BitMatrix(len(c.kernel), c.n, tuple(b.bits for b in c.kernel))
                if c.kernel
                else BitMatrix.zeros(1, c.n),
                v,
            )


@settings(max_examples=60)
@given(small_code(max_rows=4, max_cols=5))
def test_distance_matches_exhaustive_oracle(c):
    ours = c.parameters().d
    ref = oracles.min_distance(oracles.np_from_bitmatrix(c.h))
    assert ours == ref


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


class TestParserFuzz:
    @settings(max_examples=300)
    @given(fuzz_text)
    def test_only_package_errors_escape(self, text):
        for parse in (parse_dense, parse_alist, parse_auto):
            try:
                parse(text)
            except HgpBarrierError:
                pass

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

    def test_random_ldpc_row_weight_and_coverage(self):
        c = random_ldpc(random.Random(3), n=10, r=6, row_weight=4)
        assert all(r.bit_count() >= 4 for r in c.h.row_bits)
        assert all(c.h.column(j).bits != 0 for j in range(c.n))
