"""The value records' semantics: construction, equality, hash, repr,
immutability and validation, pinned per record type."""

import inspect

import pytest

from hgpbarrier.barrier import BarrierResult, MinimaxTable, PathRecord
from hgpbarrier.codes import ClassicalCode, CodeParams, open_repetition
from hgpbarrier.deform import DeformSpec
from hgpbarrier.errors import DimensionMismatch, EmptyMatrix, IndexOutOfRange
from hgpbarrier.f2core import BitMatrix, BitVec, Quotient, RrefResult
from hgpbarrier.hgp import HgpCode, build_hgp
from hgpbarrier.logicals import CanonicalOp, PauliVec
from hgpbarrier.verify import VerifyReport

_M = BitMatrix(2, 3, (0b011, 0b110))
_P = PauliVec(3, BitVec(3, 0), BitVec(3, 0b010))
_WALK = PathRecord((BitVec(2, 0), BitVec(2, 1)), (0, 1), 1)
_CODE = build_hgp(open_repetition(2), open_repetition(2))
_OTHER_CODE = build_hgp(open_repetition(2), open_repetition(3))

# type, field names, field values, the values of an unequal instance, repr
RECORDS = [
    (BitVec, ("n", "bits"), (3, 0b010), (3, 0b011), "BitVec('010')"),
    (BitMatrix, ("rows", "cols", "row_bits"), (2, 3, (0b011, 0b110)), (2, 3, (0b011, 0b111)),
     "BitMatrix(2x3)"),
    (RrefResult, ("rref", "pivot_cols", "rank"), (_M, (0, 1), 2), (_M, (0, 2), 2),
     "RrefResult(rref=BitMatrix(2x3), pivot_cols=(0, 1), rank=2)"),
    (Quotient, ("n", "rows"), (3, (0b011,)), (3, (0b110,)), "Quotient(n=3, rows=(3,))"),
    (CodeParams, ("n", "k", "d"), (7, 4, 3), (7, 4, 2), "CodeParams(n=7, k=4, d=3)"),
    (ClassicalCode, ("h",), (_M,), (BitMatrix(2, 3, (0b011, 0b111)),),
     "ClassicalCode(h=BitMatrix(2x3))"),
    (HgpCode, ("h1", "h2"), (_CODE.h1, _CODE.h2), (_OTHER_CODE.h1, _OTHER_CODE.h2),
     "HgpCode(h1=ClassicalCode(h=BitMatrix(1x2)), h2=ClassicalCode(h=BitMatrix(1x2)))"),
    (PauliVec, ("n", "x", "z"), (3, BitVec(3, 0), BitVec(3, 0b010)),
     (3, BitVec(3, 0b010), BitVec(3, 0b010)),
     "PauliVec(n=3, x=BitVec('000'), z=BitVec('010'))"),
    (CanonicalOp, ("kind", "lam", "kappa", "realized"),
     ("z", BitMatrix(1, 1, (1,)), BitMatrix(0, 0, ()), _P),
     ("x", BitMatrix(1, 1, (1,)), BitMatrix(0, 0, ()), _P),
     "CanonicalOp(kind='z', lam=BitMatrix(1x1), kappa=BitMatrix(0x0), "
     "realized=PauliVec(n=3, x=BitVec('000'), z=BitVec('010')))"),
    (PathRecord, ("states", "energies", "max_energy"), ((BitVec(2, 0), BitVec(2, 1)), (0, 1), 1),
     ((BitVec(2, 0), BitVec(2, 2)), (0, 1), 1),
     "PathRecord(states=(BitVec('00'), BitVec('10')), energies=(0, 1), max_energy=1)"),
    (BarrierResult, ("value", "witness", "explored"), (1, _WALK, 4), (1, _WALK, 5),
     "BarrierResult(value=1, witness=PathRecord(states=(BitVec('00'), BitVec('10')), "
     "energies=(0, 1), max_energy=1), explored=4)"),
    # hashable stand-ins: a real table's best and order are buffers
    (MinimaxTable, ("energy", "quotient", "best", "order"),
     ("energy", Quotient(2, ()), (0, 1, 1, 2), (0, 1, 2, 3)),
     ("energy", Quotient(2, ()), (0, 1, 1, 1), (0, 1, 2, 3)),
     "MinimaxTable(energy='energy')"),
    (DeformSpec, ("l_c", "alpha", "block"), (BitVec(3, 0b011), 1, "cc"), (BitVec(3, 0b011), 0, "cc"),
     "DeformSpec(l_c=BitVec('110'), alpha=1, block='cc')"),
]

_ID = [case[0].__name__ for case in RECORDS]


@pytest.mark.parametrize("cls, names, values, other, text", RECORDS, ids=_ID)
def test_equality_goes_by_the_fields_within_one_type(cls, names, values, other, text):
    x = cls(*values)
    assert x == cls(*values) and not x != cls(*values)
    assert x == cls(**dict(zip(names, values)))
    assert x != cls(*other) and not x == cls(*other)
    assert x != values and x.__eq__(values) is NotImplemented
    assert x.__eq__(_WALK if cls is not PathRecord else _P) is NotImplemented


@pytest.mark.parametrize("cls, names, values, other, text", RECORDS, ids=_ID)
def test_hash_is_the_hash_of_the_field_tuple(cls, names, values, other, text):
    x = cls(*values)
    assert hash(x) == hash(values) == hash(cls(*values))
    assert tuple(getattr(x, name) for name in names) == values


@pytest.mark.parametrize("cls, names, values, other, text", RECORDS, ids=_ID)
def test_repr(cls, names, values, other, text):
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("cls, names, values, other, text", RECORDS, ids=_ID)
def test_fields_cannot_be_set_or_deleted(cls, names, values, other, text):
    x = cls(*values)
    for name, value in zip(names, other):
        with pytest.raises(AttributeError):
            setattr(x, name, value)
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.unlisted = 0
    assert x == cls(*values)


@pytest.mark.parametrize("cls, names, values, other, text", RECORDS, ids=_ID)
def test_fields_are_the_constructor_parameters(cls, names, values, other, text):
    # a record names its fields once, as its __init__'s parameters
    assert cls._fields == tuple(inspect.signature(cls).parameters) == names


def test_verify_report_fields_leave_out_elapsed():
    # the one record that names its fields: elapsed is shown, not compared
    assert VerifyReport._fields == tuple(inspect.signature(VerifyReport).parameters)[:-1]
    assert VerifyReport._shown == (*VerifyReport._fields, "elapsed")


def test_defaults():
    assert BitVec(3) == BitVec(3, 0)
    assert DeformSpec(BitVec(3, 0b011), 0) == DeformSpec(BitVec(3, 0b011), 0, "vv")


def test_hgp_code_hash_is_cached_per_instance():
    code = HgpCode(_CODE.h1, _CODE.h2)
    assert code == _CODE and code is not _CODE
    assert hash(code) == hash((code.h1, code.h2))
    assert "_hash" in vars(code)


def test_barrier_result_target_is_the_witness_endpoint():
    assert BarrierResult(1, _WALK, 4).target == BitVec(2, 1)


def test_verify_report_is_mutable_and_ignores_elapsed():
    r = VerifyReport("lemma1", "toric_3", "pass", 4, {"bound": 2})
    assert repr(r) == (
        "VerifyReport(claim='lemma1', instance='toric_3', status='pass', checked=4, "
        "details={'bound': 2}, counterexample=None, seed=None, elapsed=0.0)"
    )
    timed = VerifyReport("lemma1", "toric_3", "pass", 4, {"bound": 2}, elapsed=1.5)
    assert r == timed and r != VerifyReport("lemma1", "toric_3", "pass", 5, {"bound": 2})
    assert r.__eq__(("lemma1",)) is NotImplemented
    with pytest.raises(TypeError):
        hash(r)
    r.elapsed = 2.0
    r.status = "fail"
    assert (r.elapsed, r.status, r.passed) == (2.0, "fail", False)


def test_verify_report_json_dict_is_a_copy():
    details = {"per_operator": [{"restricted": 2}]}
    r = VerifyReport("lemma2", "ring_2", "pass", 1, details, {"z_bits": 3}, 7, 0.5)
    d = r.to_json_dict()
    assert d == {
        "claim": "lemma2",
        "instance": "ring_2",
        "status": "pass",
        "checked": 1,
        "details": details,
        "counterexample": {"z_bits": 3},
        "seed": 7,
    }
    assert list(d) == ["claim", "instance", "status", "checked", "details", "counterexample", "seed"]
    d["details"]["per_operator"][0]["restricted"] = 0
    assert details == {"per_operator": [{"restricted": 2}]}


VALIDATION = [
    (BitVec, (-1,), DimensionMismatch, "vector length must be nonnegative"),
    (BitVec, (2, 4), IndexOutOfRange, "payload has bits beyond length 2"),
    (BitVec, (2, -1), IndexOutOfRange, "payload has bits beyond length 2"),
    (BitMatrix, (-1, 2, ()), DimensionMismatch, "matrix dimensions must be nonnegative"),
    (BitMatrix, (2, -1, (0, 0)), DimensionMismatch, "matrix dimensions must be nonnegative"),
    (BitMatrix, (2, 3, (1,)), DimensionMismatch, "2 rows declared but 1 provided"),
    (BitMatrix, (1, 2, (4,)), IndexOutOfRange, "row has bits beyond 2 columns"),
    (BitMatrix, (1, 2, (-1,)), IndexOutOfRange, "row has bits beyond 2 columns"),
    (CodeParams, (3, 4, 1), DimensionMismatch, "dimension 4 outside [0, 3]"),
    (CodeParams, (3, -1, 1), DimensionMismatch, "dimension -1 outside [0, 3]"),
    (CodeParams, (3, 1, 0), DimensionMismatch, "nonzero codes have distance at least 1"),
    (ClassicalCode, (BitMatrix(0, 3, ()),), EmptyMatrix,
     "parity-check matrix needs at least one row and one column"),
    (ClassicalCode, (BitMatrix(2, 0, (0, 0)),), EmptyMatrix,
     "parity-check matrix needs at least one row and one column"),
    (PauliVec, (3, BitVec(2), BitVec(3)), DimensionMismatch, "parts of length 2/3 on 3 qubits"),
    (PauliVec, (3, BitVec(3), BitVec(4)), DimensionMismatch, "parts of length 3/4 on 3 qubits"),
    (PathRecord, ((1, 2), (0,), 0), DimensionMismatch, "one energy per state required"),
    (PathRecord, ((1, 2), (0, 1), 0), DimensionMismatch, "max_energy 0 != 1"),
    (PathRecord, ((), (), 1), DimensionMismatch, "max_energy 1 != 0"),
    (DeformSpec, (BitVec(3, 0b011), 2), DimensionMismatch, "alpha 2 not in the collapsed set"),
    (DeformSpec, (BitVec(3, 0b011), 2, "xx"), DimensionMismatch, "alpha 2 not in the collapsed set"),
    (DeformSpec, (BitVec(3, 0b011), 0, "xx"), DimensionMismatch, "unknown block 'xx'"),
]


@pytest.mark.parametrize(
    "cls, args, exc, message", VALIDATION, ids=[f"{c.__name__}-{m}" for c, _, _, m in VALIDATION]
)
def test_validation_errors(cls, args, exc, message):
    with pytest.raises(exc) as caught:
        cls(*args)
    assert type(caught.value) is exc
    assert str(caught.value) == message
