"""Path deformation: projecting Z-type paths onto a single grid column.

For a pure-Z Pauli on the product code, reshape the bit-bit part into the
n1 x n2 matrix Z1 and the check-check part into the r1 x r2 matrix Z2; the
energy is then wt(H1 Z1 + Z2 H2). Collapsing Z1's columns along a codeword
L_c of H2 (XOR the columns selected by L_c into one chosen column alpha,
zero everything else including Z2) never raises that energy:

    (H1 Z1 + Z2 H2) L_c = H1 (Z1 L_c)    because H2 L_c = 0,

and a sum of selected columns weighs no more than the whole matrix. Applied
pointwise to a path this confines it to one column while keeping every step
a single-qubit move, which is the engine behind the canonical-operator lower
bound. The check-check mirror collapses rows of Z2 along a codeword of H1^T.
"""

from __future__ import annotations

from itertools import groupby

from .errors import DimensionMismatch, NotACodeword, TrivialOperator
from .f2core import BitMatrix, BitVec, _Record, mat_add, mat_mul, mat_vec, reshape, tensor_vec, vec_split, weight
from .hgp import HgpCode, PauliVec
from .logicals import CanonicalOp, compose_canonical
from .barrier import PathRecord, energy_quantum

__all__ = [
    "DeformSpec",
    "deform_pauli",
    "deform_path",
    "weight_reduction_gap",
    "find_activating_codeword",
]


class DeformSpec(_Record):
    """A collapse target: codeword l_c and the chosen line alpha in its support.

    block selects the grid being collapsed: "vv" collapses columns of the
    bit-bit block along a codeword of H2; "cc" collapses rows of the
    check-check block along a codeword of H1^T.
    """

    def __init__(self, l_c: BitVec, alpha: int, block: str = "vv"):
        self._store(locals())
        if alpha not in self.col_set:
            raise DimensionMismatch(f"alpha {alpha} not in the collapsed set")
        if block not in ("vv", "cc"):
            raise DimensionMismatch(f"unknown block {block!r}")

    @property
    def col_set(self) -> frozenset[int]:
        """The collapsed lines: the support of l_c."""
        return frozenset(self.l_c.support())


def _check_spec(code: HgpCode, spec: DeformSpec) -> None:
    # a Z path collapses along the X parents' words: H2 ("vv"), H1^T ("cc")
    check = code.parents("x")[spec.block == "cc"].h
    name, length = ("H1^T", "r1") if spec.block == "cc" else ("H2", "n2")
    if spec.l_c.n != check.cols:
        raise DimensionMismatch(f"codeword length {spec.l_c.n}, need {length}={check.cols}")
    if mat_vec(check, spec.l_c).bits:
        raise NotACodeword(f"collapse codeword must satisfy {name} L = 0")


def deform_pauli(code: HgpCode, p: PauliVec, spec: DeformSpec) -> PauliVec:
    """Project a Pauli onto the collapse column; the x part is discarded.

    The result is pure-Z and supported on one column of the bit-bit grid
    (or one row of the check-check grid for a "cc" spec).
    """
    _check_spec(code, spec)
    return _deform_checked(code, p, spec)


def _deform_checked(code: HgpCode, p: PauliVec, spec: DeformSpec) -> PauliVec:
    code.check_pauli(p)
    vv, cc = vec_split(p.z, code.vv_count)
    if spec.block == "vv":
        grid, shift = reshape(vv, code.n1, code.n2), 0
    else:
        grid, shift = reshape(cc, code.r1, code.r2).transpose(), code.vv_count
    line = mat_vec(grid, spec.l_c)  # XOR of the grid lines that l_c selects
    unit = BitVec.unit(grid.cols, spec.alpha)
    placed = tensor_vec(line, unit) if spec.block == "vv" else tensor_vec(unit, line)
    return PauliVec.z_type(BitVec(code.n_qubits, placed.bits << shift))


def deform_path(code: HgpCode, r: PathRecord, spec: DeformSpec) -> PathRecord:
    """Deform every state of a path and drop consecutive duplicates."""
    _check_spec(code, spec)
    states = tuple(d for d, _ in groupby(_deform_checked(code, s, spec) for s in r.states))
    energies = tuple(energy_quantum(code, s) for s in states)
    return PathRecord(states, energies, max(energies, default=0))


def weight_reduction_gap(
    code: HgpCode, z1: BitMatrix, z2: BitMatrix, l_c: BitVec
) -> tuple[int, int]:
    """Both sides of the collapse inequality wt(H1 (Z1 L)) <= wt(H1 Z1 + Z2 H2)."""
    h1, h2 = code.h1.h, code.h2.h
    if (z1.rows, z1.cols) != (code.n1, code.n2):
        raise DimensionMismatch(f"Z1 is {z1.rows}x{z1.cols}, need {code.n1}x{code.n2}")
    if (z2.rows, z2.cols) != (code.r1, code.r2):
        raise DimensionMismatch(f"Z2 is {z2.rows}x{z2.cols}, need {code.r1}x{code.r2}")
    if l_c.n != code.n2:
        raise DimensionMismatch(f"codeword length {l_c.n}, need {code.n2}")
    if mat_vec(h2, l_c).bits:
        raise NotACodeword("L_c must be a codeword of H2")
    lhs = weight(mat_vec(h1, mat_vec(z1, l_c)))
    rhs = weight(mat_add(mat_mul(h1, z1), mat_mul(z2, h2)))
    return lhs, rhs


def _collapse_codeword(code: HgpCode, p: PauliVec) -> DeformSpec:
    """The first collapse that keeps p: kernel basis vectors of H2 ("vv"),
    then of H1^T ("cc"), alpha the least support bit; raises TrivialOperator
    when none keeps p. The collapsed line is linear in the codeword, so no
    codeword of a block keeps p when no basis vector does, and the first
    basis vector that does is the first codeword in graded-lex order over
    the basis. A Z stabilizer collapses to the identity, so a Z logical
    collapses as its canonical part."""
    for block, parent in zip(("vv", "cc"), code.parents("x")):
        for l_c in parent.kernel:
            spec = DeformSpec(l_c, min(l_c.support()), block)
            if not _deform_checked(code, p, spec).is_identity():
                return spec
    raise TrivialOperator("no collapse codeword activates the operator")


def find_activating_codeword(code: HgpCode, op: CanonicalOp) -> DeformSpec:
    """Choose a collapse codeword that keeps the operator nontrivial: the
    ``_collapse_codeword`` of the Pauli its coefficients compose. For lam
    nonzero that is a "vv" codeword hitting an odd number of ones in some
    row of lam, which exists as lam's units live on free columns of H2,
    outside its row space; else the mirror via H1^T and kappa's columns.

    Only Z-kind operators can be collapsed; any other kind raises
    DimensionMismatch, coefficients shaped for another code ShapeMismatch,
    and all-zero coefficients TrivialOperator.
    """
    if op.kind != "z":
        raise DimensionMismatch(f"cannot collapse a {op.kind!r}-kind operator, need 'z'")
    realized = compose_canonical(code, op.lam, op.kappa).realized
    if not any(op.lam.row_bits) and not any(op.kappa.row_bits):
        raise TrivialOperator("all coefficients are zero")
    return _collapse_codeword(code, realized)
