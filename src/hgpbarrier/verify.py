"""Mechanical checks of the barrier claims on concrete small instances.

Each checker evaluates one claim exhaustively (or by seeded sampling where
the claim quantifies over an intractably large set) and returns a report
carrying the measured quantities. A failing report always includes a
counterexample that can be re-evaluated with the barrier primitives alone;
lemma4's re-evaluates through f2core's matrix products.

The exact barrier of any Pauli that commutes with every check splits into
independent sector problems: project a path onto its z (or x) component and
the energy never increases, while running the optimal x-sector path first
(ending at zero energy, since HZ x = 0) and the z-sector path second achieves
both sector optima. So Delta(x|z) = max(Delta_x(x), Delta_z(z)), and two
exhaustive sector tables answer every stabilizer and logical barrier query
for an instance in O(1).
"""

from __future__ import annotations

import copy
import math
import random
import time
from itertools import accumulate
from operator import itemgetter

from .barrier import (
    _pauli_walk,
    classical_barrier,
    classical_table,
    pauli_table,
    quantum_barrier,
    sector_table,
    sweep_path_for_canonical,
)
from .codes import DEFAULT_STATE_CAP, ClassicalCode, open_repetition, ring_repetition
from .errors import CapExceeded, NoLogicals
from .f2core import BitMatrix, BitVec, _ones, _Record, combine, mat_add, mat_mul, mat_vec, span, weight
from .hgp import HgpCode, build_hgp
from .logicals import (
    canonical_x_basis,
    canonical_z_basis,
    elementary_leg,
    enumerate_x_logicals,
    enumerate_z_logicals,
)

__all__ = [
    "VerifyReport",
    "CLAIMS",
    "quantum_instances",
    "lemma4_default_family",
    "check_lemma1",
    "check_theorem1",
    "check_lemma2",
    "check_lemma3",
    "check_lemma4",
    "check_proposition1",
    "check_main_equality",
    "check_css_restriction",
    "run_claim",
    "run_all",
    "summarize",
]

# claim -> (checker, registry instances), in report order. The checker is
# looked up by name at call time, so a wrapper put in its place (as
# ``perfbench --trace`` does) sees every call; lemma4 checks its own family.
_CLAIMS = {
    "lemma1": ("check_lemma1", ("surface_3", "toric_3")),
    "thm1": ("check_theorem1", ("surface_3", "toric_3")),
    "lemma2": ("check_lemma2", ("surface_3", "toric_3", "ring_2", "rect_2_3")),
    "lemma3": ("check_lemma3", ("surface_3", "toric_3", "ring_2", "rect_2_3")),
    "lemma4": ("check_lemma4", ()),
    "prop1": ("check_proposition1", ("tiny_2", "rect_2_3", "ring_2", "surface_3", "toric_3")),
    "main": ("check_main_equality", ("toric_3", "surface_3", "rect_2_3", "ring_2", "rect_4_3")),
    "css-restriction": ("check_css_restriction", ("tiny_2", "rect_2_3", "rect_3_2", "ring_2")),
}
CLAIMS = tuple(_CLAIMS)


class VerifyReport(_Record):
    """One check's outcome. Unlike the other records it is mutable (the
    runner sets ``elapsed``) and unhashable, and ``elapsed`` is shown but
    takes no part in equality, so ``_fields`` leaves it out."""

    _fields = ("claim", "instance", "status", "checked", "details", "counterexample", "seed")
    _shown = (*_fields, "elapsed")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(
        self,
        claim: str,
        instance: str,
        status: str,
        checked: int,
        details: dict,
        counterexample: dict | None = None,
        seed: int | None = None,
        elapsed: float = 0.0,
    ):
        self._store(locals())
        self.elapsed = elapsed

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        # elapsed is intentionally dropped: report streams must be identical
        # across repeated runs with the same seed
        out = copy.deepcopy({name: getattr(self, name) for name in self._fields})
        if self.seed is None:
            del out["seed"]
        return out


# -- instance registries -------------------------------------------------------

# parent pairs of the registry products; rect_4_3 (18 qubits) is main's alone
_PARENTS = {
    "toric_3": (ring_repetition(3), ring_repetition(3)),
    "surface_3": (open_repetition(3), open_repetition(3)),
    "tiny_2": (open_repetition(2), open_repetition(2)),
    "ring_2": (ring_repetition(2), ring_repetition(2)),
    "rect_2_3": (open_repetition(2), open_repetition(3)),
    "rect_3_2": (open_repetition(3), open_repetition(2)),
    "rect_4_3": (open_repetition(4), open_repetition(3)),
}


def quantum_instances() -> dict[str, HgpCode]:
    """Small products chosen to exercise both coefficient blocks.

    ring_2 has transposed-side logicals (check-check block); the chain
    products have none; the mixed rectangles vary n1/n2 asymmetry.
    """
    return {name: build_hgp(*pair) for name, pair in _PARENTS.items() if name != "rect_4_3"}


def lemma4_default_family() -> list[tuple[ClassicalCode, ClassicalCode]]:
    """Pairs of 2x3 check matrices, including degenerate rows and full rows."""
    mats = [
        BitMatrix.from_rows(["110", "011"]),
        BitMatrix.from_rows(["111", "011"]),
        BitMatrix.from_rows(["101", "010"]),
        BitMatrix.from_rows(["110", "110"]),
        BitMatrix.from_rows(["111", "111"]),
    ]
    codes = [ClassicalCode(m) for m in mats]
    return [(a, b) for a in codes for b in codes]


def _report(
    claim: str,
    instance: str,
    checked: int,
    details: dict,
    counter: dict | None,
    seed: int | None = None,
) -> VerifyReport:
    """A check's report, which passes when no counterexample was found."""
    status = "pass" if counter is None else "fail"
    return VerifyReport(claim, instance, status, checked, details, counter, seed)


def _require_logicals(code: HgpCode) -> None:
    if code.k == 0:
        raise NoLogicals("instance has no logical qubits")


def _stabilizer_setup(code: HgpCode, cap: int):
    """(x table, z table, paired, worst, w_c w_q): both sector tables, whose
    quotients' rows span the two stabilizer rowspaces, whether those have at
    most 2^12 pairs, few enough to scan every pair, and the largest stabilizer
    barrier, the higher of the two tables' ``stabilizer_max``."""
    tx, tz = sector_table(code, "x", cap), sector_table(code, "z", cap)
    paired = len(tx.quotient.rows) + len(tz.quotient.rows) <= 12
    return tx, tz, paired, max(tx.stabilizer_max, tz.stabilizer_max), code.w_c * code.w_q


def _coset_values(table, base: int) -> list[tuple[int, int]]:
    """(value, vector) of each vector of base + span(table.quotient.rows),
    in ``span`` order: a counterexample's scan, never a passing check's."""
    return [(table.value(base ^ s), base ^ s) for s in span(table.quotient.rows)]


# -- single-claim checkers -----------------------------------------------------

def check_lemma1(code: HgpCode, cap: int = DEFAULT_STATE_CAP, instance: str = "") -> VerifyReport:
    """Every stabilizer clears at most w_c * w_q energy: Delta(s) <= w_c w_q."""
    tx, tz, paired, worst, bound = _stabilizer_setup(code, cap)
    nx, nz = 1 << tx.quotient.rank, 1 << tz.quotient.rank
    mode, checked = ("paired", nx * nz) if paired else ("factored", nx + nz)
    counter = None
    if worst > bound:  # only now is each rowspace scanned, for its worst vectors
        xs, zs = _coset_values(tx, 0), _coset_values(tz, 0)
        if paired:  # the first worst pair of the x-major, z-minor scan of all pairs
            x_bits, z_bits = next((x, z) for a, x in xs for b, z in zs if max(a, b) == worst)
        else:
            x_bits, z_bits = max(xs, key=itemgetter(0))[1], max(zs, key=itemgetter(0))[1]
        counter = {"x_bits": x_bits, "z_bits": z_bits, "barrier": worst, "bound": bound}
    # constructive side: stabilizer_path's walks (the drawn generators in turn,
    # on packed states) stay under the bound; the energy after each is recorded
    gens = code.pauli_rows[1]
    baselines = []
    rng = random.Random(0)
    for _ in range(8):
        combo_bits = rng.randrange(1 << len(gens))
        path = _pauli_walk(code, [q for g in _ones(combo_bits) for q in _ones(gens[g])], int)
        if path.max_energy > bound and counter is None:
            counter = {"combo_bits": combo_bits, "path_max": path.max_energy, "bound": bound}
        # path indices where each selected generator has just been fully applied
        marks = accumulate(gens[g].bit_count() for g in _ones(combo_bits))
        baselines.append(max((path.energies[i] for i in marks), default=0))
    details = {
        "bound": bound,
        "worst_barrier": worst,
        "mode": mode,
        "constructive_baseline_peaks": baselines,
    }
    return _report("lemma1", instance, checked, details, counter)


def _random_stabilizer(code: HgpCode, rng: random.Random) -> tuple[int, int]:
    """Random stabilizer (x bits, z bits): each of the code's packed
    generators (``HgpCode.pauli_rows``) with probability 1/2."""
    bits = 0
    for r in code.pauli_rows[1]:
        if rng.random() < 0.5:
            bits ^= r
    return code.unpack(bits)


def _random_logical(
    code: HgpCode, rng: random.Random, zs: list[int], xs: list[int]
) -> tuple[int, int]:
    """Random nontrivial logical: a combination of the canonical Z operators'
    z bits ``zs`` and X operators' x bits ``xs``, times a stabilizer."""
    while True:
        z_sel = rng.randrange(1 << len(zs))
        x_sel = rng.randrange(1 << len(xs))
        if z_sel or x_sel:
            break
    sx, sz = _random_stabilizer(code, rng)
    return combine(xs, x_sel) ^ sx, combine(zs, z_sel) ^ sz


def check_theorem1(
    code: HgpCode,
    samples: int = 100,
    seed: int = 0,
    cap: int = DEFAULT_STATE_CAP,
    instance: str = "",
) -> VerifyReport:
    """Multiplying by a stabilizer moves a barrier at most to w_c w_q:
    Delta(L s) <= max(Delta(L), w_c w_q), over seeded (L, s) samples.

    When the stabilizer rowspace has at most 2^12 elements, each sampled L is
    additionally checked against every stabilizer: the largest value on the
    coset L + rowspace is max(value(L), ``stabilizer_max``) per sector, and
    value(L) <= Delta(L), so some stabilizer breaks the bound exactly when
    the higher top does. Only then are L's cosets scanned for the worst one.
    """
    # a bool is neither a count nor a seed, though it is an int; an unseeded
    # Random would draw from system entropy, and the report could not be rerun
    for name, value in (("samples", samples), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"thm1's {name} must be an int, not {type(value).__name__}")
    if samples < 1:
        raise ValueError(f"thm1 needs at least one sample, got {samples}")
    _require_logicals(code)
    tx, tz, sweep_all, top, bound = _stabilizer_setup(code, cap)
    zs = [op.realized.z.bits for op in canonical_z_basis(code)]
    xs = [op.realized.x.bits for op in canonical_x_basis(code)]
    rng = random.Random(seed)
    counter = None
    smallest_slack = None
    for _ in range(samples):
        lx, lz = _random_logical(code, rng, zs, xs)
        sx, sz = _random_stabilizer(code, rng)
        d_l = max(tx.value(lx), tz.value(lz))
        d_ls = max(tx.value(lx ^ sx), tz.value(lz ^ sz))
        rhs = max(d_l, bound)
        slack = rhs - d_ls
        if smallest_slack is None or slack < smallest_slack:
            smallest_slack = slack
        if counter is not None:
            continue
        if d_ls <= rhs and sweep_all and top > rhs:
            # the sampled stabilizer holds but some other one breaks the
            # bound: scan each sector's coset for its worst one
            worst = (max(_coset_values(t, l), key=itemgetter(0)) for t, l in ((tx, lx), (tz, lz)))
            (wx, x_bits), (wz, z_bits) = worst
            sx, sz, d_ls = x_bits ^ lx, z_bits ^ lz, max(wx, wz)
        if d_ls > rhs:
            counter = {
                "l_x": lx,
                "l_z": lz,
                "s_x": sx,
                "s_z": sz,
                "delta_l": d_l,
                "delta_ls": d_ls,
                "bound": bound,
            }
    details = {
        "bound": bound,
        "smallest_slack": smallest_slack,
        "stabilizer_sweep": "exhaustive" if sweep_all else "sampled",
    }
    return _report("thm1", instance, samples, details, counter, seed)


def check_lemma2(code: HgpCode, cap: int = DEFAULT_STATE_CAP, instance: str = "") -> VerifyReport:
    """An elementary operator's barrier is attained inside its own grid line:
    the unrestricted exact barrier equals the single-column restricted one."""
    _require_logicals(code)
    tz = sector_table(code, "z", cap)
    checked = 0
    counter = None
    values = []
    for op in canonical_z_basis(code):
        parent, word, _ = elementary_leg(code, op)
        unrestricted = tz.value(op.realized.z.bits)
        restricted = classical_table(parent, cap).value(word.bits)
        # constructive witness: the single-line sweep stays in the subset and
        # must attain exactly the restricted optimum
        sweep = sweep_path_for_canonical(code, op, cap)
        checked += 1
        values.append(
            {
                "unrestricted": unrestricted,
                "restricted": restricted,
                "witness_steps": len(sweep.states) - 1,
                "witness_max": sweep.max_energy,
            }
        )
        if (unrestricted != restricted or sweep.max_energy != restricted) and counter is None:
            counter = {
                "z_bits": op.realized.z.bits,
                "unrestricted": unrestricted,
                "restricted": restricted,
                "witness_max": sweep.max_energy,
            }
    return _report("lemma2", instance, checked, {"per_operator": values}, counter)


def _canonical_z_values(code: HgpCode, cap: int) -> dict[int, int]:
    """Exact barrier of every nonzero canonical Z coefficient combination."""
    tz = sector_table(code, "z", cap)
    zs = [op.realized.z.bits for op in canonical_z_basis(code)]
    return {sel: tz.value(combine(zs, sel)) for sel in range(1, 1 << len(zs))}


def _first_below(values: dict[int, int], floor, name: str) -> dict | None:
    """Counterexample for the first selection whose value is below ``floor``,
    which it reports under ``name``; None if there is none."""
    for sel, val in values.items():
        if val < floor:
            return {"selection": sel, "barrier": val, name: floor}
    return None


def check_lemma3(code: HgpCode, cap: int = DEFAULT_STATE_CAP, instance: str = "") -> VerifyReport:
    """Composite canonical operators cost at least the cheapest elementary one."""
    _require_logicals(code)
    values = _canonical_z_values(code, cap)
    n_elem = len(canonical_z_basis(code))
    elementary_min = min(values[1 << i] for i in range(n_elem))
    counter = _first_below(values, elementary_min, "elementary_min")
    details = {"elementary_min": elementary_min, "composite_min": min(values.values())}
    return _report("lemma3", instance, len(values), details, counter)


def _lemma4_memo(h2: ClassicalCode) -> tuple[list[int], tuple[int, int] | None]:
    """What lemma4 reads of H2: (its nonzero codewords, the first (row index
    i, codeword L) with row i of H2 odd against L, or None). Parity is
    linear, so the rows decide it for every vector of their row space."""
    words = [w.bits for w in h2.iter_codewords() if w.bits]
    rows = enumerate(h2.h.row_bits)
    return words, next(((i, w) for i, row in rows for w in words if (row & w).bit_count() & 1), None)


def check_lemma4(
    family: list[tuple[ClassicalCode, ClassicalCode]] | None = None,
    cap: int = DEFAULT_STATE_CAP,
    instance: str = "2x3 family",
) -> VerifyReport:
    """Column collapse never gains weight: wt(H1 Z1 L) <= wt(H1 Z1 + Z2 H2),
    exhaustively over all Z1, Z2 and nonzero codewords L of H2.

    Over the rows h_i of H1 Z1, the left side sums the parities h_i . L, each
    at most 1, and the least right side over Z2 sums the rows' distances to
    H2's row space, each at least 1 off it. So a triple fails only through a
    row s in the row space that is odd against some L, and any such s fails
    some entry if H1 is nonzero: Z1 = s in row j, where H1 has a 1 in column
    j, gives rows s or 0. One verdict per H2 thus decides a pair with a
    nonzero H1: whether H2's row space is even against its codewords, which
    its rows decide, parity being linear. A failing pair reports that
    argument's triple: Z1 holds the first odd row i of H2 in row j, j the
    first column in which H1 has a 1, Z2 holds e_i in each row where column
    j of H1 has a 1, so Z2 H2 = H1 Z1, and both sides, evaluated through
    f2core, read lhs >= 1 against rhs = 0. ``cap`` bounds the
    2^(n1 n2) + 2^(r1 r2) matrices Z1 and Z2 of each pair.
    """
    if family is None:
        family = lemma4_default_family()
    checked = 0
    counter = None
    memos: dict = {}  # H2 -> _lemma4_memo(H2), once a pair with that H2 needs it
    for h1, h2 in family:
        n_words = (1 << h2.k) - 1
        if not n_words:
            continue
        n1, n2, r1, r2 = h1.n, h2.n, h1.r, h2.r
        # exponents first: 2^(n1 n2) alone can outweigh the memory it guards
        if max(n1 * n2, r1 * r2) >= cap.bit_length() or (1 << (n1 * n2)) + (1 << (r1 * r2)) > cap:
            raise CapExceeded(f"2^{n1 * n2} + 2^{r1 * r2} lemma4 matrices Z1 and Z2 exceed cap {cap}")
        checked += (1 << (n1 * n2 + r1 * r2)) * n_words
        if counter is not None:
            continue
        if h2.h not in memos:
            memos[h2.h] = _lemma4_memo(h2)
        odd = memos[h2.h][1]
        if odd is None or not any(h1.h.row_bits):
            continue
        i, word = odd
        j = min((row & -row).bit_length() - 1 for row in h1.h.row_bits if row)
        z1 = BitMatrix(n1, n2, tuple(h2.h.row_bits[i] if c == j else 0 for c in range(n1)))
        z2 = BitMatrix(r1, r2, tuple((row >> j & 1) << i for row in h1.h.row_bits))
        entry, codeword = mat_mul(h1.h, z1), BitVec(n2, word)
        counter = {
            "h1": h1.h.to01_rows(),
            "h2": h2.h.to01_rows(),
            "z1": z1.to01_rows(),
            "z2": z2.to01_rows(),
            "codeword": codeword.to01(),
            "lhs": weight(mat_vec(entry, codeword)),
            "rhs": weight(mat_add(entry, mat_mul(z2, h2.h))),
        }
    return _report("lemma4", instance, checked, {"pairs": len(family)}, counter)


def _parent_barrier(c: ClassicalCode, cap: int) -> int | float:
    try:
        return classical_barrier(c, cap).value
    except NoLogicals:
        return math.inf


def _typed_floor(ops, vv: int | float, cc: int | float) -> int | float:
    """The least parent barrier over the types of the canonical operators
    ``ops``: ``vv`` if one has a nonzero lambda, ``cc`` if one a nonzero kappa."""
    return min(
        vv if any(any(op.lam.row_bits) for op in ops) else math.inf,
        cc if any(any(op.kappa.row_bits) for op in ops) else math.inf,
    )


def check_proposition1(code: HgpCode, cap: int = DEFAULT_STATE_CAP, instance: str = "") -> VerifyReport:
    """Every nontrivial canonical Z operator costs at least
    min(Delta(H1), Delta(H2^T)) over the operator types the code has."""
    _require_logicals(code)
    d1, d2t = (_parent_barrier(p, cap) for p in code.parents("z"))
    floor = _typed_floor(canonical_z_basis(code), d1, d2t)
    values = _canonical_z_values(code, cap)
    counter = _first_below(values, floor, "floor")
    details = {
        "delta_h1": _json_value(d1),
        "delta_h2t": _json_value(d2t),
        "floor": _json_value(floor),
        "canonical_min": min(values.values()),
    }
    return _report("prop1", instance, len(values), details, counter)


def _json_value(v: int | float):
    return None if v == math.inf else v


def check_main_equality(
    h1: ClassicalCode,
    h2: ClassicalCode,
    cap: int = DEFAULT_STATE_CAP,
    instance: str = "",
) -> VerifyReport:
    """Finite form of the product-barrier formula.

    Hard checks (unconditional): the canonical-Z barrier equals
    min(Delta(H1), Delta(H2^T)) over the operator types the instance
    actually has, and the canonical-X barrier equals the mirrored minimum.
    The full-barrier equality Delta = min over all four parents is asserted
    only when the sufficient condition min(parents) > w_c w_q holds, and
    reported informationally otherwise.
    """
    code = build_hgp(h1, h2)
    _require_logicals(code)
    quantum = quantum_barrier(code, "both", cap).value
    deltas = {kind: [_parent_barrier(p, cap) for p in code.parents(kind)] for kind in ("z", "x")}
    parents = dict(zip(("h1", "h2t", "h2", "h1t"), deltas["z"] + deltas["x"]))
    min_parents = min(parents.values())
    bound = code.w_c * code.w_q
    condition = min_parents != math.inf and min_parents > bound

    counter = None
    checked = 1
    canonical = {}
    for kind, basis in (("z", canonical_z_basis), ("x", canonical_x_basis)):
        table = sector_table(code, kind, cap)
        ops = basis(code)
        checked += len(ops)
        canonical[kind] = min(table.value(op.realized.part(kind).bits) for op in ops)
        expect = _typed_floor(ops, *deltas[kind])
        if canonical[kind] != expect and counter is None:
            expected = _json_value(expect)
            counter = {"side": kind.upper(), "canonical": canonical[kind], "expected": expected}
    if condition and quantum != min_parents and counter is None:
        counter = {
            "side": "full",
            "quantum": quantum,
            "min_parents": _json_value(min_parents),
        }
    details = {
        "quantum": quantum,
        "parents": {k: _json_value(v) for k, v in parents.items()},
        "min_parents": _json_value(min_parents),
        "canonical_z": canonical["z"],
        "canonical_x": canonical["x"],
        "sparsity_bound": bound,
        "condition_holds": condition,
        "full_equality_observed": quantum == min_parents,
    }
    return _report("main", instance, checked, details, counter)


def check_css_restriction(
    code: HgpCode,
    cap: int = DEFAULT_STATE_CAP,
    instance: str = "",
) -> VerifyReport:
    """Pure-sector logicals need no mixed-Pauli detours: the full Pauli-group
    barrier of a pure-Z (pure-X) logical equals its sector barrier. Full
    values are read off the code's ``pauli_table``, as
    ``pauli_barrier_general`` reads them, without building its witness walks."""
    _require_logicals(code)
    tables = {"z": sector_table(code, "z", cap), "x": sector_table(code, "x", cap)}
    full_table = pauli_table(code, cap)
    checked = 0
    counter = None
    for kind, logicals in (("z", enumerate_z_logicals), ("x", enumerate_x_logicals)):
        for p in logicals(code, cap):
            full = full_table.value(code.pack(p.x.bits, p.z.bits))
            sector = tables[kind].value(p.part(kind).bits)
            checked += 1
            if full != sector and counter is None:
                counter = {f"{kind}_bits": p.part(kind).bits, "full": full, "sector": sector}
    return _report("css-restriction", instance, checked, {}, counter)


# -- claim runner ---------------------------------------------------------------

def _timed(check, *args, **kwargs) -> VerifyReport:
    """The report of one check call, with the call's wall time as ``elapsed``."""
    start = time.perf_counter()
    report = check(*args, **kwargs)
    report.elapsed = time.perf_counter() - start
    return report


def run_claim(
    claim: str,
    seed: int = 0,
    cap: int = DEFAULT_STATE_CAP,
    pair: tuple[ClassicalCode, ClassicalCode] | None = None,
    instance: str = "",
) -> list[VerifyReport]:
    """Reports of one claim: on its registry instances, or, given ``pair``,
    on the product of those two parents, reported under ``instance``.
    lemma4 checks its own matrix family, or, given ``pair``, that one pair
    (H1, H2)."""
    if claim not in _CLAIMS:
        raise ValueError(f"unknown claim {claim!r}; expected one of {', '.join(CLAIMS)}")
    checker, names = _CLAIMS[claim]
    check = globals()[checker]
    if claim == "lemma4":  # its own family, or the one pair given
        given = {"family": [pair], "instance": instance} if pair is not None else {}
        return [_timed(check, cap=cap, **given)]
    pairs = {instance: pair} if pair is not None else {name: _PARENTS[name] for name in names}
    # main checks the two parents; every other claim their product
    subjects = pairs if claim == "main" else {name: (build_hgp(*p),) for name, p in pairs.items()}
    seeded = {"seed": seed} if claim == "thm1" else {}
    return [_timed(check, *args, cap=cap, instance=name, **seeded) for name, args in subjects.items()]


def summarize(reports: list[VerifyReport]) -> dict:
    """The summary line of a report stream: claims, passes and fails."""
    return {
        "claims": len(reports),
        "passes": sum(r.passed for r in reports),
        "fails": sum(not r.passed for r in reports),
    }


def run_all(seed: int = 0, cap: int = DEFAULT_STATE_CAP) -> tuple[list[VerifyReport], dict]:
    reports = []
    for claim in CLAIMS:
        reports.extend(run_claim(claim, seed=seed, cap=cap))
    return reports, summarize(reports)
