"""Mechanical checks of the barrier claims on concrete small instances.

Each checker evaluates one claim exhaustively (or by seeded sampling where
the claim quantifies over an intractably large set) and returns a report
carrying the measured quantities. A failing report always includes a
counterexample that can be re-evaluated with the barrier and deform
primitives alone.

The exact barrier of any Pauli that commutes with every check splits into
independent sector problems: project a path onto its z (or x) component and
the energy never increases, while running the optimal x-sector path first
(ending at zero energy, since HZ x = 0) and the z-sector path second achieves
both sector optima. So Delta(x|z) = max(Delta_x(x), Delta_z(z)), and two
exhaustive sector tables answer every stabilizer and logical barrier query
for an instance in O(1).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import asdict, dataclass, field
from itertools import accumulate, product
from operator import itemgetter

from .barrier import (
    DEFAULT_PAULI_CAP,
    DEFAULT_STATE_CAP,
    _generators,
    _pauli_state,
    classical_barrier,
    classical_table,
    pauli_barrier_general,
    quantum_barrier,
    sector_table,
    stabilizer_path,
    sweep_path_for_canonical,
)
from .codes import (
    ClassicalCode,
    hamming_7_4,
    open_repetition,
    random_ldpc,
    ring_repetition,
)
from .errors import CapExceeded, NoLogicals
from .f2core import BitMatrix, BitVec, combine, linear_table, mat_mul, rref, span, unit_matrices
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
    "classical_instances",
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


@dataclass
class VerifyReport:
    claim: str
    instance: str
    status: str
    checked: int
    details: dict
    counterexample: dict | None = None
    seed: int | None = None
    elapsed: float = field(default=0.0, compare=False)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        # elapsed is intentionally dropped: report streams must be identical
        # across repeated runs with the same seed
        out = asdict(self)
        del out["elapsed"]
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


def classical_instances(seed: int = 0) -> dict[str, ClassicalCode]:
    out: dict[str, ClassicalCode] = {}
    for n in range(3, 7):
        out[f"ring_{n}"] = ring_repetition(n)
    for n in range(3, 7):
        out[f"chain_{n}"] = open_repetition(n)
    out["hamming_7_4"] = hamming_7_4()
    out["ldpc_8_6"] = random_ldpc(random.Random(seed), n=8, r=6, row_weight=4)
    return out


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
    start: float,
    checked: int,
    details: dict,
    counter: dict | None,
    seed: int | None = None,
) -> VerifyReport:
    """The report of a check begun at ``start``: it passes when no
    counterexample was found."""
    status = "pass" if counter is None else "fail"
    elapsed = time.perf_counter() - start
    return VerifyReport(claim, instance, status, checked, details, counter, seed, elapsed)


def _require_logicals(code: HgpCode) -> None:
    if code.k == 0:
        raise NoLogicals("instance has no logical qubits")


def _stabilizer_setup(code: HgpCode, cap: int):
    """(x table, z table, x basis, z basis, w_c w_q): both sector tables and
    both stabilizer rowspace bases, the rref rows of HX and of HZ."""
    tables = sector_table(code, "x", cap), sector_table(code, "z", cap)
    bases = []
    for m in (code.hx, code.hz):
        res = rref(m)
        bases.append(res.rref.row_bits[: res.rank])
    return *tables, *bases, code.w_c * code.w_q


def _coset_values(table, basis: tuple[int, ...], base: int = 0) -> list[tuple[int, int]]:
    """(table value, vector) of each vector of base + span(basis), in span order."""
    return [(table.value(base ^ s), base ^ s) for s in span(basis)]


def _coset_max(pairs):
    """The first (value, vector) pair of greatest value."""
    return max(pairs, key=itemgetter(0))


# -- single-claim checkers -----------------------------------------------------

def check_lemma1(code: HgpCode, cap: int = DEFAULT_STATE_CAP, instance: str = "") -> VerifyReport:
    """Every stabilizer clears at most w_c * w_q energy: Delta(s) <= w_c w_q."""
    start = time.perf_counter()
    tx, tz, bx, bz, bound = _stabilizer_setup(code, cap)
    xs, zs = _coset_values(tx, bx), _coset_values(tz, bz)
    if len(bx) + len(bz) <= 12:
        mode, checked = "paired", len(xs) * len(zs)
        # the first worst pair, as the x-major, z-minor scan of all pairs meets it
        (vx, x_bits), (vz, z_bits) = max(product(xs, zs), key=lambda p: max(p[0][0], p[1][0]))
    else:
        # max over pairs of max(a, b) factors into the two sector maxima,
        # so scanning each rowspace once is still exhaustive
        mode, checked = "factored", len(xs) + len(zs)
        (vx, x_bits), (vz, z_bits) = _coset_max(xs), _coset_max(zs)
    worst = max(vx, vz)
    counter = None
    if worst > bound:
        counter = {"x_bits": x_bits, "z_bits": z_bits, "barrier": worst, "bound": bound}
    # constructive side: generator-by-generator paths stay under the bound;
    # the running energy after each full generator is recorded, not asserted
    gens = _generators(code)
    baselines = []
    rng = random.Random(0)
    for _ in range(8):
        combo_bits = rng.randrange(1 << len(gens))
        combo = BitVec(len(gens), combo_bits)
        s = _pauli_state(combine(gens, combo_bits), code.n_qubits)
        path = stabilizer_path(code, s, combo)
        if path.max_energy > bound and counter is None:
            counter = {"combo_bits": combo_bits, "path_max": path.max_energy, "bound": bound}
        # path indices where each selected generator has just been fully applied
        marks = accumulate(gens[g].bit_count() for g in combo.support())
        baselines.append(max((path.energies[i] for i in marks), default=0))
    details = {
        "bound": bound,
        "worst_barrier": worst,
        "mode": mode,
        "constructive_baseline_peaks": baselines,
    }
    return _report("lemma1", instance, start, checked, details, counter)


def _random_stabilizer(code: HgpCode, rng: random.Random) -> tuple[int, int]:
    """Random stabilizer (x bits, z bits): each row of HX, then of HZ, with
    probability 1/2."""
    x_bits = 0
    for r in code.hx.row_bits:
        if rng.random() < 0.5:
            x_bits ^= r
    z_bits = 0
    for r in code.hz.row_bits:
        if rng.random() < 0.5:
            z_bits ^= r
    return x_bits, z_bits


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
    additionally checked against every stabilizer: the worst shift factorizes
    into per-sector coset maxima, so the sweep costs 2^rank_x + 2^rank_z
    lookups per operator instead of the full product.
    """
    start = time.perf_counter()
    _require_logicals(code)
    tx, tz, bx, bz, bound = _stabilizer_setup(code, cap)
    sweep_all = len(bx) + len(bz) <= 12
    zs = [op.realized.z.bits for op in canonical_z_basis(code)]
    xs = [op.realized.x.bits for op in canonical_x_basis(code)]
    rng = random.Random(seed)
    counter = None
    largest_gap = None
    for _ in range(samples):
        lx, lz = _random_logical(code, rng, zs, xs)
        sx, sz = _random_stabilizer(code, rng)
        d_l = max(tx.value(lx), tz.value(lz))
        d_ls = max(tx.value(lx ^ sx), tz.value(lz ^ sz))
        rhs = max(d_l, bound)
        gap = rhs - d_ls
        if largest_gap is None or gap < largest_gap:
            largest_gap = gap
        if counter is not None:
            continue
        if d_ls <= rhs and sweep_all:
            # the sampled stabilizer holds; take the worst one of each sector
            (wx, x_bits), (wz, z_bits) = (
                _coset_max(_coset_values(t, b, l)) for t, b, l in ((tx, bx, lx), (tz, bz, lz))
            )
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
        "smallest_slack": largest_gap,
        "stabilizer_sweep": "exhaustive" if sweep_all else "sampled",
    }
    return _report("thm1", instance, start, samples, details, counter, seed)


def check_lemma2(code: HgpCode, cap: int = DEFAULT_STATE_CAP, instance: str = "") -> VerifyReport:
    """An elementary operator's barrier is attained inside its own grid line:
    the unrestricted exact barrier equals the single-column restricted one."""
    start = time.perf_counter()
    _require_logicals(code)
    tz = sector_table(code, "z", cap)
    checked = 0
    counter = None
    values = []
    for op in canonical_z_basis(code):
        parent, word, _ = elementary_leg(code, op)
        unrestricted = tz.value(op.realized.z.bits)
        restricted = _unit_move_value(parent, word, cap)
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
    return _report("lemma2", instance, start, checked, {"per_operator": values}, counter)


def _unit_move_value(parent: BitMatrix, word: BitVec, cap: int) -> int:
    table = classical_table(ClassicalCode(parent), cap)
    return table.value(word.bits)


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
    start = time.perf_counter()
    _require_logicals(code)
    values = _canonical_z_values(code, cap)
    n_elem = len(canonical_z_basis(code))
    elementary_min = min(values[1 << i] for i in range(n_elem))
    counter = _first_below(values, elementary_min, "elementary_min")
    details = {"elementary_min": elementary_min, "composite_min": min(values.values())}
    return _report("lemma3", instance, start, len(values), details, counter)


def _pack(rows, cols: int) -> int:
    """Matrix rows packed row-major into one integer: row a at bits a * cols."""
    return sum(r << (a * cols) for a, r in enumerate(rows))


def _packed_span(rows: int, cols: int, image) -> list[int]:
    """Entry _pack(M) is _pack(image(M)) for every rows x cols matrix M. image
    is linear, so the table is the XOR span of the images of the unit matrices."""
    return linear_table([_pack(m.row_bits, m.cols) for m in map(image, unit_matrices(rows, cols))])


def _lemma4_pair(h1: ClassicalCode, h2: ClassicalCode, words: list[BitVec]):
    """Both sides of the collapse inequality for one pair, one Z1 at a time.

    H1 Z1 + Z2 H2 is linear in (Z1, Z2), so it is the XOR of two span-table
    entries, and H1 (Z1 L) = (H1 Z1) L reads off the rows of the H1 Z1 entry.
    Yields (Z1 rows, wt(H1 Z1 L) per codeword L, wt(H1 Z1 + Z2 H2) per Z2),
    with Z1 and Z2 in ``product`` order over their rows.
    """
    n1, n2, r1, r2 = h1.n, h2.n, h1.r, h2.r
    a = _packed_span(n1, n2, lambda z1: mat_mul(h1.h, z1))
    b = _packed_span(r1, r2, lambda z2: mat_mul(z2, h2.h))
    z2_terms = [b[_pack(z2, r2)] for z2 in product(range(1 << r2), repeat=r1)]
    for z1 in product(range(1 << n2), repeat=n1):
        h1z1 = a[_pack(z1, n2)]
        lhs = [sum(((h1z1 >> (i * n2)) & w.bits).bit_count() & 1 for i in range(r1)) for w in words]
        yield z1, lhs, [(h1z1 ^ t).bit_count() for t in z2_terms]


def check_lemma4(
    family: list[tuple[ClassicalCode, ClassicalCode]] | None = None,
    cap: int = DEFAULT_STATE_CAP,
    instance: str = "2x3 family",
) -> VerifyReport:
    """Column collapse never gains weight: wt(H1 Z1 L) <= wt(H1 Z1 + Z2 H2),
    exhaustively over all Z1, Z2 and nonzero codewords of H2.

    For each Z1 the inequality holds on every triple exactly when the largest
    left side is at most the smallest right side; only a Z1 that fails is
    rescanned in (Z2, L) order, for the first counterexample. ``cap`` bounds
    the 2^(n1 n2) + 2^(r1 r2) span-table entries of each pair.
    """
    start = time.perf_counter()
    if family is None:
        family = lemma4_default_family()
    checked = 0
    counter = None
    for h1, h2 in family:
        words = [w for w in h2.iter_codewords() if w.bits]
        if not words:
            continue
        n1, n2, r1, r2 = h1.n, h2.n, h1.r, h2.r
        if (1 << (n1 * n2)) + (1 << (r1 * r2)) > cap:
            raise CapExceeded(f"2^{n1 * n2} + 2^{r1 * r2} lemma4 table entries exceed cap {cap}")
        checked += (1 << (n1 * n2 + r1 * r2)) * len(words)
        for z1, lhs, rhs in _lemma4_pair(h1, h2, words):
            if counter is not None or max(lhs) <= min(rhs):
                continue
            z2_all = product(range(1 << r2), repeat=r1)
            z2, r = next((z2, r) for z2, r in zip(z2_all, rhs) if r < max(lhs))
            j = next(j for j, l in enumerate(lhs) if l > r)
            counter = {
                "h1": h1.h.to01_rows(),
                "h2": h2.h.to01_rows(),
                "z1": BitMatrix(n1, n2, z1).to01_rows(),
                "z2": BitMatrix(r1, r2, z2).to01_rows(),
                "codeword": words[j].to01(),
                "lhs": lhs[j],
                "rhs": r,
            }
    return _report("lemma4", instance, start, checked, {"pairs": len(family)}, counter)


def _parent_barrier(c: ClassicalCode, cap: int) -> int | float:
    try:
        return classical_barrier(c, cap).value
    except NoLogicals:
        return math.inf


def check_proposition1(code: HgpCode, cap: int = DEFAULT_STATE_CAP, instance: str = "") -> VerifyReport:
    """Every nontrivial canonical Z operator costs at least
    min(Delta(H1), Delta(H2^T))."""
    start = time.perf_counter()
    _require_logicals(code)
    d1 = _parent_barrier(code.h1, cap)
    d2t = _parent_barrier(code.h2.transpose(), cap)
    floor = min(d1, d2t)
    values = _canonical_z_values(code, cap)
    counter = _first_below(values, floor, "floor")
    details = {
        "delta_h1": _json_value(d1),
        "delta_h2t": _json_value(d2t),
        "floor": _json_value(floor),
        "canonical_min": min(values.values()),
    }
    return _report("prop1", instance, start, len(values), details, counter)


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
    start = time.perf_counter()
    code = build_hgp(h1, h2)
    _require_logicals(code)
    quantum = quantum_barrier(code, "both", cap).value
    parents = {
        "h1": _parent_barrier(h1, cap),
        "h2": _parent_barrier(h2, cap),
        "h1t": _parent_barrier(h1.transpose(), cap),
        "h2t": _parent_barrier(h2.transpose(), cap),
    }
    min_parents = min(parents.values())
    bound = code.w_c * code.w_q
    condition = min_parents != math.inf and min_parents > bound

    counter = None
    checked = 1
    canonical = {}
    # Z operators' bit-bit codewords are words of H1, check-check ones of
    # H2^T; the X side mirrors that through H1 <-> H2^T
    sides = (("z", canonical_z_basis, "h1", "h2t"), ("x", canonical_x_basis, "h2", "h1t"))
    for kind, basis, vv_parent, cc_parent in sides:
        table = sector_table(code, kind, cap)
        ops = basis(code)
        checked += len(ops)
        canonical[kind] = min(table.value(op.realized.part(kind).bits) for op in ops)
        expect = min(
            parents[vv_parent] if any(any(op.lam.row_bits) for op in ops) else math.inf,
            parents[cc_parent] if any(any(op.kappa.row_bits) for op in ops) else math.inf,
        )
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
    return _report("main", instance, start, checked, details, counter)


def check_css_restriction(
    code: HgpCode,
    cap: int = DEFAULT_PAULI_CAP,
    instance: str = "",
) -> VerifyReport:
    """Pure-sector logicals need no mixed-Pauli detours: the full Pauli-group
    barrier of a pure-Z (pure-X) logical equals its sector barrier."""
    start = time.perf_counter()
    _require_logicals(code)
    tables = {"z": sector_table(code, "z", cap), "x": sector_table(code, "x", cap)}
    checked = 0
    counter = None
    for kind, logicals in (("z", enumerate_z_logicals), ("x", enumerate_x_logicals)):
        for p in logicals(code):
            full = pauli_barrier_general(code, p, cap).value
            sector = tables[kind].value(p.part(kind).bits)
            checked += 1
            if full != sector and counter is None:
                counter = {f"{kind}_bits": p.part(kind).bits, "full": full, "sector": sector}
    return _report("css-restriction", instance, start, checked, {}, counter)


# -- claim runner ---------------------------------------------------------------

def run_claim(
    claim: str,
    seed: int = 0,
    cap: int = DEFAULT_STATE_CAP,
    pair: tuple[ClassicalCode, ClassicalCode] | None = None,
    instance: str = "",
) -> list[VerifyReport]:
    """Reports of one claim: on its registry instances, or, given ``pair``,
    on the product of those two parents, reported under ``instance``.
    lemma4 checks its own matrix family and takes no pair."""
    if claim not in _CLAIMS:
        raise ValueError(f"unknown claim {claim!r}; expected one of {', '.join(CLAIMS)}")
    checker, names = _CLAIMS[claim]
    check = globals()[checker]
    if claim == "lemma4":
        if pair is not None:
            raise ValueError("lemma4 runs on its built-in family only")
        return [check(cap=cap)]
    pairs = {instance: pair} if pair is not None else {name: _PARENTS[name] for name in names}
    # main checks the two parents; every other claim their product
    subjects = pairs if claim == "main" else {name: (build_hgp(*p),) for name, p in pairs.items()}
    seeded = {"seed": seed} if claim == "thm1" else {}
    return [check(*args, cap=cap, instance=name, **seeded) for name, args in subjects.items()]


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
