"""The three benchmark workloads: inputs, the timed calls, and their checks.

Each workload builds its inputs from the seed in ``__init__`` (set-up), makes
its calls into hgpbarrier in ``run`` (the timed region), and afterwards turns
every call's result into an observation plus a list of problems found by
independent checks (``check``). Observations are compared with recorded
reference values by the caller; ``explored`` counts and witness bytes are
never part of an observation, because the program may change them.

The program is reached only through module attributes (``hb.verify.x``),
so the traced run sees every call after it replaces those attributes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle

clock = time.perf_counter


@dataclass
class Op:
    """One call into the program."""

    key: str
    request: str
    start: float
    end: float
    result: object = None
    error: str | None = None
    seeded: bool = True
    obs: object = None
    problems: list = field(default_factory=list)


def _jsonable(obj):
    return json.loads(json.dumps(obj, sort_keys=True, default=str))


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Workload:
    name = ""
    entries = 0  # sum of 2^n over the exhaustive tables the run makes available

    def __init__(self, hb, seed: int, tiny: bool, workdir: Path):
        self.hb = hb
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.ops: list[Op] = []

    def call(self, key, request, fn, *args, seeded=True, **kwargs):
        t0 = clock()
        try:
            result, error = fn(*args, **kwargs), None
        except Exception as e:  # a failed call is counted, not fatal
            result, error = None, f"{type(e).__name__}: {e}"
        self.ops.append(Op(key, request, t0, clock(), result, error, seeded))
        return result

    def run(self) -> None:
        raise NotImplementedError

    def check(self) -> None:
        """Fill ``obs`` and ``problems`` of every op; runs after the timed region."""
        for op in self.ops:
            if op.error is not None:
                op.problems.append(op.error)
                continue
            try:
                self.check_op(op)
            except Exception as e:  # a result the checks cannot read is a failure
                op.problems.append(f"check raised {type(e).__name__}: {e}")

    def check_op(self, op: Op) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


# -- shared helpers -------------------------------------------------------------

def _rows(code) -> tuple:
    return tuple(code.h.row_bits)


# -- claims ------------------------------------------------------------------------

# The instance list is owned here, not taken from the program's registry, so a
# change that adds registry instances does not silently change the workload.
_PRODUCTS = {
    "toric_3": ("ring", 3, "ring", 3),
    "surface_3": ("chain", 3, "chain", 3),
    "tiny_2": ("chain", 2, "chain", 2),
    "ring_2": ("ring", 2, "ring", 2),
    "rect_2_3": ("chain", 2, "chain", 3),
    "rect_3_2": ("chain", 3, "chain", 2),
    "rect_4_3": ("chain", 4, "chain", 3),
    "ring3_chain3": ("ring", 3, "chain", 3),
    "ring4_chain3": ("ring", 4, "chain", 3),
}

_LEMMA4_ROWS = (("110", "011"), ("111", "011"), ("101", "010"), ("110", "110"), ("111", "111"))

_CLAIM_PLAN = (
    ("lemma1", "check_lemma1", ("surface_3", "toric_3")),
    ("thm1", "check_theorem1", ("surface_3", "toric_3")),
    ("lemma2", "check_lemma2", ("surface_3", "toric_3", "ring_2", "rect_2_3")),
    ("lemma3", "check_lemma3", ("surface_3", "toric_3", "ring_2", "rect_2_3")),
    ("lemma4", "check_lemma4", ("2x3 family",)),
    ("prop1", "check_proposition1", ("tiny_2", "rect_2_3", "ring_2", "surface_3", "toric_3")),
    ("main", "check_main_equality", ("toric_3", "surface_3", "rect_2_3", "ring_2", "rect_4_3")),
    ("css-restriction", "check_css_restriction", ("tiny_2", "rect_2_3", "rect_3_2", "ring_2")),
)

_TINY_CLAIM_PLAN = (
    ("lemma1", "check_lemma1", ("surface_3",)),
    ("thm1", "check_theorem1", ("surface_3",)),
    ("lemma2", "check_lemma2", ("surface_3", "ring_2")),
    ("lemma3", "check_lemma3", ("surface_3", "ring_2")),
    ("lemma4", "check_lemma4", ("2x3 family",)),
    ("prop1", "check_proposition1", ("tiny_2", "ring_2")),
    ("main", "check_main_equality", ("surface_3", "ring_2")),
    ("css-restriction", "check_css_restriction", ("tiny_2",)),
)


def _parent(hb, kind, n):
    return hb.codes.ring_repetition(n) if kind == "ring" else hb.codes.open_repetition(n)


def _parents(hb, name):
    k1, n1, k2, n2 = _PRODUCTS[name]
    return _parent(hb, k1, n1), _parent(hb, k2, n2)


class Claims(Workload):
    """Every claim checker, in the claim order of ``verify all``."""

    name = "claims"

    def __init__(self, hb, seed, tiny, workdir):
        super().__init__(hb, seed, tiny, workdir)
        self.plan = _TINY_CLAIM_PLAN if tiny else _CLAIM_PLAN
        names = sorted({i for _, _, insts in self.plan for i in insts} - {"2x3 family"})
        self.parents = {name: _parents(hb, name) for name in names}
        self.codes = {name: hb.hgp.build_hgp(*p) for name, p in self.parents.items()}
        mats = [hb.f2core.BitMatrix.from_rows(list(r)) for r in _LEMMA4_ROWS]
        if tiny:
            mats = mats[:2]
        self.family = [(hb.codes.ClassicalCode(a), hb.codes.ClassicalCode(b)) for a in mats for b in mats]
        self.entries = 0
        for name in {i for claim, _, insts in self.plan if claim != "lemma4" for i in insts}:
            self.entries += 2 << self.codes[name].n_qubits

    def run(self):
        # one request is the whole suite, as a user of ``verify all`` waits for it
        for claim, fn_name, instances in self.plan:
            fn = getattr(self.hb.verify, fn_name)
            for inst in instances:
                if claim == "lemma4":
                    args, kwargs = (self.family,), {}
                elif claim == "main":
                    args, kwargs = self.parents[inst], {"instance": inst}
                elif claim == "thm1":
                    args, kwargs = (self.codes[inst],), {"samples": 100, "seed": self.seed, "instance": inst}
                else:
                    args, kwargs = (self.codes[inst],), {"instance": inst}
                self.call(f"{claim}/{inst}", "suite", fn, *args, seeded=claim == "thm1", **kwargs)

    def check_op(self, op):
        rep = op.result
        details = _jsonable(rep.details)
        op.obs = {"status": rep.status, "checked": rep.checked, "details": details}
        if rep.status != "pass":
            op.problems.append(f"status {rep.status}: {rep.counterexample}")
        claim, inst = op.key.split("/", 1)
        if claim == "lemma4":
            expected = 0
            for a, b in self.family:
                n1, n2, r1, r2 = a.n, b.n, a.r, b.r
                words = sum(1 for v in oracle.span(oracle.kernel_basis(_rows(b), n2)) if v)
                expected += (1 << (n1 * n2)) * (1 << (r1 * r2)) * words
            if rep.checked != expected:
                op.problems.append(f"lemma4 checked {rep.checked}, expected {expected}")
            return
        h1, h2 = self.parents[inst]
        hx, hz, n = oracle.hgp_rows(_rows(h1), h1.n, _rows(h2), h2.n)
        if claim == "lemma1":
            w_c, w_q = _weights(hx, hz, n)
            bound = w_c * w_q
            if details["bound"] != bound or details["worst_barrier"] > bound:
                op.problems.append(f"lemma1 details {details} against bound {bound}")
        elif claim == "thm1":
            if rep.checked != 100:
                op.problems.append(f"thm1 checked {rep.checked} samples, asked for 100")
        elif claim == "prop1":
            d1 = oracle.classical_barrier(_rows(h1), h1.n)
            d2t = oracle.classical_barrier(oracle.transpose(_rows(h2), h2.n), h2.r)
            if (details["delta_h1"], details["delta_h2t"]) != (d1, d2t):
                op.problems.append(f"prop1 parent barriers {details} vs ({d1}, {d2t})")
        elif claim == "main":
            want = {
                "h1": oracle.classical_barrier(_rows(h1), h1.n),
                "h2": oracle.classical_barrier(_rows(h2), h2.n),
                "h1t": oracle.classical_barrier(oracle.transpose(_rows(h1), h1.n), h1.r),
                "h2t": oracle.classical_barrier(oracle.transpose(_rows(h2), h2.n), h2.r),
            }
            if details["parents"] != want:
                op.problems.append(f"main parents {details['parents']} vs {want}")
            if details["quantum"] > min(details["canonical_z"], details["canonical_x"]):
                op.problems.append("quantum barrier above a canonical operator's barrier")
        elif claim == "css-restriction":
            expected = len(oracle.nontrivial_logicals(hx, hz, n)) + len(oracle.nontrivial_logicals(hz, hx, n))
            if rep.checked != expected:
                op.problems.append(f"css-restriction checked {rep.checked}, expected {expected}")


def _weights(hx, hz, n):
    """Largest stabilizer weight and largest number of stabilizers on a qubit."""
    w_c = max(r.bit_count() for r in hx + hz)
    w_q = max(sum((r >> q) & 1 for r in hx + hz) for q in range(n))
    return w_c, w_q


# -- sector tables ---------------------------------------------------------------

def random_rows(rng: random.Random, n: int, r: int, w: int) -> tuple:
    """Seeded sparse check rows: each check picks w distinct bits, and a bit no
    check touches is attached to a random check."""
    rows = [sum(1 << j for j in rng.sample(range(n), w)) for _ in range(r)]
    for j in range(n):
        if not any((row >> j) & 1 for row in rows):
            rows[rng.randrange(r)] |= 1 << j
    return tuple(rows)


_SAMPLE = 64  # table states read back per table
_PATHS = 4  # of those, states whose witness walk is re-validated


class SectorTables(Workload):
    """Exhaustive sector tables on a ladder of products from 13 to 20 qubits,
    plus full-Pauli searches on every Z-logical of products up to 10 qubits."""

    name = "sector-tables"

    def __init__(self, hb, seed, tiny, workdir):
        super().__init__(hb, seed, tiny, workdir)
        rng = random.Random(seed)
        code = hb.codes.ClassicalCode
        mat = hb.f2core.BitMatrix

        def rand(n, r):
            return code(mat(r, n, random_rows(rng, n, r, 2)))

        if tiny:
            ladder = [("surface_3", *_parents(hb, "surface_3"), False),
                      ("rnd_a", rand(3, 2), rand(3, 2), True)]
            small = [("tiny_2", *_parents(hb, "tiny_2"), False)]
        else:
            ladder = [(name, *_parents(hb, name), False)
                      for name in ("surface_3", "ring3_chain3", "toric_3", "rect_4_3")]
            ladder += [("rnd_a", rand(4, 3), rand(3, 2), True),
                       ("rnd_b", rand(3, 2), rand(4, 3), True),
                       ("ring4_chain3", *_parents(hb, "ring4_chain3"), False)]
            small = [(name, *_parents(hb, name), False)
                     for name in ("tiny_2", "ring_2", "rect_2_3", "rect_3_2")]
        self.products = [(name, h1, h2, hb.hgp.build_hgp(h1, h2), seeded, False)
                         for name, h1, h2, seeded in ladder]
        self.products += [(name, h1, h2, hb.hgp.build_hgp(h1, h2), seeded, True)
                          for name, h1, h2, seeded in small]
        self._oracle = {}
        self.entries = sum(
            (2 << c.n_qubits) + (1 << h1.n) + (1 << h2.n) for _, h1, h2, c, _, _ in self.products
        )

    def run(self):
        barrier, logicals = self.hb.barrier, self.hb.logicals
        for name, h1, h2, code, seeded, small in self.products:
            # one request is the whole ladder: the products differ in size by
            # design, so a median over them would jump between products
            req = "ladder"
            for sector in ("z", "x"):
                self.call(f"table/{name}/{sector}", req, barrier.sector_table, code, sector, seeded=seeded)
            self.call(f"quantum/{name}", req, barrier.quantum_barrier, code, "both", seeded=seeded)
            for side, parent in (("h1", h1), ("h2", h2)):
                self.call(f"classical/{name}/{side}", req, barrier.classical_table, parent, seeded=seeded)
            if small:
                t0 = clock()
                targets = list(logicals.enumerate_z_logicals(code))
                self.ops.append(Op(f"zlogicals/{name}", req, t0, clock(), targets, None, seeded))
                for p in targets:
                    self.call(f"pauli/{name}/{p.z.bits}", req, barrier.pauli_barrier_general, code, p,
                              seeded=seeded)

    def _geometry(self, name):
        for pname, h1, h2, code, seeded, small in self.products:
            if pname == name:
                hx, hz, n = oracle.hgp_rows(_rows(h1), h1.n, _rows(h2), h2.n)
                return h1, h2, hx, hz, n, small
        raise KeyError(name)

    def _oracle_table(self, name, rows, n):
        key = (name, rows)
        if key not in self._oracle:
            self._oracle[key] = oracle.minimax_all(rows, n)
        return self._oracle[key]

    def _table(self, name, sector):
        for op in self.ops:
            if op.key == f"table/{name}/{sector}":
                return op.result
        return None

    def check_op(self, op):
        kind, name, *rest = op.key.split("/")
        h1, h2, hx, hz, n, small = self._geometry(name)
        if kind == "table":
            sector = rest[0]
            rows = hx if sector == "z" else hz  # z-sector energy is wt(HX z)
            table = op.result
            rng = random.Random(self.seed if op.seeded else f"{name}/{sector}")
            sample = [0] + [rng.randrange(1 << n) for _ in range(_SAMPLE - 1)]
            values = [table.value(s) for s in sample]
            op.obs = values
            if values[0] != 0:
                op.problems.append("the zero state has nonzero barrier")
            for s, v in zip(sample, values):
                if v < oracle.energy(rows, s):
                    op.problems.append(f"state {s}: value {v} below its own energy")
                    break
            for s, v in zip(sample[1:_PATHS + 1], values[1:_PATHS + 1]):
                path = table.path(s)
                states = [st.bits for st in path.states]
                errs = oracle.path_errors(states, path.energies, v, lambda b: oracle.energy(rows, b))
                if states[-1] != s:
                    errs.append("walk ends elsewhere")
                op.problems.extend(f"state {s}: {e}" for e in errs)
            if small:
                full = self._oracle_table(name, rows, n)
                if [table.value(s) for s in range(1 << n)] != full:
                    op.problems.append("table differs from the exhaustive oracle")
        elif kind == "quantum":
            res = op.result
            op.obs = res.value
            end = res.witness.states[-1]
            if end.z.bits and not end.x.bits:
                rows, stab, bits = hx, hz, [s.z.bits for s in res.witness.states]
                sector = "z"
            else:
                rows, stab, bits = hz, hx, [s.x.bits for s in res.witness.states]
                sector = "x"
            op.problems.extend(oracle.path_errors(bits, res.witness.energies, res.value,
                                                  lambda b: oracle.energy(rows, b)))
            if oracle.energy(rows, bits[-1]) or not oracle.reduce(oracle.echelon(stab), bits[-1]):
                op.problems.append(f"witness endpoint is not a nontrivial {sector} logical")
            tz, tx = self._table(name, "z"), self._table(name, "x")
            if tz is not None and tx is not None:
                want = min(min(tz.value(z) for z in oracle.nontrivial_logicals(hx, hz, n)),
                           min(tx.value(x) for x in oracle.nontrivial_logicals(hz, hx, n)))
                if res.value != want:
                    op.problems.append(f"quantum barrier {res.value}, cheapest logical in the tables {want}")
        elif kind == "classical":
            parent = h1 if rest[0] == "h1" else h2
            values = [op.result.value(s) for s in range(1 << parent.n)]
            op.obs = values
            if values != oracle.minimax_all(_rows(parent), parent.n):
                op.problems.append("classical table differs from the exhaustive oracle")
        elif kind == "zlogicals":
            got = sorted(p.z.bits for p in op.result)
            op.obs = digest(got)
            if got != sorted(oracle.nontrivial_logicals(hx, hz, n)):
                op.problems.append("Z-logical enumeration differs from the oracle")
        elif kind == "pauli":
            res = op.result
            z_bits = int(rest[0])
            op.obs = res.value
            mask = (1 << n) - 1
            states = [s.x.bits | (s.z.bits << n) for s in res.witness.states]
            steps_ok = all((((a ^ b) | ((a ^ b) >> n)) & mask).bit_count() == 1
                           for a, b in zip(states, states[1:]))
            if not steps_ok or states[0] != 0 or states[-1] != z_bits << n:
                op.problems.append("Pauli walk is not single-qubit steps from I to the target")
            energies = [oracle.energy(hz, s & mask) + oracle.energy(hx, s >> n) for s in states]
            if energies != list(res.witness.energies) or max(energies) != res.value:
                op.problems.append("Pauli walk energies or peak disagree")
            sector_value = self._oracle_table(name, hx, n)[z_bits]
            if res.value != sector_value:
                op.problems.append(f"Pauli barrier {res.value} differs from its sector barrier {sector_value}")


# -- cli batch --------------------------------------------------------------------

def dense_text(rows, n) -> str:
    lines = [f"{len(rows)} {n}"]
    lines += ["".join("1" if (r >> j) & 1 else "0" for j in range(n)) for r in rows]
    return "\n".join(lines) + "\n"


def alist_text(rows, n) -> str:
    cols = [[i for i, r in enumerate(rows) if (r >> j) & 1] for j in range(n)]
    checks = [[j for j in range(n) if (r >> j) & 1] for r in rows]
    lines = [f"{n} {len(rows)}",
             f"{max(map(len, cols))} {max(map(len, checks))}",
             " ".join(str(len(c)) for c in cols),
             " ".join(str(len(c)) for c in checks)]
    lines += [" ".join(str(i + 1) for i in c) for c in cols]
    lines += [" ".join(str(j + 1) for j in c) for c in checks]
    return "\n".join(lines) + "\n"


def read_dense(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    r, n = map(int, lines[0].split())
    return tuple(sum(1 << j for j, ch in enumerate(ln.replace(" ", "")) if ch == "1") for ln in lines[1:]), n


_MALFORMED = (
    "2 3\n110\n01x\n",  # bad character
    "3 3\n110\n011\n",  # missing row
    "3 2\n1 1\n1 1 1\n1 2\n2 3\n1\n",  # alist neighbour counts disagree with degrees
)

_VERIFY_CLAIMS = ("lemma1", "thm1", "lemma2", "lemma3", "prop1", "main")


class CliBatch(Workload):
    """A closed loop with one client: requests through ``cli.main(argv)``."""

    name = "cli-batch"

    def __init__(self, hb, seed, tiny, workdir):
        super().__init__(hb, seed, tiny, workdir)
        rng = random.Random(seed)
        self.inputs = workdir / "inputs"
        self.outdir = workdir / "hgp"
        self.inputs.mkdir(parents=True)
        self.outdir.mkdir()
        self.files = {}  # path -> (rows, n)

        def add(tag, rows, n):
            paths = []
            for fmt, text in (("dense", dense_text(rows, n)), ("alist", alist_text(rows, n))):
                p = self.inputs / f"{tag}.{fmt}"
                p.write_text(text)
                self.files[str(p)] = (rows, n)
                paths.append(str(p))
            return paths

        def distinct(count, n, r):
            # distinct check rows, so every pair has tables of its own
            found = []
            while len(found) < count:
                rows = random_rows(rng, n, r, 2)
                if rows not in found:
                    found.append(rows)
            return found

        n_big = 2 if tiny else 6
        # products of a (3 bit, 2 check) and a (4 bit, 2 check) parent have
        # 16 qubits in either order; the small pairs have 8
        big, small = [], []
        for i, (ra, rb) in enumerate(zip(distinct(n_big, 3, 2), distinct(n_big, 4, 2))):
            a, b = add(f"a{i}", ra, 3), add(f"b{i}", rb, 4)
            big += [(a, b), (b, a)]
        d = add("d", random_rows(rng, 2, 1, 2), 2)
        for i, rc in enumerate(distinct(3, 3, 2)):
            small.append((add(f"c{i}", rc, 3), d))
        self.bad = []
        for i, text in enumerate(_MALFORMED):
            p = self.inputs / f"bad{i}.txt"
            p.write_text(text)
            self.bad.append(str(p))
        self.pairs = big + small
        singles = sorted({tuple(v) for pr in self.pairs for v in pr})
        scale = 0.1 if tiny else 1.0
        mix = (("info", 260), ("hgp", 120), ("logicals", 140), ("classical", 140),
               ("quantum", 120), ("canonical", 180), ("verify", 100), ("bad", 12), ("cap", 12))
        self.requests = []
        for kind, count in mix:
            for _ in range(max(1, int(count * scale))):
                sector = rng.choice(("z", "x", "both"))
                if kind == "info":
                    argv = ["info", rng.choice(rng.choice(singles))]
                elif kind == "classical":
                    argv = ["barrier", "classical", rng.choice(rng.choice(singles))]
                elif kind == "bad":
                    argv = [rng.choice(("info", "logicals")), rng.choice(self.bad)]
                    if argv[0] == "logicals":
                        argv.append(rng.choice(rng.choice(singles)))
                elif kind == "cap":
                    a, b = rng.choice(big)
                    argv = ["barrier", rng.choice(("canonical", "quantum")), rng.choice(a), rng.choice(b),
                            "--max-dim", "8"]
                else:
                    a, b = rng.choice(big if rng.random() < 0.5 else small)
                    pa, pb = rng.choice(a), rng.choice(b)
                    if kind == "hgp":
                        argv = ["hgp", pa, pb, "--out", str(self.outdir / f"r{len(self.requests)}")]
                    elif kind == "logicals":
                        argv = ["logicals", pa, pb, "--sector", sector]
                    elif kind == "quantum":
                        argv = ["barrier", "quantum", pa, pb, "--sector", sector]
                    elif kind == "canonical":
                        argv = ["barrier", "canonical", pa, pb, "--sector", sector]
                    else:
                        argv = ["verify", rng.choice(_VERIFY_CLAIMS), pa, pb, "--seed", str(seed)]
                self.requests.append((kind, argv))
        rng.shuffle(self.requests)
        self._warm_tables(rng)
        self.out_bytes = 0
        self.entries = sum(1 << n for n in self.tables.values())

    def _warm_tables(self, rng):
        """Put a one-sector ``barrier canonical`` request before the first
        request that needs each (pair, sector) table, so every seed has the
        same cold table builds, one table per request; a table no request
        needs is built at a random place."""
        self.tables = {}  # (rows1, rows2, sector) -> qubits
        out = []
        for kind, argv in self.requests:
            if kind == "canonical":
                sectors = ("z", "x") if argv[-1] == "both" else (argv[-1],)
                paths = argv[2:4]
            elif kind == "verify":
                sectors = ("z",) if argv[1] in ("lemma2", "lemma3", "prop1") else ("z", "x")
                paths = argv[2:4]
            else:
                sectors = ()
            for sector in sectors:
                a, b = (self.files[p] for p in paths)
                key = (a, b, sector)
                if key not in self.tables:
                    self.tables[key] = a[1] * b[1] + len(a[0]) * len(b[0])
                    out.append(("canonical", ["barrier", "canonical", *paths, "--sector", sector]))
            out.append((kind, argv))
        for pa, pb in self.pairs:
            a, b = self.files[pa[0]], self.files[pb[0]]
            for sector in ("z", "x"):
                if (a, b, sector) not in self.tables:
                    self.tables[(a, b, sector)] = a[1] * b[1] + len(a[0]) * len(b[0])
                    warm = ["barrier", "canonical", rng.choice(pa), rng.choice(pb), "--sector", sector]
                    out.insert(rng.randrange(len(out) + 1), ("canonical", warm))
        self.requests = out

    def _main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.hb.cli.main(argv)
            except SystemExit as e:
                code = e.code
        return code, out.getvalue(), err.getvalue()

    def run(self):
        for i, (kind, argv) in enumerate(self.requests):
            result = self.call(f"{i:04d}/{kind}", f"{i}", self._main, argv)
            if result is not None:
                self.out_bytes += len(result[1]) + len(result[2])

    def check_op(self, op):
        i, kind = op.key.split("/")
        argv = self.requests[int(i)][1]
        code, out, err = op.result
        want_code = {"bad": 2, "cap": 3}.get(kind, 0)
        if code != want_code:
            op.problems.append(f"exit code {code}, expected {want_code}: {err.strip()[:200]}")
            op.obs = digest([code])
            return
        if want_code:
            kind_err = json.loads(err)["error"]
            op.obs = digest([code, kind_err])
            if out:
                op.problems.append("a failed request printed a result")
            return
        report = json.loads(out) if kind != "verify" else [json.loads(ln) for ln in out.splitlines()]
        check = getattr(self, f"_check_{kind}")
        op.obs = digest([code, check(op, argv, report)])

    def _pair(self, argv, first):
        (r1, n1), (r2, n2) = self.files[argv[first]], self.files[argv[first + 1]]
        hx, hz, n = oracle.hgp_rows(r1, n1, r2, n2)
        return (r1, n1), (r2, n2), hx, hz, n

    def _check_info(self, op, argv, rep):
        rows, n = self.files[argv[1]]
        k, d = n - oracle.rank(rows), oracle.distance(rows, n)
        w_q = max(sum((r >> j) & 1 for r in rows) for j in range(n))
        want = {"n": n, "r": len(rows), "k": k, "d": d, "w_c": max(r.bit_count() for r in rows), "w_q": w_q}
        if rep != want:
            op.problems.append(f"info {rep} vs {want}")
        return rep

    def _check_hgp(self, op, argv, rep):
        (r1, n1), (r2, n2), hx, hz, n = self._pair(argv, 1)
        k = n - oracle.rank(hx) - oracle.rank(hz)
        dists = [oracle.distance(r, c) for r, c in ((r1, n1), (r2, n2),
                 (oracle.transpose(r1, n1), len(r1)), (oracle.transpose(r2, n2), len(r2)))]
        dists = [d for d in dists if d is not None]
        w_c, w_q = _weights(hx, hz, n)
        want = {"n": n, "k": k, "d": min(dists) if k else None, "w_c": w_c, "w_q": w_q, "css": True}
        params = rep["params"]
        if params != want:
            op.problems.append(f"hgp params {params} vs {want}")
        for key, rows in (("hx", hx), ("hz", hz)):
            if read_dense(Path(rep["files"][key]).read_text()) != (rows, n):
                op.problems.append(f"written {key} differs from the product's checks")
        return params

    def _check_logicals(self, op, argv, rep):
        _, _, hx, hz, n = self._pair(argv, 1)
        k = n - oracle.rank(hx) - oracle.rank(hz)
        sectors = {"z": 1, "x": 1, "both": 2}[argv[-1]]
        if rep["count"] != k * sectors or len(rep["operators"]) != rep["count"]:
            op.problems.append(f"{rep['count']} operators, expected {k * sectors}")
        for o in rep["operators"]:
            bits = sum(1 << q for q in o["support"])
            check, stab = (hx, hz) if o["type"] == "Z" else (hz, hx)
            if oracle.energy(check, bits) or not oracle.reduce(oracle.echelon(stab), bits):
                op.problems.append(f"{o['type']} operator is not a nontrivial logical")
            if o["weight"] != len(o["support"]):
                op.problems.append("operator weight differs from its support size")
        return rep

    def _witness(self, op, rep, energy_of):
        w = rep["witness"]
        states, s = [0], 0
        for st in w["path"][1:]:
            s ^= 1 << st["flipped_qubit"]
            states.append(s)
        energies = [st["energy"] for st in w["path"]]
        op.problems.extend(oracle.path_errors(states, energies, rep["value"], energy_of))
        if sorted(w["endpoint_support"]) != [q for q in range(s.bit_length()) if (s >> q) & 1]:
            op.problems.append("endpoint support differs from the walk's end")
        if w["max_energy"] != rep["value"]:
            op.problems.append("witness peak differs from the value")
        return s

    def _check_classical(self, op, argv, rep):
        rows, n = self.files[argv[2]]
        end = self._witness(op, rep, lambda b: oracle.energy(rows, b))
        if not end or oracle.energy(rows, end):
            op.problems.append("classical witness does not end at a nonzero codeword")
        want = oracle.classical_barrier(rows, n)
        if rep["value"] != want:
            op.problems.append(f"classical barrier {rep['value']} vs oracle {want}")
        return rep["value"]

    def _check_quantum(self, op, argv, rep):
        _, _, hx, hz, n = self._pair(argv, 2)
        kinds = {st["pauli_change"] for st in rep["witness"]["path"][1:]}
        check, stab = (hx, hz) if kinds == {"Z"} else (hz, hx)
        if argv[-1] != "both" and kinds != {argv[-1].upper()}:
            op.problems.append(f"witness uses {kinds} in sector {argv[-1]}")
        end = self._witness(op, rep, lambda b: oracle.energy(check, b))
        if oracle.energy(check, end) or not oracle.reduce(oracle.echelon(stab), end):
            op.problems.append("quantum witness does not end at a nontrivial logical")
        if n <= 10:
            values = []
            for s, (c, st) in (("z", (hx, hz)), ("x", (hz, hx))):
                if argv[-1] in (s, "both"):
                    best = oracle.minimax_all(c, n)
                    values += [best[v] for v in oracle.nontrivial_logicals(c, st, n)]
            if rep["value"] != min(values):
                op.problems.append(f"quantum barrier {rep['value']} vs oracle {min(values)}")
        return rep["value"]

    def _check_canonical(self, op, argv, rep):
        (r1, n1), (r2, n2), _, _, _ = self._pair(argv, 2)
        r1t, r2t = oracle.transpose(r1, n1), oracle.transpose(r2, n2)
        k1, k2 = n1 - oracle.rank(r1), n2 - oracle.rank(r2)
        k1t, k2t = len(r1) - oracle.rank(r1), len(r2) - oracle.rank(r2)
        inf = float("inf")

        def barrier_or_inf(rows, n):
            b = oracle.classical_barrier(rows, n)
            return inf if b is None else b

        # the product-barrier theorem: canonical Z costs min(D(H1), D(H2^T)),
        # canonical X min(D(H2), D(H1^T)), over the blocks that carry operators
        want = {}
        if argv[-1] in ("z", "both"):
            want["z"] = min(barrier_or_inf(r1, n1) if k1 * k2 else inf,
                            barrier_or_inf(r2t, len(r2)) if k1t * k2t else inf)
        if argv[-1] in ("x", "both"):
            want["x"] = min(barrier_or_inf(r2, n2) if k1 * k2 else inf,
                            barrier_or_inf(r1t, len(r1)) if k1t * k2t else inf)
        got = {s: rep[s] for s in want}
        if got != want or rep["value"] != min(want.values()):
            op.problems.append(f"canonical {rep} vs theorem {want}")
        return {s: rep[s] for s in ("z", "x", "value") if s in rep}

    def _check_verify(self, op, argv, lines):
        reports, summary = lines[:-1], lines[-1]["summary"]
        if summary["fails"] or any(r["status"] != "pass" for r in reports):
            op.problems.append(f"claim {argv[1]} did not pass: {summary}")
        return [{k: r[k] for k in ("status", "checked", "details")} for r in reports]

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Claims, SectorTables, CliBatch)}
