"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public functions of hgpbarrier with timing
wrappers, in the defining module and in every module that imported the name
(``verify.sector_table``, ``cli.sector_table``, ...). A wrapper records a span
(name, start, end, parent) or, for functions called 10^4 or more times per
run, only adds to a count and a total. Self time is a call's duration minus
the time of the wrapped calls made inside it. Names the program no longer
has are skipped and listed in ``missing``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

clock = time.perf_counter

# (module, attribute, layer group, keep spans); an attribute "Class.method"
# wraps a method. Groups are per-layer metric prefixes.
TARGETS = (
    ("codes", "parse_dense", "codes.parse", True),
    ("codes", "parse_alist", "codes.parse", True),
    ("codes", "parse_auto", "codes.parse", True),
    ("codes", "ClassicalCode.parameters", "codes.params", True),
    ("hgp", "build_hgp", "hgp.build", True),
    ("f2core", "rref", "f2core.rref", False),
    ("f2core", "mat_mul", "f2core.matmul", False),
    ("f2core", "mat_vec", "f2core.matmul", False),
    ("f2core", "mat_add", "f2core.matmul", False),
    ("logicals", "canonical_z_basis", "logicals.basis", True),
    ("logicals", "canonical_x_basis", "logicals.basis", True),
    ("logicals", "enumerate_z_logicals", "logicals.enum", False),
    ("logicals", "enumerate_x_logicals", "logicals.enum", False),
    ("barrier", "sector_table", "barrier.table", True),
    ("barrier", "classical_table", "barrier.table", True),
    ("barrier", "quantum_barrier", "barrier.search", True),
    ("barrier", "classical_barrier", "barrier.search", True),
    ("barrier", "bottleneck_search", "barrier.search", True),
    ("barrier", "pauli_barrier_general", "barrier.pauli", True),
    ("barrier", "MinimaxTable.path", "barrier.witness", True),
    ("barrier", "sweep_path_for_canonical", "barrier.witness", True),
    ("barrier", "stabilizer_path", "barrier.witness", True),
    ("deform", "weight_reduction_gap", "deform.gap", False),
    ("verify", "check_lemma1", "verify.lemma1", True),
    ("verify", "check_theorem1", "verify.thm1", True),
    ("verify", "check_lemma2", "verify.lemma2", True),
    ("verify", "check_lemma3", "verify.lemma3", True),
    ("verify", "check_lemma4", "verify.lemma4", True),
    ("verify", "check_proposition1", "verify.prop1", True),
    ("verify", "check_main_equality", "verify.main", True),
    ("verify", "check_css_restriction", "verify.css-restriction", True),
    ("cli", "main", "cli", True),
)

GENERATORS = {"enumerate_z_logicals", "enumerate_x_logicals"}


def _nbytes(obj) -> int:
    try:
        return memoryview(obj).nbytes
    except TypeError:
        return 0


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)  # outermost calls per group
        self.counts = defaultdict(int)  # counters filled by result hooks
        self.depth = defaultdict(int)
        self.stack = [[0.0, -1]]  # per open call: [child seconds, span id for children]
        self.spans = []  # (id, name, start, end, parent id, self seconds)
        self.next_id = 0
        self.missing = []
        self._seen_tables = {}
        self._rref = None
        self._rref_before = None

    # -- result hooks: counts measured where the work happens --------------------

    def _on_table(self, result):
        self.counts["table_requests"] += 1
        if id(result) in self._seen_tables:
            self.counts["table_hits"] += 1
            return
        self._seen_tables[id(result)] = result  # keep alive so ids stay unique
        self.counts["table_states"] += getattr(result, "explored", 0)
        self.counts["table_bytes"] += _nbytes(getattr(result, "best", None))
        self.counts["table_bytes"] += _nbytes(getattr(result, "pred", None))

    def _on_search(self, name, args, kwargs, result):
        if name == "quantum_barrier":
            n = args[0].n_qubits
        elif name == "classical_barrier":
            n = args[0].n
        else:
            n = args[1] if len(args) > 1 else kwargs["n_dim"]
        self.counts["search_states"] += getattr(result, "explored", 0)
        self.counts["search_space"] += 1 << n

    def _count(self, key, attr):
        def hook(args, kwargs, result):
            self.counts[key] += attr(result)
        return hook

    def _hook(self, name, group):
        if group == "barrier.table":
            return lambda a, k, r: self._on_table(r)
        if group == "barrier.search":
            return lambda a, k, r: self._on_search(name, a, k, r)
        if group == "barrier.pauli":
            return self._count("pauli_states", lambda r: getattr(r, "explored", 0))
        if group == "barrier.witness":
            return self._count("witness_steps", lambda r: max(len(r.states) - 1, 0))
        if group.startswith("verify."):
            return self._count("verify_checked", lambda r: r.checked)
        return None

    # -- wrappers ------------------------------------------------------------------

    def _wrap(self, fn, name, group, keep_span, hook):
        stack, depth, spans = self.stack, self.depth, self.spans
        self_s, calls = self.self_s, self.calls
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = depth[group] == 0
            parent = stack[-1][1]
            if keep_span:
                sid = tracer.next_id
                tracer.next_id += 1
            else:
                sid = parent
            frame = [0.0, sid]
            stack.append(frame)
            depth[group] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                depth[group] -= 1
                stack.pop()
                dur = t1 - t0
                stack[-1][0] += dur
                own = dur - frame[0]
                self_s[group] += own
                if outer:
                    calls[group] += 1
                if keep_span:
                    spans.append((sid, name, t0, t1, parent, own))
            if hook is not None and outer:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, fn, group):
        stack, self_s, calls = self.stack, self.self_s, self.calls

        def step(it):
            frame = [0.0, stack[-1][1]]
            stack.append(frame)
            t0 = clock()
            try:
                return next(it)
            finally:
                dur = clock() - t0
                stack.pop()
                stack[-1][0] += dur
                self_s[group] += dur - frame[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[group] += 1
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                yield item

        return wrapper

    def install(self, hb) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "hgpbarrier" or name.startswith("hgpbarrier.")]
        self._rref = getattr(getattr(hb, "f2core", None), "rref", None)
        if hasattr(self._rref, "cache_info"):
            self._rref_before = self._rref.cache_info()
        for mod_name, attr, group, keep_span in TARGETS:
            mod = getattr(hb, mod_name, None)
            owner_name, _, meth = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = getattr(owner, meth or attr, None) if owner is not None else None
            if orig is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            if attr in GENERATORS:
                wrapper = self._wrap_generator(orig, group)
            else:
                wrapper = self._wrap(orig, f"{mod_name}.{attr}", group, keep_span, self._hook(attr, group))
            if owner_name:
                setattr(owner, meth, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)

    # -- results -------------------------------------------------------------------

    def metrics(self, extra: dict) -> dict:
        """Per-layer metrics by name, as (value, unit)."""
        s, c, n = self.self_s, self.calls, self.counts
        out = {
            "codes.parse_s": (s["codes.parse"], "s"),
            "codes.parse_calls": (c["codes.parse"], "count"),
            "codes.params_s": (s["codes.params"], "s"),
            "hgp.build_s": (s["hgp.build"], "s"),
            "hgp.build_calls": (c["hgp.build"], "count"),
            "f2core.rref_s": (s["f2core.rref"], "s"),
            "f2core.rref_calls": (c["f2core.rref"], "count"),
            "f2core.rref_hit_ratio": (self._rref_hit_ratio(), "ratio"),
            "f2core.matmul_s": (s["f2core.matmul"], "s"),
            "f2core.matmul_calls": (c["f2core.matmul"], "count"),
            "logicals.basis_s": (s["logicals.basis"], "s"),
            "logicals.basis_calls": (c["logicals.basis"], "count"),
            "logicals.enum_s": (s["logicals.enum"], "s"),
            "barrier.table_s": (s["barrier.table"], "s"),
            "barrier.table_calls": (c["barrier.table"], "count"),
            "barrier.table_hit_ratio": (_ratio(n["table_hits"], n["table_requests"]), "ratio"),
            "barrier.table_states": (n["table_states"], "count"),
            "barrier.table_states_per_s": (_ratio(n["table_states"], s["barrier.table"]), "1/s"),
            "barrier.table_bytes": (n["table_bytes"], "B"),
            "barrier.search_s": (s["barrier.search"], "s"),
            "barrier.search_calls": (c["barrier.search"], "count"),
            "barrier.search_states": (n["search_states"], "count"),
            "barrier.search_explored_ratio": (_ratio(n["search_states"], n["search_space"]), "ratio"),
            "barrier.pauli_s": (s["barrier.pauli"], "s"),
            "barrier.pauli_states": (n["pauli_states"], "count"),
            "barrier.witness_s": (s["barrier.witness"], "s"),
            "barrier.witness_steps": (n["witness_steps"], "count"),
            "deform.gap_s": (s["deform.gap"], "s"),
            "deform.gap_calls": (c["deform.gap"], "count"),
        }
        for claim in ("lemma1", "thm1", "lemma2", "lemma3", "lemma4", "prop1", "main", "css-restriction"):
            out[f"verify.{claim}_s"] = (s[f"verify.{claim}"], "s")
        out["verify.checked"] = (n["verify_checked"], "count")
        out["cli.self_s"] = (s["cli"], "s")
        out.update(extra)
        return out

    def _rref_hit_ratio(self) -> float:
        if self._rref_before is None:
            return 0.0
        after = self._rref.cache_info()
        hits = after.hits - self._rref_before.hits
        misses = after.misses - self._rref_before.misses
        return _ratio(hits, hits + misses)


def _ratio(a, b) -> float:
    return a / b if b else 0.0
