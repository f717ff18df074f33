"""Benchmark runner for hgpbarrier.

    python3 perfbench/run.py --workload claims --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --list-metrics

Runs workload passes in fresh child processes, one after another, until the
next pass would end after ``--seconds``; there is always at least one. Before
them, five set-up-only children measure set-up time. Times are reported in
normalized seconds, which factor out the host's drifting speed by means of a
probe each child runs every 20 ms (``hostspeed.py``). With ``--trace 1`` one
traced pass follows the untraced ones, and the run reports the per-layer
metrics instead. Every result is checked: by independent recomputation in the
children, and against the reference values in ``reference/`` recorded for
this seed (or, for inputs that do not depend on the seed, for any seed).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment. A full record, with every pass and the trace spans,
is written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference"
SETUP_PROBES = 5
RUN_LIMIT_S = 170  # every run must end within 180 s
# a fixed string-hash seed, so that passes do not differ in dict and set layout
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def environment(seed: int) -> dict:
    def cache(level):
        path = Path(f"/sys/devices/system/cpu/cpu0/cache/index{level}/size")
        try:
            return path.read_text().strip()
        except OSError:
            return None

    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "hgpbarrier").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l2": cache(2),
        "l3": cache(3),
        "seed": seed,
    }


def spawn(args, workdir: Path, out: Path, deadline: float, *, trace=0, setup_only=0) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--src", str(SRC), "--workdir", str(workdir),
           "--out", str(out), "--tiny", str(int(args.tiny)), "--trace", str(trace),
           "--setup-only", str(setup_only)]
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=CHILD_ENV,
                              timeout=max(deadline - t_spawn, 1.0))
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"a {args.workload} pass did not finish in time") from e
    if proc.returncode != 0:
        raise BenchError(f"a {args.workload} pass failed:\n{proc.stderr.strip()}")
    doc = json.loads(out.read_text())
    out.unlink()
    doc["t_spawn"] = t_spawn
    doc["t_exit"] = time.perf_counter()
    return doc


def load_reference(args) -> dict:
    path = REFERENCE / f"{args.workload}{'-tiny' if args.tiny else ''}.json"
    if path.is_file():
        return json.loads(path.read_text())
    return {"common": {}, "seeds": {}}


def compare(ops: list, reference: dict, seed: int) -> list:
    """Problems per op: its own checks plus disagreement with the reference."""
    seeded_ref = reference["seeds"].get(str(seed))
    out = []
    for op in ops:
        problems = list(op["problems"])
        table = seeded_ref if op["seeded"] else reference["common"]
        if table is not None and not problems:
            if op["key"] not in table:
                problems.append("no reference value")
            elif table[op["key"]] != op["obs"]:
                problems.append(f"differs from the reference: {op['obs']!r} vs {table[op['key']]!r}")
        out.append(problems)
    return out


def record(args, doc: dict, reference: dict) -> None:
    seeded = {}
    for op in doc["ops"]:
        if op["problems"]:
            raise BenchError(f"not recording a failing op {op['key']}: {op['problems']}")
        if op["seeded"]:
            seeded[op["key"]] = op["obs"]
        elif reference["common"].setdefault(op["key"], op["obs"]) != op["obs"]:
            raise BenchError(f"{op['key']} differs from the value recorded for another seed")
    reference["seeds"][str(args.seed)] = seeded
    reference["seeds"] = dict(sorted(reference["seeds"].items(), key=lambda kv: int(kv[0])))
    REFERENCE.mkdir(exist_ok=True)
    path = REFERENCE / f"{args.workload}{'-tiny' if args.tiny else ''}.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def end_to_end(passes: list, setups: list, kind: str = "norm") -> dict:
    """Medians over passes; ``kind`` "norm" gives normalized seconds and "raw"
    wall seconds, both without the host-speed probes' own time."""

    def med(values):
        return statistics.median(values)

    def p99(values):
        return statistics.quantiles(values, n=100, method="inclusive")[98] if len(values) > 1 else values[0]

    def timer(doc):
        return getattr(hostspeed.Speed(doc["probes"]), kind)

    lat, busy, wall = [], [], []
    for d in passes:
        t = timer(d)
        per = {}
        for op in d["ops"]:
            per[op["request"]] = per.get(op["request"], 0.0) + t(op["start"], op["end"])
        lat.append(list(per.values()))
        busy.append(t(d["t_start"], d["t_end"]))
        wall.append(t(d["t_spawn"], d["t_end"]))
    return {
        "wall_s": (med(wall), "s"),
        "setup_s": (med([timer(d)(d["t_spawn"], d["t_ready"]) for d in setups + passes]), "s"),
        "peak_rss_mb": (med([d["rss_kb"] / 1024 for d in passes]), "MB"),
        "entries_per_s": (med([d["entries"] / b for d, b in zip(passes, busy)]), "1/s"),
        "req_p50_ms": (med([med(x) * 1e3 for x in lat]), "ms"),
        "req_p99_ms": (med([p99(x) * 1e3 for x in lat]), "ms"),
        "req_per_s": (med([len(x) / b for x, b in zip(lat, busy)]), "1/s"),
    }


def list_metrics() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        print(f"workload {w['name']}: {w['why']}")
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            bound = f", bound {m['bound']}" if "bound" in m else ""
            print(f"{kind} {m['name']} [{m['unit']}] {m['better']} is better{bound}")
    return 0


def run(args) -> dict:
    if not (SRC / "hgpbarrier" / "__init__.py").is_file():
        raise BenchError(f"no hgpbarrier sources under {SRC}; run from a checkout of the repository")
    t0 = time.perf_counter()
    hard_deadline = t0 + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}{'-tiny' if args.tiny else ''}"
    workdir = OUT / f"work-{os.getpid()}"
    out = OUT / f"child-{os.getpid()}.json"
    env = environment(args.seed)
    reference = load_reference(args)
    try:
        setups = [spawn(args, workdir, out, hard_deadline, setup_only=1) for _ in range(SETUP_PROBES)]
        passes, traced = [], None
        deadline = t0 + args.seconds
        while True:
            passes.append(spawn(args, workdir, out, hard_deadline))
            typical = statistics.median(d["t_exit"] - d["t_spawn"] for d in passes)
            if time.perf_counter() + typical > deadline:
                break
        if args.trace:
            traced = spawn(args, workdir, out, hard_deadline, trace=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        out.unlink(missing_ok=True)

    if args.record:
        record(args, passes[0], reference)
    attempted = failed = 0
    for d in passes + ([traced] if traced else []):
        for op, problems in zip(d["ops"], compare(d["ops"], reference, args.seed)):
            attempted += 1
            if problems:
                failed += 1
                print(f"FAILED {op['key']}: {'; '.join(problems)}", file=sys.stderr)

    if traced:
        layers = dict(traced["layers"])
        untraced = statistics.median(hostspeed.Speed(d["probes"]).raw(d["t_spawn"], d["t_end"]) for d in passes)
        layers["trace.overhead_s"] = (traced["t_end"] - traced["t_spawn"] - untraced, "s")
        metrics = layers
        spans_path = OUT / f"spans-{tag}.jsonl"
        with spans_path.open("w") as f:
            for span in traced["spans"]:
                f.write(json.dumps(span) + "\n")
        if traced["missing"]:
            print(f"not traced (absent from the program): {', '.join(traced['missing'])}", file=sys.stderr)
    else:
        metrics = end_to_end(passes, setups)
    raw = {k: v for k, (v, _) in end_to_end(passes, setups, "raw").items()}

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    full = {
        "env": env,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "fail_ratio": failed / attempted,
        "reference_seeds": sorted(reference["seeds"], key=int),
        "setup_samples_s": [hostspeed.Speed(d["probes"]).raw(d["t_spawn"], d["t_ready"]) for d in setups],
        "raw": raw,
        "passes": [{k: d[k] for k in ("t_spawn", "t_ready", "t_start", "t_end", "t_exit", "rss_kb", "entries")}
                   | {"ops": len(d["ops"])} for d in passes],
        "result": result,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps({"env": env, "fail_ratio": full["fail_ratio"], "passes": len(passes), "raw": raw}))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("claims", "sector-tables", "cli-batch"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the smoke tests")
    ap.add_argument("--record", action="store_true", help="store this seed's values as the reference")
    ap.add_argument("--list-metrics", action="store_true", help="print every metric with its unit")
    args = ap.parse_args(argv)
    if args.list_metrics:
        return list_metrics()
    if args.workload is None:
        ap.error("--workload is required")
    try:
        result = run(args)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
