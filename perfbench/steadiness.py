"""Measure the benchmark's own run-to-run spread and write steadiness.json.

    python3 perfbench/steadiness.py --seeds 0-9 [--workloads claims,cli-batch]

Runs every workload once per seed, one run after another, exactly as the
benchmark command is run (``--seconds`` from BENCHMARK.json, tracing off).
For each end-to-end metric it records the median and the spread, taken as
the distance between the first and third quartile over the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound, for the
reported (normalized) values and for the raw wall-clock values. Every run's
values are kept as well.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--out", default=str(HERE / "steadiness.json"))
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out_path = Path(args.out)
    report = json.loads(out_path.read_text()) if out_path.is_file() else {}
    report["run_seconds"] = spec["run_seconds"]
    report.setdefault("workloads", {})
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            t0 = time.time()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=200)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(proc.stderr, file=sys.stderr)
                return 1
            env, result = json.loads(lines[-2]), json.loads(lines[-1])
            runs.append({"seed": seed, "elapsed_s": round(time.time() - t0, 2), "passes": env["passes"],
                         "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                         "raw": env["raw"]})
            print(f"{workload} seed {seed}: {runs[-1]['elapsed_s']} s, correct {result['correct']}",
                  file=sys.stderr)
        spread = {"normalized": {}, "raw": {}}
        for name, bound in bounds.items():
            for kind, key in (("normalized", "metrics"), ("raw", "raw")):
                values = [r[key][name] for r in runs]
                q1, _, q3 = statistics.quantiles(values, n=4)
                med = statistics.median(values)
                spread[kind][name] = {"median": med, "spread": (q3 - q1) / med, "bound": bound,
                                      "min": min(values), "max": max(values)}
        report["workloads"][workload] = {"env": env["env"], "spread": spread, "runs": runs}
        out_path.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
