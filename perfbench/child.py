"""One workload pass in a fresh process; started by run.py, one at a time.

The pass imports hgpbarrier from the checkout's ``src/`` (and refuses any
other copy), builds the workload's inputs, makes the timed calls, checks the
results after the clock stops, and writes one JSON document to ``--out``.
Times are ``time.perf_counter`` readings, which on Linux share one monotonic
clock across processes, so the parent can subtract its spawn time.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def import_program(src: Path):
    """Import hgpbarrier from ``src`` and nowhere else."""
    sys.path.insert(0, str(src))
    import hgpbarrier

    pkg = Path(hgpbarrier.__file__).resolve().parent
    if pkg != (src / "hgpbarrier").resolve():
        raise SystemExit(f"hgpbarrier imported from {pkg}, not from {src}")
    for sub in ("barrier", "cli", "codes", "deform", "f2core", "hgp", "logicals", "verify"):
        __import__(f"hgpbarrier.{sub}")
    return hgpbarrier


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--tiny", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", type=int, default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(HERE))
    import hostspeed

    # the traced pass goes unprobed, so probes never count as a layer's time
    sampler = None if args.trace else hostspeed.Sampler()
    if sampler is not None:
        sampler.start()
    hb = import_program(Path(args.src))
    import workloads

    wl = workloads.WORKLOADS[args.workload](hb, args.seed, bool(args.tiny), Path(args.workdir))
    t_ready = time.perf_counter()
    doc = {"t_ready": t_ready}
    if args.setup_only:
        if sampler is not None:
            doc["probes"] = sampler.stop()
        wl.close()
        Path(args.out).write_text(json.dumps(doc))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(hb)
    t_start = time.perf_counter()
    wl.run()
    t_end = time.perf_counter()
    if sampler is not None:
        doc["probes"] = sampler.stop()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        # taken before the checks, which call the program too
        doc["layers"] = tracer.metrics({"cli.out_bytes": (getattr(wl, "out_bytes", 0), "B")})
        doc["missing"] = tracer.missing
        doc["spans"] = list(tracer.spans)

    wl.check()
    wl.close()
    doc.update(
        t_start=t_start,
        t_end=t_end,
        rss_kb=rss_kb,
        entries=wl.entries,
        ops=[
            {"key": op.key, "request": op.request, "start": op.start, "end": op.end,
             "seeded": op.seeded, "obs": op.obs, "problems": op.problems}
            for op in wl.ops
        ],
    )
    Path(args.out).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
