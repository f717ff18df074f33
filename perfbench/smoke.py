"""Smoke tests of the benchmark itself, on tiny inputs (about a minute).

    python3 perfbench/smoke.py

They check that every metric BENCHMARK.json names is emitted with its unit,
that the tiny runs pass every check against the recorded references, that a
wrong reference value is counted as a failure, that normalized seconds are
computed as described, and that a directory without the program's sources is
refused without a result.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
import unittest
from argparse import Namespace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


class TinyRuns(unittest.TestCase):
    def check_metrics(self, result, kind):
        want = {m["name"]: m["unit"] for m in SPEC[kind]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_metric_and_no_failures(self):
        for workload in WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                                 "--trace", str(trace), "--tiny")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(result["failed"], 0, proc.stderr)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.check_metrics(result, kind)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_wrong_reference_counts_as_failure(self):
        good = run.load_reference(Namespace(workload="claims", tiny=True))
        bad = copy.deepcopy(good)
        key = sorted(bad["common"])[0]
        bad["common"][key] = {"status": "pass", "checked": -1, "details": {}}
        args = Namespace(workload="claims", seed=0, seconds=1, trace=0, tiny=True, record=False)
        original = run.load_reference
        run.load_reference = lambda a: bad
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                result = run.run(args)
        finally:
            run.load_reference = original
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_normalized_seconds(self):
        ref = hostspeed.REF_PROBE_S
        # probes twice the reference time: work inside the window counts half
        slow = hostspeed.Speed([(t * 0.1, 2 * ref) for t in range(100)])
        self.assertAlmostEqual(slow.raw(1.0, 2.0), 1.0 - 10 * 2 * ref)
        self.assertAlmostEqual(slow.norm(1.0, 2.0), (1.0 - 10 * 2 * ref) / 2)
        # a window with no probe inside borrows the nearest ones
        mixed = hostspeed.Speed([(t * 0.1, ref if t < 50 else 4 * ref) for t in range(100)])
        self.assertAlmostEqual(mixed.norm(0.01, 0.02), 0.01)
        self.assertAlmostEqual(mixed.norm(9.91, 9.92), 0.0025)

    def test_references_cover_two_seeds(self):
        for workload in WORKLOADS:
            ref = run.load_reference(Namespace(workload=workload, tiny=False))
            self.assertGreaterEqual(len(ref["seeds"]), 2, workload)

    def test_refuses_a_directory_without_sources(self):
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0",
                         cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
