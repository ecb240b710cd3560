#!/usr/bin/env python3
"""Smoke tests of the repository benchmark at a tiny scale.

    python3 perfbench/test_perfbench.py

Every workload must run and print each metric BENCHMARK.json names, with
its unit (end_to_end untraced, per_layer traced); every output check must
fail its run when its input is tampered with; and a directory holding only
BENCHMARK.json and perfbench/ must make the benchmark exit non-zero without
a result line. The first test builds bih_perfbench, which takes a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--h", "0.001", "--m", "0.001"]


def bench(root, workload, trace=0, extra=()):
    cmd = [sys.executable, str(Path(root) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "1", "--trace", str(trace), *TINY, *extra]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)


def result_of(proc):
    """The parsed result line, or None when the run printed none."""
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


class BenchmarkSmokeTest(unittest.TestCase):
    def test_every_workload_prints_every_metric_with_its_unit(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench(ROOT, workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    result = result_of(proc)
                    self.assertIsNotNone(result, proc.stdout[-2000:])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace:
                        self.assertIn("tracing overhead:", proc.stdout)

    def test_every_output_check_fires_on_a_tampered_result(self):
        # The traced replay's check runs only in a traced run.
        for workload, check, trace in (("served_point", "served_rows", 0),
                                       ("served_point", "ack_visible", 0),
                                       ("served_point", "recovery", 0),
                                       ("served_point", "replay_rows", 1),
                                       ("served_point", "round_rows", 0),
                                       ("history_analytics", "engines", 0),
                                       ("history_analytics", "round_rows", 0)):
            with self.subTest(workload=workload, check=check):
                proc = bench(ROOT, workload, trace, extra=("--tamper", check))
                self.assertNotEqual(proc.returncode, 0)
                self.assertIsNone(result_of(proc))
                self.assertIn("CHECK FAILED", proc.stderr)

    def test_fails_without_the_program_sources(self):
        bare = ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "served_point",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, env=env, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertIsNone(result_of(proc))
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    unittest.main()
