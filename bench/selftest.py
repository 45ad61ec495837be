#!/usr/bin/env python3
"""Self-tests of the benchmark.  Usage, from the root of a checkout:

    python3 bench/selftest.py

Runs every workload at its smallest size (--seconds 1, one pass) untraced
once and traced twice, and checks that: each run is correct; the emitted
metric names and units equal those in BENCHMARK.json; the traced and untraced
stdout hashes are equal; and two traced runs give identical exact counts.
It also checks that the benchmark refuses to run, without printing a result,
in a directory that holds only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = run.ROOT, seed: int = 0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchSelfTest(unittest.TestCase):
    def test_spec_lists_every_workload_and_metric(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]}, run.PER_LAYER)

    def test_workloads(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                plain = result_of(bench(workload, 0))
                self.assertTrue(plain["correct"])
                self.assertEqual(plain["failed"], 0)
                self.assertEqual(
                    {k: v["unit"] for k, v in plain["metrics"].items()}, run.END_TO_END
                )

                traced = []
                for _ in range(2):
                    traced.append(result_of(bench(workload, 1)))
                    summary = json.loads((run.WORK / f"trace-{workload}.json").read_text())
                    self.assertEqual(summary["traced_sha256"], summary["untraced_sha256"])
                for res in traced:
                    self.assertTrue(res["correct"])
                    self.assertEqual(
                        {k: v["unit"] for k, v in res["metrics"].items()}, run.PER_LAYER
                    )
                counts = [
                    {k: v["value"] for k, v in res["metrics"].items() if v["unit"] in run.EXACT_UNITS}
                    for res in traced
                ]
                self.assertEqual(counts[0], counts[1])

    def test_refuses_without_sources(self):
        run.WORK.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            bare = Path(tmp)
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
            proc = bench("claims-grid", 0, cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
