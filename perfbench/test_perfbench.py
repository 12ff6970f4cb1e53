#!/usr/bin/env python3
"""Tests of the benchmark itself.

Every workload runs once at a tiny size, untraced and traced, and must
report every metric that BENCHMARK.json and metrics.json name; a copy of
the benchmark without the dyntrace sources must fail without a result.

    python3 perfbench/test_perfbench.py      (from the repository root)
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def load(path):
    with open(path) as f:
        return json.load(f)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bench = load(os.path.join(ROOT, "BENCHMARK.json"))
        cls.meta = load(os.path.join(HERE, "metrics.json"))
        cls.workloads = [w["name"] for w in cls.bench["workloads"]]

    def run_bench(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", workload, "--seed", "7", "--seconds", "0",
             "--trace", str(trace), "--size", "tiny"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr[-3000:])
        lines = proc.stdout.strip().splitlines()
        return lines[:-1], json.loads(lines[-1])

    def test_every_workload_emits_every_metric(self):
        for workload in self.workloads:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    report, result = self.run_bench(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    expected = {m["name"]: m["unit"] for m in self.bench[kind]}
                    self.assertEqual(set(result["metrics"]), set(expected))
                    for name, metric in result["metrics"].items():
                        self.assertEqual(metric["unit"], expected[name])
                        if kind == "end_to_end":
                            self.assertGreater(metric["value"], 0, name)
                    # The readable report carries the workload's own
                    # end-to-end figures and the failure fraction.
                    text = "\n".join(report)
                    for name, info in self.meta["report_only"].items():
                        if name != "about" and info["on"] in ("all", workload):
                            self.assertIn(name, text)
                    if trace == 1:
                        self.assertIn("spans:", text)

    def test_metric_map_matches_benchmark(self):
        self.assertEqual([m["name"] for m in self.meta["per_layer"]],
                         [m["name"] for m in self.bench["per_layer"]])
        self.assertEqual(set(self.meta["end_to_end"]),
                         {m["name"] for m in self.bench["end_to_end"]})
        self.assertEqual(set(self.meta["workloads"]), set(self.workloads))
        pins = load(os.path.join(HERE, "pins.json"))
        self.assertEqual(set(pins["workloads"]), set(self.workloads))

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "test-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", self.workloads[0],
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
