#!/usr/bin/env python3
"""Tests of the benchmark itself. They drive `run.py` end to end in its
tiny-length mode (`--seconds 1`: one iteration, then one traced
iteration), so they take about two minutes:

    python3 perfbench/test_run.py
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, trace, *extra, seconds="1"):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "11",
         "--seconds", seconds, "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


class EveryMetric(unittest.TestCase):
    def check(self, workload):
        for trace, wanted in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            report, result = bench(workload, trace)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"], report["failures"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
            for m in wanted:
                got = result["metrics"][m["name"]]
                self.assertEqual(got["unit"], m["unit"])
                self.assertTrue(math.isfinite(got["value"]), m["name"])
            values = {k: v["value"] for k, v in result["metrics"].items()}
            if trace == 0:
                for name in values:
                    self.assertGreater(values[name], 0, name)
            elif workload.startswith("run_"):
                self.assertTrue(report["traced_equals_untraced"])
                for name in ("core.warmup_ms", "core.testing_self_ms", "sim.window_ms",
                             "ml.fit_ms", "ml.predict_ms", "workloads.events", "telemetry.records"):
                    self.assertGreater(values[name], 0, name)
                # The layer partition covers the traced wall time up to the
                # reported span coverage.
                layers = sum(values[f"{l}.layer_ms"] for l in ("core", "sim", "ml", "persist"))
                self.assertAlmostEqual(layers, values["core.span_coverage"] * values["telemetry.traced_wall_ms"],
                                       delta=0.01)
                self.assertEqual(values["persist.appends"] > 0, workload == "run_durable")
            else:
                self.assertGreater(values["experiments.figure2_ms"], 0)
                self.assertEqual(values["experiments.hit_rate"] == 1.0, workload == "pipeline_warm")

    def test_run_apps(self):
        self.check("run_apps")

    def test_run_durable(self):
        self.check("run_durable")

    def test_pipeline_cold(self):
        self.check("pipeline_cold")

    def test_pipeline_warm(self):
        self.check("pipeline_warm")


class ChecksCatchFailures(unittest.TestCase):
    def test_corrupted_warm_cache_is_a_failure(self):
        report, result = bench("pipeline_warm", 0, "--inject", "corrupt-cache")
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLess(result["metrics"]["ok_frac"]["value"], 1.0)
        self.assertTrue(any("corrupt" in r for r in report["failures"]), report["failures"])

    def test_repeat_mismatch_is_a_failure(self):
        report, result = bench("run_apps", 0, "--inject", "repeat-mismatch", seconds="5")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertLess(result["metrics"]["ok_frac"]["value"], 1.0)
        self.assertTrue(any("differs" in r for r in report["failures"]), report["failures"])

    def test_source_tree_is_required(self):
        # Run a copy of run.py from a directory holding only BENCHMARK.json
        # and the benchmark: it must refuse without printing a result.
        scratch = os.path.join(ROOT, ".bench_tmp")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__", "target"))
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "run_apps", "--seed", "1",
                                   "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                                  timeout=60)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
