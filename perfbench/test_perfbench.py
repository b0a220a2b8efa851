#!/usr/bin/env python3
"""The benchmark's own tests. Run from anywhere: python3 perfbench/test_perfbench.py

Builds the binary through run.py, then checks:
  * the percentile and sample-count rule (--selftest: no p99 below 1000 samples);
  * generator determinism: the same seed gives byte-identical inputs for every
    workload, a different seed gives different ones;
  * every metric a run prints is declared in BENCHMARK.json with its unit, and
    every declared metric is printed (end-to-end and per-layer);
  * the library's deterministic counters repeat exactly across traced runs of
    the same seed.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import run  # noqa: E402

BINARY = os.path.join(run.BUILD, "perfbench")
SHORT = ["--seconds", "2"]


def perfbench(*args):
    trace_file = os.path.join(run.BUILD, "test-trace-%d.jsonl" % os.getpid())
    done = subprocess.run([BINARY, "--trace-file", trace_file] + list(args),
                          capture_output=True, text=True, cwd=run.ROOT)
    return done.returncode, done.stdout


def result(*args):
    code, out = perfbench(*args)
    return code, json.loads(out.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench build failed")
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.declared = json.load(f)
        cls.traced = [result("--workload", "packet-des", "--seed", "3", "--trace", "1", *SHORT)
                      for _ in range(2)]

    def test_percentile_rule(self):
        code, out = perfbench("--selftest")
        self.assertEqual(code, 0, out)
        self.assertIn("selftest ok", out)

    def test_inputs_repeat_per_seed_and_differ_across_seeds(self):
        _, a = perfbench("--inputs", "--seed", "7")
        _, b = perfbench("--inputs", "--seed", "7")
        _, c = perfbench("--inputs", "--seed", "8")
        self.assertEqual(a, b)
        lines_a, lines_c = a.splitlines(), c.splitlines()
        self.assertEqual(len(lines_a), 4)
        for la, lc in zip(lines_a, lines_c):
            self.assertNotEqual(la, lc, "seed 7 and 8 give the same inputs: " + la)

    def test_end_to_end_metrics_match_declaration(self):
        code, r = result("--workload", "convert-apl", "--seed", "2", "--trace", "0", *SHORT)
        self.assertEqual(code, 0)
        self.assertTrue(r["correct"])
        self.assertGreaterEqual(r["attempted"], 1)
        declared = {m["name"]: m["unit"] for m in self.declared["end_to_end"]}
        printed = {k: v["unit"] for k, v in r["metrics"].items()}
        self.assertEqual(printed, declared)
        for name, metric in r["metrics"].items():
            self.assertNotEqual(metric["value"], 0, name)

    def test_per_layer_metrics_match_declaration(self):
        code, r = self.traced[0]
        self.assertEqual(code, 0)
        self.assertTrue(r["correct"])
        declared = {m["name"]: m["unit"] for m in self.declared["per_layer"]}
        printed = {k: v["unit"] for k, v in r["metrics"].items()}
        self.assertEqual(printed, declared)

    def test_deterministic_counters_repeat(self):
        (_, a), (_, b) = self.traced
        counts = [m["name"] for m in self.declared["per_layer"] if m["unit"] == "count"]
        self.assertGreater(len(counts), 5)
        for name in counts:
            self.assertEqual(a["metrics"][name]["value"], b["metrics"][name]["value"], name)

    def test_unknown_workload_is_refused(self):
        code, out = perfbench("--workload", "nope", "--seed", "1", "--trace", "0", *SHORT)
        self.assertEqual(code, 2)
        self.assertEqual(out, "")


if __name__ == "__main__":
    unittest.main()
