#!/usr/bin/env python3
"""The benchmark's own test, at smoke sizes.

    python3 perfbench/test_perfbench.py

Checks that every workload prints every metric BENCHMARK.json names,
with its unit, in both untraced and traced runs, and that the
correctness gate can fail: a tampered digest pin (`paper`, `scale`) and
a wrong hit/miss expectation (`serve`) must each be counted as failed
operations, with a nonzero exit code.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(workload, *extra, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seconds", "0", "--trace", str(trace), "--smoke", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


class Perfbench(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_metrics(self, result, wanted):
        units = {m["name"]: m["unit"] for m in wanted}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, units)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_metric_with_its_unit(self):
        for w in [w["name"] for w in self.spec["workloads"]]:
            for trace, key in [(0, "end_to_end"), (1, "per_layer")]:
                with self.subTest(workload=w, trace=trace):
                    code, result = bench(w, trace=trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    self.check_metrics(result, self.spec[key])
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, f"{w} {name}")

    def test_tampered_pin_is_a_failure(self):
        for w in ["paper", "scale"]:
            with self.subTest(workload=w):
                code, result = bench(w, "--tamper", "pin")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_wrong_hit_miss_expectation_is_a_failure(self):
        code, result = bench("serve", "--tamper", "plan")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
