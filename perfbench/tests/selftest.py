#!/usr/bin/env python3
"""perfbench self-test: every workload once at tiny size, untraced and traced.

Run from the root of a pagesim checkout:

    python3 perfbench/tests/selftest.py

It asserts that every metric BENCHMARK.json names is printed with its
unit, that the traced run covers at least 95% of the traced wall time,
and that the traced and untraced digests are identical.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path.cwd()
RUN = Path(__file__).resolve().parent.parent / "run.py"
MIN_COVERAGE = 0.95


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited with "
                             f"{out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    digest = re.search(r"^digest: ([0-9a-f]{16})", out.stdout, re.M)
    return lines, json.loads(lines[-1]), digest and digest.group(1)


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    def check_metrics(self, lines, result, specs):
        self.assertEqual(set(result["metrics"]), {m["name"] for m in specs})
        for m in specs:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertRegex(
                "\n".join(lines[:-1]),
                rf"(?m)^{re.escape(m['name'])} = \S+ {re.escape(m['unit'])}$")

    def test_workloads(self):
        for w in self.bench["workloads"]:
            name = w["name"]
            with self.subTest(workload=name):
                lines0, plain, digest0 = run(name, 0)
                self.assertTrue(plain["correct"], plain)
                self.assertEqual(plain["failed"], 0)
                self.assertGreaterEqual(plain["attempted"], 1)
                self.check_metrics(lines0, plain, self.bench["end_to_end"])

                lines1, traced, digest1 = run(name, 1)
                self.assertTrue(traced["correct"], traced)
                self.check_metrics(lines1, traced, self.bench["per_layer"])
                self.assertGreaterEqual(
                    traced["metrics"]["trace.coverage"]["value"],
                    MIN_COVERAGE)
                self.assertIsNotNone(digest0)
                self.assertEqual(digest0, digest1)
                self.assertRegex("\n".join(lines1),
                                 r"traced: \d+ trials, 0 differ")


if __name__ == "__main__":
    unittest.main()
