#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny-size smoke of every workload.

    python3 perfbench/tests/test_bench.py      (from the repository root)

For each workload it makes an untraced and a traced run on small inputs
(--scale tiny) and asserts that each run passes its output check, emits
exactly the metrics BENCHMARK.json names for its run kind, each finite
and with its unit, and that both runs print the same fingerprint.
"""

import json
import math
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
SEED = 20260517


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
         "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise AssertionError("run.py failed (%d):\n%s" % (out.returncode,
                                                           out.stderr[-4000:]))
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


class TinyWorkloads(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_metrics(self, result, kind):
        expected = {m["name"]: m["unit"] for m in self.spec[kind]}
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, m in result["metrics"].items():
            self.assertTrue(math.isfinite(m["value"]), name)
            self.assertEqual(m["unit"], expected[name], name)

    def test_every_workload(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                meta0, res0 = run(w["name"], 0)
                meta1, res1 = run(w["name"], 1)
                for res in (res0, res1):
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                self.check_metrics(res0, "end_to_end")
                self.check_metrics(res1, "per_layer")
                self.assertEqual(meta0["fingerprint"], meta1["fingerprint"])
                self.assertEqual(meta0["engine"], "pool")
                self.assertEqual(meta1["engine"], "threads")
                for meta in (meta0, meta1):
                    for key in ("nproc", "build_type", "seed", "source_digest"):
                        self.assertIn(key, meta)


if __name__ == "__main__":
    unittest.main()
