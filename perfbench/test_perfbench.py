#!/usr/bin/env python3
"""The benchmark's own tests: smoke run of every workload, and determinism.

    python3 perfbench/test_perfbench.py

Builds the benchmark like run.py does, then runs each workload at tiny
windows (--tiny, 1 s) in both modes. Checks that every metric BENCHMARK.json
names is printed with its unit, that all twelve end-to-end metrics appear in
the report for the workloads they apply to, that the correctness gate
passes, and that the traced run's trace digest repeats for one seed and
changes with another.
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# The twelve end-to-end metrics and the workloads each applies to.
ALL = set(run.WORKLOADS)
REPORTED = {
    "setup_s": ALL, "run_s": ALL, "host_ops_per_s": ALL,
    "peak_rss_mib": ALL, "error_pct": ALL, "model_kops": ALL,
    "model_p50_us": ALL, "model_p999_us": ALL, "model_read_p999_us": ALL,
    "model_write_p999_us": {"fio_frag_rw", "kv_ycsb_a"},
    "model_futil_min": {"fio_frag_rw"},
    "model_slo_miss_pct": {"fleet_churn"},
}


def bench(workload, seed, trace):
    proc = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("benchmark build failed")

    def check_result(self, code, result, metrics):
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_untraced_run_reports_every_end_to_end_metric(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                code, lines, result = bench(w, 7, 0)
                self.check_result(code, result, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0)
                if w != "fleet_churn":
                    self.assertEqual(result["failed"], 0)
                report = "\n".join(lines)
                for name, applies in REPORTED.items():
                    match = re.search(rf"^metric {name}\s+= (\S+)", report,
                                      re.M)
                    self.assertIsNotNone(match, name)
                    self.assertEqual(match.group(1) != "n/a", w in applies,
                                     name)

    def test_traced_run_reports_every_per_layer_metric(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                code, lines, result = bench(w, 7, 1)
                self.check_result(code, result, SPEC["per_layer"])
                self.assertTrue(any(l.startswith("trace_digest ")
                                    for l in lines))

    def test_trace_digest_follows_the_seed(self):
        def digest(seed):
            code, lines, _ = bench("fio_frag_rw", seed, 1)
            self.assertEqual(code, 0)
            return next(l.split()[1] for l in lines
                        if l.startswith("trace_digest "))
        first = digest(3)
        self.assertEqual(first, digest(3))
        self.assertNotEqual(first, digest(4))


if __name__ == "__main__":
    unittest.main()
