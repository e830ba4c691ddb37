#!/usr/bin/env python3
"""Tests of the ocps benchmark command itself.

Run from the root of the repository (they build the benchmark first, which
takes about a minute the first time):

    python3 -m unittest discover -s ocpsbench/tests -v

Each workload runs in short mode, untraced and traced, and must print every
metric BENCHMARK.json names, with its unit. A deliberately corrupted answer
must fail the command, and the command must refuse to run without the ocps
sources next to it.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join("ocpsbench", "run.py")
SHORT_SECONDS = "2"


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


class BenchmarkCommandTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def check_metrics(self, workload, trace, declared):
        proc, lines = run_bench("--workload", workload, "--seed", "3",
                                "--seconds", SHORT_SECONDS, "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        table = "\n".join(lines[:-1])
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            if trace == 0:
                self.assertGreater(got["value"], 0, m["name"])
                self.assertRegex(table, r"%s\s+\S+\s+%s" % (m["name"].replace(".", r"\."), m["unit"]))

    def test_short_runs_print_every_metric_with_its_unit(self):
        for w in self.bench["workloads"]:
            for trace, declared in ((0, self.bench["end_to_end"]), (1, self.bench["per_layer"])):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check_metrics(w["name"], trace, declared)

    def test_corrupted_answers_fail_the_command(self):
        for workload, fault in (("serve_batched", "alloc"), ("table1_cold", "optimal")):
            with self.subTest(workload=workload):
                proc, lines = run_bench("--workload", workload, "--seconds", "1", "--fault", fault)
                self.assertEqual(proc.returncode, 1, proc.stderr[-3000:])
                self.assertFalse(json.loads(lines[-1])["correct"])
                self.assertIn("CHECK FAILED", proc.stdout)

    def test_refuses_to_run_without_the_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(os.path.join(ROOT, "ocpsbench"), os.path.join(bare, "ocpsbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc, lines = run_bench("--workload", "table1_cold", "--seconds", "1", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(lines, [])
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
