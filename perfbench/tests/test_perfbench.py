#!/usr/bin/env python3
"""Smoke-scale tests of the gpudiff benchmark itself.

    python3 perfbench/tests/test_perfbench.py

Runs from the root of a gpudiff source tree (the first run builds the
harness).  Checks that every workload runs in both modes and prints every
metric BENCHMARK.json names with its unit, that the seed drives the
generated inputs, that a corrupted reference answer raises error_rate
above zero, and that the benchmark refuses to run without the source
tree.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
RUN = BENCH / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SMOKE_SECONDS = "0.6"


def run(workload, seed=1, trace=0, extra=(), cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", SMOKE_SECONDS, "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


def printed_lines(done):
    """name -> (value, unit) for every "name value unit" line."""
    lines = {}
    for line in done.stdout.strip().splitlines()[:-1]:
        parts = line.split()
        if len(parts) == 3:
            try:
                lines[parts[0]] = (float(parts[1]), parts[2])
            except ValueError:
                pass
    return lines


class BenchmarkContract(unittest.TestCase):
    def check_mode(self, workload, trace, spec_metrics):
        done = run(workload, trace=trace)
        self.assertEqual(done.returncode, 0, done.stderr)
        result = result_of(done)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        lines = printed_lines(done)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec_metrics})
        for m in spec_metrics:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            self.assertIn(m["name"], lines)
            self.assertEqual(lines[m["name"]][1], m["unit"])
        self.assertEqual(lines["error_rate"], (0.0, "ratio"))
        return result, lines

    def test_every_workload_prints_every_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, lines = self.check_mode(w, 0, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0.0)
                self.check_mode(w, 1, SPEC["per_layer"])

    def test_workload_names_print_where_they_apply(self):
        expect = {"paper": ["programs_per_s"], "paper-mt": ["programs_per_s_mt"],
                  "triage": ["reduce_ms_p50", "reduce_ms_p90"],
                  "serve": ["query_ms_p50", "query_ms_p99"]}
        for w, names in expect.items():
            with self.subTest(workload=w):
                lines = printed_lines(run(w))
                for name in names:
                    self.assertIn(name, lines)
                self.assertIn("latency_samples", lines)

    def test_seed_changes_generated_inputs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                digests = []
                for seed in (1, 1, 2):
                    done = run(w, seed=seed)
                    self.assertEqual(done.returncode, 0, done.stderr)
                    digest = [l for l in done.stdout.splitlines()
                              if l.startswith("inputs_digest ")]
                    self.assertEqual(len(digest), 1, done.stdout)
                    digests.append(digest[0])
                self.assertEqual(digests[0], digests[1])
                self.assertNotEqual(digests[0], digests[2])

    def test_corrupted_reference_raises_error_rate(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                done = run(w, extra=["--corrupt-reference"])
                self.assertEqual(done.returncode, 0, done.stderr)
                result = result_of(done)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertGreater(printed_lines(done)["error_rate"][0], 0.0)

    def test_refuses_without_source_tree(self):
        lone = ROOT / ".bench_build" / "lone-checkout"
        shutil.rmtree(lone, ignore_errors=True)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, lone / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", lone / "BENCHMARK.json")
        try:
            done = run(WORKLOADS[0], cwd=lone, script=lone / "perfbench" / "run.py")
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")
        finally:
            shutil.rmtree(lone, ignore_errors=True)

    def test_spec_matches_run_script(self):
        sys.path.insert(0, str(BENCH))
        import run as run_script
        self.assertEqual(sorted(WORKLOADS), sorted(run_script.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["end_to_end"]],
                         run_script.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["per_layer"]],
                         run_script.PER_LAYER)


if __name__ == "__main__":
    unittest.main(verbosity=2)
