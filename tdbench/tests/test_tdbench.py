"""The benchmark's own tests, on tiny inputs.

Run from the repository root:

    python3 -m unittest discover -s tdbench/tests -v

They build tdbench/ like tdbench/run.py does (into .bench_build/tdbench).
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN_PY = ROOT / "tdbench" / "run.py"
BUILD_DIR = ROOT / ".bench_build" / "tdbench"
BINARY = BUILD_DIR / "tdbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7


def run_py(workload, trace, cwd=ROOT, script=RUN_PY):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed",
         str(SEED), "--seconds", "1", "--trace", str(trace), "--size",
         "tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170)


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        # run.py builds the binary; later tests drive it directly.
        done = run_py(WORKLOADS[0], 0)
        if done.returncode != 0:
            raise RuntimeError("tdbench build/run failed:\n" + done.stderr)

    def check_metrics(self, result, spec_metrics):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in spec_metrics}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def test_every_metric_name_and_unit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                untraced = run_py(workload, 0)
                self.assertEqual(untraced.returncode, 0, untraced.stderr)
                result = last_json(untraced.stdout)
                self.check_metrics(result, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"],
                                       0, m["name"])
                self.assertEqual(
                    result["metrics"]["dates_exact_ratio"]["value"], 1.0)
                self.assertIn("date_error_ps = 0 ps", untraced.stdout)
                self.assertIn("error_rate = 0", untraced.stdout)
                traced = run_py(workload, 1)
                self.assertEqual(traced.returncode, 0, traced.stderr)
                self.check_metrics(last_json(traced.stdout),
                                   SPEC["per_layer"])

    def drive(self, workload, reference):
        done = subprocess.run(
            [str(BINARY), "--workload", workload, "--seed", str(SEED),
             "--size", "tiny", "--seconds", "0.3", "--trace", "--expect",
             str(reference)],
            stdout=subprocess.PIPE, text=True, timeout=170)
        self.assertEqual(done.returncode, 0)
        return last_json(done.stdout)

    def test_invariants_repeats_and_span_accounting(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                reference = BUILD_DIR / f"test-ref-{workload}.txt"
                subprocess.run(
                    [str(BINARY), "--workload", workload, "--seed",
                     str(SEED), "--size", "tiny", "--reference",
                     str(reference)], check=True, timeout=170)
                try:
                    runs = [self.drive(workload, reference) for _ in range(2)]
                finally:
                    reference.unlink(missing_ok=True)
                iterations = [i for r in runs for i in r["iterations"]]
                # Outputs match the reference, and the KernelStats
                # invariants held (the binary fails the iteration if not).
                for i in iterations:
                    self.assertEqual(i["ok"], 1, i["error"])
                    self.assertEqual(i["date_error_ps"], 0)
                    self.assertEqual(i["dates_exact"], i["dates_total"])
                # Exact counts repeat across iterations and processes.
                exact = iterations[0]["exact"]
                self.assertGreater(exact["context_switches"], 0)
                for i in iterations:
                    self.assertEqual(i["exact"], exact)
                # Span self times plus the residual add up to the run()
                # window on every active lane.
                traced = [i for i in iterations if i["traced"]]
                self.assertTrue(traced)
                for i in traced:
                    layers = i["layers"]
                    lanes = layers["trace.lanes"]
                    self.assertGreaterEqual(lanes, 1)
                    if runs[0]["config"]["workers"] <= 1:
                        self.assertEqual(lanes, 1)
                    total = (layers["trace.spans_self_s"] +
                             layers["kernel.residual_s"])
                    self.assertAlmostEqual(
                        total, layers["trace.window_s"] * lanes, delta=1e-6)
                    self.assertGreaterEqual(layers["kernel.residual_s"], 0)

    def test_refuses_to_run_without_the_sources(self):
        bare = BUILD_DIR / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(ROOT / "tdbench", bare / "tdbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            done = run_py(WORKLOADS[0], 0, cwd=bare,
                          script=bare / "tdbench" / "run.py")
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
