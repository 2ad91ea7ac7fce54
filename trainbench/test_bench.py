#!/usr/bin/env python3
"""Self-tests of the training benchmark: its statistics, its failure
accounting, the loud closure failure, the replay-drift warning, the result
contract, and a seconds-long smoke pass of every workload.

Run with `python3 trainbench/run.py --self-test` (or this file directly).
"""

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SEED = run.DEFAULT_SEED
BDIR = None


def bench(workload, trace, *extra, seed=SEED, seconds=0.5):
    """A smoke-sized run: (returncode, stdout, stderr, parsed result or None)."""
    proc = run.run_program(BDIR, workload, seed, seconds, trace,
                           extra=("--smoke", *extra), capture_stderr=True)
    return proc.returncode, proc.stdout, proc.stderr, run.parse_result(proc.stdout)


def declared_metrics(kind):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class StatisticsTest(unittest.TestCase):
    def test_median_counts_closure_and_op_counts(self):
        proc = subprocess.run([str(BDIR / "trainbench_selftest")], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)


class FailureAccountingTest(unittest.TestCase):
    def test_injected_failing_check_counts_one_failed_operation(self):
        code, out, err, result = bench("grid6_train", 0, "--inject-fail-iteration", "1")
        self.assertEqual(code, 0, err)
        self.assertIsNotNone(result, out)
        self.assertEqual(result["failed"], 1)
        self.assertGreaterEqual(result["attempted"], 2)
        self.assertFalse(result["correct"])
        self.assertIn("injected failing check", err)
        self.assertIn(f"1 of {result['attempted']} iterations failed", out)

    def test_clean_run_has_no_failed_operation(self):
        code, out, err, result = bench("grid6_train", 0)
        self.assertEqual(code, 0, err)
        self.assertEqual(result["failed"], 0)
        self.assertTrue(result["correct"])


class TraceChecksTest(unittest.TestCase):
    def test_closure_below_95_percent_fails_the_traced_run_loudly(self):
        code, out, err, result = bench("grid6_train", 1, "--inject-gap-ms", "1500")
        self.assertEqual(code, 3, err)
        self.assertIn("FATAL", err)
        self.assertIsNone(result)

    def test_replay_drift_warns_without_failing(self):
        code, out, err, result = bench("grid6_train", 1, "--inject-replay-scale", "1.5")
        self.assertEqual(code, 0, err)
        self.assertIn("update replay drift", err)
        self.assertEqual(result["failed"], 0)
        self.assertTrue(result["correct"])
        self.assertGreater(result["metrics"]["nn.update_closure"]["value"], 1.1)


class ContractTest(unittest.TestCase):
    def check_metrics(self, result, expected):
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, metric in result["metrics"].items():
            self.assertEqual(set(metric), {"value", "unit"})
            self.assertEqual(metric["unit"], expected[name], name)
            self.assertTrue(math.isfinite(metric["value"]), name)

    def test_smoke_pass_of_every_workload(self):
        for workload in run.WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, out, err, result = bench(workload, trace)
                    self.assertEqual(code, 0, err)
                    self.assertIsNotNone(result, out)
                    self.assertTrue(result["correct"], err)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 2)
                    self.check_metrics(result, declared_metrics(kind))

    def test_untraced_iterations_train_through_train_episode(self):
        # train_episode() advances the trainer's episode counter, which seeds
        # the threaded rounds under invariant_seeding; the split calls do not.
        code, out, err, result = bench("grid6_train_4t", 0)
        self.assertEqual(code, 0, err)
        self.assertEqual(run.parse_stamp(out)["episodes_trained"], result["attempted"])

    def test_same_seed_same_fingerprint(self):
        prints = []
        for seed in (SEED, SEED, SEED + 1):
            code, out, err, _ = bench("monaco_train", 0, seed=seed)
            self.assertEqual(code, 0, err)
            prints.append(run.parse_stamp(out)["fingerprint"])
        self.assertEqual(prints[0], prints[1])
        self.assertNotEqual(prints[0], prints[2])

    def test_fails_without_library_sources(self):
        # Only BENCHMARK.json and the benchmark's own files: no result, non-zero exit.
        bare = BDIR / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "trainbench").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in run.HERE.iterdir():
            if path.is_file():
                shutil.copy(path, bare / "trainbench")
        try:
            proc = subprocess.run([sys.executable, "trainbench/run.py", "--workload", "grid6_train",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=170)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNone(run.parse_result(proc.stdout))


def main():
    global BDIR
    BDIR = run.build()
    suite = unittest.defaultTestLoader.loadTestsFromModule(sys.modules[__name__])
    outcome = unittest.TextTestRunner(verbosity=2).run(suite)
    return 0 if outcome.wasSuccessful() else 1


if __name__ == "__main__":
    sys.exit(main())
