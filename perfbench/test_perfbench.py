#!/usr/bin/env python3
"""The benchmark's own tests, on tiny workloads (run.py --tiny).

    python3 perfbench/test_perfbench.py

Run from the root of a checkout; the first test builds the worker.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

SEED = 3
SIM_METRICS = ["sim_delay_ms", "sim_p99_delay_ms", "loss_share",
               "control_mbit"]


def bench(workload, trace, seed=SEED, cwd=ROOT, script=None):
    """Runs run.py on a tiny workload; returns (exit code, result or None)."""
    cmd = [sys.executable, script or os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
           "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1]) if lines else None
    except ValueError:
        return done.returncode, None


def values(result):
    return {k: v["value"] for k, v in result["metrics"].items()}


class PerfbenchTest(unittest.TestCase):
    def test_every_metric_prints_with_its_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, result = bench(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace == 0:
                        for name, value in values(result).items():
                            self.assertGreater(value, 0, name)

    def test_deterministic_metrics_repeat_exactly(self):
        for workload in ("cairn_paper", "waxman_sharded"):
            with self.subTest(workload=workload):
                first = values(bench(workload, 0)[1])
                second = values(bench(workload, 0)[1])
                for name in SIM_METRICS:
                    self.assertEqual(first[name], second[name], name)
                other = values(bench(workload, 0, seed=SEED + 1)[1])
                self.assertNotEqual(first["sim_delay_ms"],
                                    other["sim_delay_ms"])

    def test_loss_share_is_the_ledger_on_a_crash_scenario(self):
        _, e2e = bench("waxman_churn", 0)
        _, layers = bench("waxman_churn", 1)
        loss = values(e2e)["loss_share"]
        injected = values(layers)["packets.injected"]
        delivered = values(layers)["packets.delivered"]
        self.assertGreater(loss, 0)
        self.assertEqual(loss, 1 - delivered / injected)
        # Every run injects the same packets; simulated losses are not
        # failed operations, so a run that passes its checks fails none.
        self.assertEqual(layers["attempted"] % injected, 0)
        self.assertEqual(layers["failed"], 0)

    def test_fails_without_the_simulator_sources(self):
        bare = os.path.join(run.BUILD, "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            code, result = bench(
                "cairn_paper", 0, cwd=bare,
                script=os.path.join(bare, "perfbench", "run.py"))
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
