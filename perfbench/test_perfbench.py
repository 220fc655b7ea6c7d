#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

- A tiny-size smoke run of every workload, untraced and traced: every
  metric BENCHMARK.json names is printed with its unit, every audit passes
  and the error ratio is 0.
- One planted fault per audit (a dropped delivery, a dropped viewer
  event, a lost acked write, a corrupted read-back value): the run must
  report correct=false and exit non-zero.
- Without the program's sources next to it, the benchmark exits non-zero
  and prints no result.

Runs build the driver first (about a minute on a cold build directory).
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, fault=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--smoke"]
    if fault:
        cmd += ["--fault", fault]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


class Smoke(unittest.TestCase):

    def check(self, workload):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            rc, res, err = run(workload, trace)
            self.assertEqual(rc, 0, err)
            self.assertEqual(set(res), RESULT_KEYS)
            self.assertTrue(res["correct"])
            self.assertEqual(res["failed"], 0)
            self.assertGreater(res["attempted"], 0)
            want = {m["name"]: m["unit"] for m in spec()[section]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            self.assertEqual(got, want)
            if trace:
                self.assertEqual(
                    res["metrics"]["driver.error_ratio"]["value"], 0)
            else:
                for name, m in res["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_crowd_fanout(self):
        self.check("crowd_fanout")

    def test_mirror_remote(self):
        self.check("mirror_remote")

    def test_twin_store(self):
        self.check("twin_store")


class PlantedFaults(unittest.TestCase):

    def check(self, workload, fault):
        rc, res, err = run(workload, 0, fault)
        self.assertEqual(rc, 1, err)
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)

    def test_dropped_delivery_fails_serial_replay_audit(self):
        self.check("crowd_fanout", "drop_delivery")

    def test_dropped_viewer_event_fails_viewer_audit(self):
        self.check("mirror_remote", "drop_event")

    def test_lost_acked_write_fails_quorum_audit(self):
        self.check("mirror_remote", "lost_write")

    def test_corrupted_readback_fails_store_audit(self):
        self.check("twin_store", "corrupt_readback")


class MissingSources(unittest.TestCase):

    def test_benchmark_alone_exits_nonzero_without_result(self):
        base = os.path.join(ROOT, ".bench_build", "alone")
        shutil.rmtree(base, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(base, "perfbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), base)
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(base, "build"))
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "twin_store", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=base, env=env, capture_output=True, text=True,
                timeout=170)
        finally:
            shutil.rmtree(base, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
