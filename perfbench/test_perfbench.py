"""Tests of the benchmark itself, on tiny inputs.

Run from the root of the repository:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Each smoke test runs one workload untraced and traced and checks that every
metric BENCHMARK.json names is printed with its unit; the fault tests check
that a wrong expected count, or a directory without the sources, fails the
command.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"] + list(extra)
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return p.returncode, result, p.stderr


class Smoke(unittest.TestCase):

    def check(self, workload):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, err = run(workload, trace)
            self.assertEqual(code, 0, err[-3000:])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(result["failed"], 0)
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, want)
            for k, v in result["metrics"].items():
                self.assertIsInstance(v["value"], (int, float), k)

    def test_mf_vbeb(self):
        self.check("mf-vbeb")

    def test_storage_rw(self):
        self.check("storage-rw")


class Faults(unittest.TestCase):

    def test_wrong_expected_count_fails_spark_workload(self):
        code, result, _ = run("mf-vbeb", 0, "--inject-wrong-count", "1")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_wrong_expected_count_fails_storage_workload(self):
        code, result, _ = run("storage-rw", 0, "--inject-wrong-count", "1")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])

    def test_fails_without_sources(self):
        d = os.path.join(ROOT, ".bench_build", "perfbench", "bare")
        shutil.rmtree(d, ignore_errors=True)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(d, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
        code, result, _ = run("mf-vbeb", 0, cwd=d)
        shutil.rmtree(d, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
