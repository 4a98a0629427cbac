"""Smoke test of the benchmark at toy scale (a few minutes).

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json once untraced and once traced on
toy corpora, and checks that:

* every operation succeeds and is checked against its reference;
* every metric BENCHMARK.json names is printed, with its unit;
* a tampered reference digest turns operations into counted failures;
* without the program's sources the benchmark fails without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "1", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def result_of(process: subprocess.CompletedProcess) -> dict:
    if process.returncode != 0:
        raise AssertionError(f"benchmark exited {process.returncode}:\n{process.stderr}")
    return json.loads(process.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def assert_metrics(self, result: dict, specs: list[dict]) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]), {spec["name"] for spec in specs})
        for spec in specs:
            metric = result["metrics"][spec["name"]]
            self.assertEqual(metric["unit"], spec["unit"], spec["name"])
            self.assertIsInstance(metric["value"], (int, float), spec["name"])

    def test_every_workload_prints_every_metric(self) -> None:
        for workload in SPEC["workloads"]:
            for trace, specs in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
                with self.subTest(workload=workload["name"], trace=trace):
                    result = result_of(bench("--workload", workload["name"], "--trace", trace, "--toy"))
                    self.assertTrue(result["correct"], result)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assert_metrics(result, specs)
                    if trace == "0":
                        for name in ("wall_s", "cpu_s", "setup_s"):
                            self.assertGreater(result["metrics"][name]["value"], 0)

    def test_tampered_reference_counts_failures(self) -> None:
        result = result_of(
            bench("--workload", "mobile-batch", "--trace", "0", "--toy", "--tamper-reference")
        )
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], result["attempted"])

    def test_fails_without_program_sources(self) -> None:
        bare = ROOT / ".perfbench" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            process = bench("--workload", "replay-cold", "--trace", "0", cwd=bare)
            self.assertNotEqual(process.returncode, 0)
            self.assertEqual(process.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
