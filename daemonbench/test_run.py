"""Tests of the daemon benchmark itself, at a tiny scale.

    python3 -m unittest daemonbench/test_run.py

Each test runs `daemonbench/run.py` as the benchmark driver would, so
the build, input generation, reference check and output contract are
all exercised. Every metric named in `BENCHMARK.json` must be printed
with the unit given there.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Scale factors small enough to run in seconds, large enough that every
# workload still closes at least one monitoring period (the TPC-H
# generator keeps its event count at any scale, so it runs as is).
TINY = {"fileserver-ndjson": 0.15, "cloudblock-binary": 0.1, "tpch-triggers": 1.0}


def bench(workload, trace, *extra):
    """Runs the benchmark; returns (exit code, stdout lines)."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0.2", "--trace", str(trace), "--scale-factor", str(TINY[workload]),
           *extra]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=600)
    return done.returncode, done.stdout.strip().splitlines()


class ContractTest(unittest.TestCase):
    def result(self, workload, trace, *extra):
        code, lines = bench(workload, trace, *extra)
        self.assertEqual(code, 0)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        provenance = json.loads(lines[-2])["provenance"]
        for key in ("nproc", "scan_isa", "shards", "readers", "seed", "events", "steal_share"):
            self.assertIn(key, provenance)
        return result, provenance

    def assert_metrics(self, result, declared):
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            printed = result["metrics"][m["name"]]
            self.assertEqual(printed["unit"], m["unit"], m["name"])
            self.assertIsInstance(printed["value"], (int, float), m["name"])

    def test_tables_match_benchmark_json(self):
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]}, run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]}, run.PER_LAYER_UNITS)

    def test_end_to_end_every_workload(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result, provenance = self.result(workload, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assert_metrics(result, SPEC["end_to_end"])
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)
                self.assertEqual(provenance["shards"], run.WORKLOADS[workload]["shards"])

    def test_traced_every_workload(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result, _ = self.result(workload, 1)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assert_metrics(result, SPEC["per_layer"])
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertGreaterEqual(metrics["controller.plans"], 1)
                self.assertEqual(metrics["iotrace.decode_events"], metrics["daemon.step_calls"])
                self.assertEqual(metrics["controller.rollover_calls"], metrics["controller.plans"])

    def test_corrupted_reference_fails_every_run(self):
        result, _ = self.result("fileserver-ndjson", 0, "--corrupt-reference")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_corrupted_reference_fails_traced_passes(self):
        result, _ = self.result("cloudblock-binary", 1, "--corrupt-reference")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_same_seed_same_inputs(self):
        _, harness = run.build()
        spec = run.WORKLOADS["cloudblock-binary"]
        outs = []
        for i in range(2):
            work = ROOT / ".bench_work" / f"test-seed-{i}"
            meta = run.prepare(harness, spec, 7, TINY["cloudblock-binary"], work)
            outs.append((Path(meta["input"]).read_bytes(), meta["expected"]))
            shutil.rmtree(work)
        self.assertEqual(outs[0], outs[1])

    def test_fails_without_the_repository(self):
        bare = ROOT / ".bench_work" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__", "target"))
        cmd = [sys.executable, *SPEC["command"][1:], "--workload", "tpch-triggers",
               "--seed", "1", "--seconds", "1", "--trace", "0"]
        done = subprocess.run(cmd, cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
