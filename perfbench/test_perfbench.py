#!/usr/bin/env python3
"""The benchmark's own tests: seeds and the traced run.

    python3 perfbench/test_perfbench.py        # from the repository root

Builds the driver like run.py does, then checks that
  * the same seed gives the same plan hash and the same flow.* counts,
    and a different seed a different plan;
  * --trace 0 prints exactly the end-to-end metrics of BENCHMARK.json and
    --trace 1 every per-layer metric plus trace.overhead_frac, on every
    workload, with every packet accounted for;
  * the traced run writes its spans, each with a chunk id and a parent.
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
FLOW_COUNTS = ["flow.hit_ratio", "flow.inserts_per_kpkt", "flow.evictions_per_kpkt",
               "flow.probe_p99"]
BUILD_DIR = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()


def driver(binary, workload, seed, *extra):
    out = subprocess.run([str(binary), "--workload", workload, "--seed", str(seed),
                          "--seconds", "0.3", "--setups", "1", *extra],
                         stdout=subprocess.PIPE, text=True, check=True, timeout=170).stdout
    lines = out.splitlines()
    return run.detail_of(lines[:-1]), json.loads(lines[-1])


def run_py(workload, seed, trace):
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                         cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
                         timeout=180).stdout
    return json.loads(out.splitlines()[-1])


class SeedTest(unittest.TestCase):
    def test_same_seed_same_plan_and_flow_counts(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                d1, r1 = driver(BINARY, w, 7, "--trace", "1")
                d2, r2 = driver(BINARY, w, 7, "--trace", "1")
                d3, _ = driver(BINARY, w, 8, "--trace", "1")
                self.assertEqual(d1["plan_hash"], d2["plan_hash"])
                self.assertNotEqual(d1["plan_hash"], d3["plan_hash"])
                for m in FLOW_COUNTS:
                    self.assertEqual(r1["metrics"][m]["value"], r2["metrics"][m]["value"], m)
                self.assertEqual(d1["seed"], 7)


class TracedRunTest(unittest.TestCase):
    def test_every_metric_on_every_workload(self):
        end_to_end = {m["name"] for m in SPEC["end_to_end"]}
        per_layer = {m["name"] for m in SPEC["per_layer"]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                plain = run_py(w, 3, 0)
                traced = run_py(w, 3, 1)
                self.assertEqual(set(plain["metrics"]), end_to_end)
                self.assertEqual(set(traced["metrics"]), per_layer)
                for r in (plain, traced):
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreater(r["attempted"], 0)
                for name in ("netdev.ring_drops", "click.element_drops",
                             "packet.alloc_failures"):
                    self.assertEqual(traced["metrics"][name]["value"], 0, name)
                for name in end_to_end:
                    self.assertGreater(plain["metrics"][name]["value"], 0, name)
                spans = json.loads((BUILD_DIR / "spans" / f"{w}-seed3.json").read_text())
                events = spans["traceEvents"]
                names = {e["name"] for e in events}
                self.assertIn("SingleServerRouter::Step", names)
                self.assertIn("BulkInjector::FillFrame", names)
                chunk_spans = {e["args"]["span"] for e in events if e["name"] == "chunk"}
                for e in events:
                    if e["name"] != "chunk":
                        self.assertIn(e["args"]["parent"], chunk_spans)


if __name__ == "__main__":
    BINARY = run.build(BUILD_DIR)
    unittest.main()
