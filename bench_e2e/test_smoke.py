#!/usr/bin/env python3
"""Smoke tests of the end-to-end benchmark.

    python3 bench_e2e/test_smoke.py        (from the repository root)

Runs the small --smoke configuration of every workload, untraced and
traced, through run.py and checks that each run is correct and emits
exactly the metrics BENCHMARK.json names, with the declared units; that
metrics.json documents the same metrics; and that every per-layer metric
is really measured (not defaulted) on the workloads its catalogue entry
names. failover, which BENCHMARK.json does not register, must emit the
end-to-end metrics and every per-layer metric its catalogue entries name.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(path):
    with open(path) as f:
        return json.load(f)


BENCH = load(os.path.join(ROOT, "BENCHMARK.json"))
CATALOGUE = load(os.path.join(HERE, "metrics.json"))
REGISTERED = [w["name"] for w in CATALOGUE["workloads"]
              if w.get("registered", True)]


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "2", "--trace", str(trace),
           "--smoke"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise AssertionError(f"{cmd} exited {out.returncode}")
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


class Catalogue(unittest.TestCase):
    def test_catalogue_matches_benchmark_json(self):
        for kind in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in BENCH[kind]}
            documented = {m["name"]: m["unit"] for m in CATALOGUE[kind]
                          if kind == "end_to_end" or
                          set(m["workloads"]) & set(REGISTERED)}
            self.assertEqual(declared, documented, kind)
        self.assertEqual([w["name"] for w in BENCH["workloads"]], REGISTERED)
        for w in CATALOGUE["workloads"]:
            if w["name"] not in REGISTERED:
                self.assertTrue(w.get("why_unregistered"), w["name"])

    def test_every_entry_says_what_it_moves(self):
        for m in CATALOGUE["per_layer"]:
            for key in ("layer", "how", "moves", "workloads"):
                self.assertTrue(m.get(key), f"{m['name']} lacks {key}")


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        kind = "per_layer" if trace else "end_to_end"
        if workload in REGISTERED:
            expected = {m["name"]: m["unit"] for m in BENCH[kind]}
        else:
            expected = {m["name"]: m["unit"] for m in CATALOGUE[kind]
                        if not trace or workload in m["workloads"]}
        prov, result = run(workload, trace)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], prov)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if workload in REGISTERED:
            self.assertEqual(got, expected)
        else:
            self.assertLessEqual(expected.items(), got.items())
        for key in ("kernel", "simd_width", "nproc", "llc_bytes",
                    "dist_over_llc", "rev", "seed"):
            self.assertIn(key, prov)
        if not trace:
            for name in expected:
                self.assertGreater(result["metrics"][name]["value"], 0, name)
            return
        if workload not in REGISTERED:
            return  # its run reports only what it measured
        defaulted = set(prov["layers_not_in_workload"].split())
        for m in CATALOGUE["per_layer"]:
            if workload in m["workloads"]:
                self.assertNotIn(m["name"], defaulted, workload)

    def test_batch_large(self):
        self.check("batch-large", 0)
        self.check("batch-large", 1)

    def test_insitu_steered(self):
        self.check("insitu-steered", 0)
        self.check("insitu-steered", 1)

    def test_failover(self):
        self.check("failover", 0)
        self.check("failover", 1)


if __name__ == "__main__":
    unittest.main()
