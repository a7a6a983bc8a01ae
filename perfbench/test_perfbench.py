"""The benchmark's own tests.

    python3 -m unittest perfbench/test_perfbench.py

A tiny-size run of every workload must emit exactly the metric names of
``BENCHMARK.json`` with their units and no failures; a deliberately wrong
golden value must be counted as a failure; and without tautrr's sources the
benchmark must exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from worker import direct, import_tautrr  # noqa: E402

lib = import_tautrr()

from run import WORKLOADS  # noqa: E402
from workloads import (  # noqa: E402
    Ladder, Pairing, PointTarget, Recorder, WarmCache, load_golden, report_golden_path,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


class SmokeTest(unittest.TestCase):
    def test_workloads_match_spec(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(WORKLOADS))

    def test_every_metric_is_emitted(self):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                                     "--trace", trace, "--size", "tiny")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(emitted, expected)

    def test_no_sources_exits_without_result(self):
        SCRATCH.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=SCRATCH))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, bare / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare)


class WrongGoldenTest(unittest.TestCase):
    """Each kind of exact check fails when its golden value is wrong."""

    def setUp(self):
        SCRATCH.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="test-", dir=SCRATCH))

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def failed_ops(self, cls, golden) -> int:
        workload = cls(lib, random.Random(0), "tiny", self.tmp, golden=golden)
        rec = Recorder(perf_counter)
        workload.run_pass(rec, direct)
        self.assertGreater(rec.attempted, 0)
        return rec.failed

    def test_ladder_value(self):
        golden = load_golden("ladder.json")
        self.assertEqual(self.failed_ops(Ladder, golden), 0)
        golden["3|2,6"] = str(Fraction(golden["3|2,6"]) + 1)
        self.assertEqual(self.failed_ops(Ladder, golden), 1)

    def test_pointtarget_value(self):
        golden = load_golden("pointtarget.json")
        key = "0,2,1,0||0,1"
        golden[key] = str(Fraction(golden[key]) * 2)
        self.assertGreater(self.failed_ops(PointTarget, golden), 0)

    def test_pairing_report_bytes(self):
        golden = {f"verify-{rel}-g{g}": report_golden_path(f"verify-{rel}-g{g}").read_text()
                  for rel, g in Pairing.SWEEPS["tiny"]}
        key = "verify-xi-witness-g2..8"
        golden[key] = golden[key].replace('"pass": true', '"pass": false', 1)
        self.assertEqual(self.failed_ops(Pairing, golden), len(json.loads(golden[key])))

    def test_warmcache_stats_line(self):
        golden = load_golden("warmcache.json")
        golden["bbt"] = report_golden_path("verify-bbt-default").read_text()
        golden["stats"] = golden["stats"].replace("entries", "entries ")
        self.assertEqual(self.failed_ops(WarmCache, golden), 1)


if __name__ == "__main__":
    unittest.main()
