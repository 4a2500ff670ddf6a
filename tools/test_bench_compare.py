#!/usr/bin/env python3
"""Unit checks for tools/bench_compare.py's exit status.

    python3 -m unittest discover -s tools -p 'test_*.py'
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "bench_compare.py"
EXACT = "orchestrator.celf.evaluations"


def report(evaluations, other=0, compute_ms=50.0):
    return {
        "schema": "painter.bench.v1",
        "name": "micro_orchestrator",
        "seed": 1,
        "phases": [{"name": "compute_serial", "wall_ms": compute_ms}],
        "values": {},
        "metrics": {"counters": {EXACT: evaluations,
                                 "orchestrator.celf.cache_hits": other},
                    "gauges": {}},
    }


class BenchCompareTest(unittest.TestCase):
    def run_compare(self, base, cand, *extra):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, doc in (("base.json", base), ("cand.json", cand)):
                path = Path(tmp) / name
                path.write_text(json.dumps(doc), encoding="utf-8")
                paths.append(str(path))
            return subprocess.run(
                [sys.executable, str(SCRIPT), *paths, *extra],
                capture_output=True, text=True, check=False).returncode

    def test_equal_exact_counter_passes(self):
        self.assertEqual(
            self.run_compare(report(128260), report(128260), "--exact", EXACT),
            0)

    def test_one_count_difference_fails(self):
        self.assertEqual(
            self.run_compare(report(128260), report(128261), "--exact", EXACT),
            1)
        self.assertEqual(
            self.run_compare(report(128260), report(128259), "--exact", EXACT),
            1)

    def test_missing_exact_counter_fails(self):
        self.assertEqual(
            self.run_compare(report(1), report(1), "--exact", "no.such.count"),
            1)

    def test_unnamed_counters_stay_informational(self):
        self.assertEqual(
            self.run_compare(report(5, other=1), report(5, other=9),
                             "--exact", EXACT),
            0)
        self.assertEqual(self.run_compare(report(5), report(6)), 0)

    def test_phase_regression_still_fails(self):
        self.assertEqual(
            self.run_compare(report(5), report(5, compute_ms=100.0),
                             "--exact", EXACT),
            1)


if __name__ == "__main__":
    unittest.main()
