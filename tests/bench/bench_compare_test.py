#!/usr/bin/env python3
"""tools/bench_compare.py fails a fresh run that lost a gated number.

Each case copies the committed BENCH_fig2_ack_exchange.json baseline
into a fresh-run directory, damages it one way, and runs the comparer:

  - a gated key deleted, or written as null: fails, naming the key;
  - events_per_sec 20% below the baseline: fails (limit 15%);
  - the bench missing from the fresh run: fails, naming the bench;
  - the baseline copied unchanged: passes.

  python3 tests/bench/bench_compare_test.py

ctest runs it as `bench_compare_gates`.
"""

import json
import pathlib
import shutil
import subprocess
import sys
import tempfile
import unittest

REPO = pathlib.Path(__file__).resolve().parents[2]
TOOL = REPO / "tools" / "bench_compare.py"
BASELINE = REPO / "BENCH_fig2_ack_exchange.json"


class BenchCompareGates(unittest.TestCase):
    def setUp(self):
        self.tmp = pathlib.Path(tempfile.mkdtemp(prefix="bench_compare."))
        self.base_dir = self.tmp / "base"
        self.fresh_dir = self.tmp / "fresh"
        self.base_dir.mkdir()
        self.fresh_dir.mkdir()
        shutil.copy(BASELINE, self.base_dir)
        self.baseline = json.loads(BASELINE.read_text())

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def compare(self, fresh=None):
        if fresh is not None:
            (self.fresh_dir / BASELINE.name).write_text(json.dumps(fresh))
        return subprocess.run(
            [sys.executable, str(TOOL), str(self.base_dir),
             str(self.fresh_dir)], capture_output=True, text=True)

    def test_missing_gated_key_fails_by_name(self):
        fresh = dict(self.baseline)
        del fresh["events_per_sec"]
        run = self.compare(fresh)
        self.assertEqual(run.returncode, 1, run.stdout)
        self.assertIn("fig2_ack_exchange.events_per_sec", run.stderr)
        self.assertIn("missing in the fresh run", run.stderr)

    def test_null_gated_key_fails_by_name(self):
        fresh = dict(self.baseline, sim_wall_ratio=None)
        run = self.compare(fresh)
        self.assertEqual(run.returncode, 1, run.stdout)
        self.assertIn("fig2_ack_exchange.sim_wall_ratio", run.stderr)
        self.assertIn("null in the fresh run", run.stderr)

    def test_twenty_percent_drop_fails(self):
        fresh = dict(self.baseline,
                     events_per_sec=self.baseline["events_per_sec"] * 0.8)
        run = self.compare(fresh)
        self.assertEqual(run.returncode, 1, run.stdout)
        self.assertIn("fig2_ack_exchange.events_per_sec", run.stderr)
        self.assertIn("-20.0%", run.stderr)

    def test_missing_bench_fails(self):
        run = self.compare()
        self.assertEqual(run.returncode, 1, run.stdout)
        self.assertIn("fig2_ack_exchange: no fresh run", run.stderr)

    def test_clean_run_passes(self):
        run = self.compare(self.baseline)
        self.assertEqual(run.returncode, 0, run.stderr)
        self.assertIn("1 bench(es) within 15% of baseline", run.stdout)


if __name__ == "__main__":
    unittest.main()
