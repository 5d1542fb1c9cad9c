#!/usr/bin/env python3
"""A malformed or non-positive PW_SCALE stops a bench before it runs.

Runs the given bench binary with PW_SCALE set to a word, a negative
number and a number with trailing junk. Each must exit 2 with a named
error and write no BENCH json, instead of quietly running at the
default full scale (or at the numeric prefix).

  python3 tests/bench/pw_scale_test.py PATH/TO/bench_table2_wardrive

ctest runs it as `bench_pw_scale_rejects_malformed`.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH = None  # set from argv in main


class PwScaleRejectsMalformed(unittest.TestCase):
    def test_each_bad_value_exits_2_before_running(self):
        for value in ("abc", "-1", "0.05x"):
            with self.subTest(value=value):
                out = pathlib.Path(tempfile.mkdtemp(prefix="pw_scale."))
                try:
                    env = dict(os.environ, PW_SCALE=value,
                               PW_BENCH_DIR=str(out))
                    run = subprocess.run([BENCH], env=env,
                                         capture_output=True, text=True,
                                         timeout=60)
                    self.assertEqual(run.returncode, 2, run.stdout)
                    self.assertIn(
                        f'PW_SCALE: expected a positive number, got "{value}"',
                        run.stderr)
                    self.assertEqual(list(out.iterdir()), [])
                finally:
                    shutil.rmtree(out)


if __name__ == "__main__":
    BENCH = sys.argv.pop(1)
    unittest.main()
