#!/usr/bin/env python3
"""tools/pw_campaign.py replays a campaign's logs as the driver does.

Runs a 2-job campaign through the real pw_run with one child SIGKILLed
(PW_CAMPAIGN_FAULT_KILL), so attempts.jsonl holds a header, claims and
a failure. The tool's replay of results.jsonl + attempts.jsonl must
then equal, job by job, the state.json view the driver wrote at exit:
one replay semantics in C++ (runtime/campaign/journal.cpp) and Python.
The same run checks how `status` shows a claim with no result and that
`repair` is a no-op on a directory whose logs do not exist yet.

  python3 tests/campaign/pw_campaign_test.py PATH/TO/pw_run

ctest runs it as `pw_campaign_replay` with the built pw_run.
"""

import importlib.util
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import unittest

REPO = pathlib.Path(__file__).resolve().parents[2]
TOOL = REPO / "tools" / "pw_campaign.py"
PW_RUN = None  # set from argv in main

_spec = importlib.util.spec_from_file_location("pw_campaign", TOOL)
pw_campaign = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pw_campaign)


def tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True)


class ReplayMatchesTheDriver(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = pathlib.Path(tempfile.mkdtemp(prefix="pw_campaign_test."))
        manifest = cls.tmp / "m.json"
        init = tool("init", "--campaign=replay", "--suite-version=t",
                    "--seed=7", "--smoke", "--backoff-ms=1",
                    f"--output={manifest}", "quickstart",
                    "quickstart:watch_ms=40")
        assert init.returncode == 0, init.stderr
        cls.dir = cls.tmp / "m.campaign"
        env = dict(os.environ, PW_CAMPAIGN_FAULT_KILL="001-quickstart:1")
        run = subprocess.run(
            [PW_RUN, f"--campaign={manifest}", f"--campaign-dir={cls.dir}",
             "--procs=2", f"--json={cls.tmp / 'out.json'}"],
            env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def test_replay_equals_the_state_view(self):
        records, progress, open_claims, torn = \
            pw_campaign.load_journal(self.dir)
        state = json.loads((self.dir / "state.json").read_text())["jobs"]
        self.assertEqual(progress, state)
        self.assertEqual(len(records), 2)
        self.assertEqual(open_claims, set())
        self.assertEqual(torn, {})
        # The kill really happened: a retry with its backoff.
        self.assertEqual(state["001-quickstart"]["attempts"], 2)
        self.assertEqual(state["001-quickstart"]["backoff_ms"], [1])

    def test_status_shows_a_claim_without_a_result(self):
        copy = self.tmp / "no-results.campaign"
        shutil.copytree(self.dir, copy)
        (copy / "results.jsonl").write_bytes(b"")
        status = tool("status", copy)
        self.assertEqual(status.returncode, 0, status.stderr)
        self.assertIn("0/2 completed, 0 quarantined, 1 retried",
                      status.stdout)
        self.assertIn("claimed, no result (attempt 2)", status.stdout)
        self.assertIn("claimed, no result (attempt 1)", status.stdout)

    def test_status_refuses_a_header_from_another_manifest(self):
        copy = self.tmp / "mixed.campaign"
        shutil.copytree(self.dir, copy)
        manifest = json.loads((copy / "manifest.json").read_text())
        manifest["policy"]["backoff_ms"] += 1
        (copy / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        status = tool("status", copy)
        self.assertNotEqual(status.returncode, 0)
        self.assertIn("refusing to mix campaigns", status.stderr)

    def test_repair_is_a_no_op_before_the_logs_exist(self):
        fresh = self.tmp / "fresh.campaign"
        fresh.mkdir()
        repair = tool("repair", fresh)
        self.assertEqual(repair.returncode, 0, repair.stderr)
        self.assertIn("results.jsonl does not exist yet", repair.stdout)
        self.assertIn("attempts.jsonl does not exist yet", repair.stdout)


def main():
    global PW_RUN
    if len(sys.argv) < 2:
        sys.exit("usage: pw_campaign_test.py PATH/TO/pw_run")
    PW_RUN = sys.argv.pop(1)
    unittest.main()


if __name__ == "__main__":
    main()
