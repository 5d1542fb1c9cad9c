#!/usr/bin/env python3
"""Fixture suite for tools/pw_analyze.py.

Each fixture under tests/analyze/fixtures/ is a miniature source tree
engineered to trip exactly one check (or, for `clean`, none). The suite
drives the tool the way CI does — as a subprocess, builtin backend — and
asserts on rule IDs and exit codes, so a regression in extraction, type
resolution or the call-graph walk shows up as a missing (or spurious)
finding rather than a silent pass.

Run directly (`python3 tests/analyze/pw_analyze_test.py`) or through
ctest (`ctest -R pw_analyze`).
"""

import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
TOOL = os.path.join(REPO, "tools", "pw_analyze.py")
FIXTURES = os.path.join(HERE, "fixtures")


def run_analyze(*args):
    proc = subprocess.run(
        [sys.executable, TOOL, "--backend=builtin", *args],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def run_fixture(name, *extra):
    return run_analyze("--root", os.path.join(FIXTURES, name), *extra)


class FixtureFindings(unittest.TestCase):
    """Each bad fixture must produce its engineered finding."""

    def test_layering_break_flags_both_edge_kinds(self):
        code, out, _err = run_fixture("layering_break")
        self.assertEqual(code, 1, out)
        self.assertIn("[layering]", out)
        # The #include edge and the qualified-name edge are distinct
        # findings: deleting the include must not hide the decl use.
        self.assertIn('must not include "sim/event_queue.h"', out)
        self.assertIn("must not name sim::", out)
        self.assertEqual(out.count("[layering]"), 2, out)

    def test_unordered_iteration_through_alias_and_auto(self):
        code, out, _err = run_fixture("unordered_auto")
        self.assertEqual(code, 1, out)
        self.assertIn("[unordered-iteration]", out)
        self.assertIn("'table'", out)  # the auto&-bound alias, resolved

    def test_hot_alloc_reported_transitively(self):
        code, out, _err = run_fixture("hot_alloc")
        self.assertEqual(code, 1, out)
        self.assertIn("[hot-new]", out)
        self.assertIn("PW_HOT root dispatch_one", out)
        # The chain proves the walk went through the middle frame.
        self.assertIn("refill", out)
        self.assertIn("grow_slot", out)

    def test_hot_alloc_assigned_new_and_templated_make_unique(self):
        code, out, _err = run_fixture("hot_alloc_forms")
        self.assertEqual(code, 1, out)
        # One finding per root: `*out = new`, `out = new`, and a
        # make_unique whose template arguments precede the call.
        self.assertEqual(out.count("[hot-new]"), 3, out)
        self.assertIn("operator new reachable from PW_HOT root fill_slot",
                      out)
        self.assertIn("operator new reachable from PW_HOT root assign_slot",
                      out)
        self.assertIn("make_unique reachable from PW_HOT root own_slot", out)

    def test_hot_alloc_behind_a_name_five_classes_share(self):
        # An untyped receiver leaves five `size` candidates; the walk
        # follows them all, so unrelated same-named functions elsewhere
        # cannot hide the allocating one.
        code, out, _err = run_fixture("hot_alloc_shared_name")
        self.assertEqual(code, 1, out)
        self.assertEqual(out.count("[hot-new]"), 1, out)
        self.assertIn("PW_HOT root occupancy (via occupancy → Spill::size)",
                      out)

    def test_unguarded_write_flagged_locked_sibling_not(self):
        code, out, _err = run_fixture("unguarded_write")
        self.assertEqual(code, 1, out)
        self.assertIn("[guarded-by]", out)
        self.assertIn("hit_unlocked", out)
        self.assertIn("PW_GUARDED_BY(mutex_)", out)
        # hit() takes common::MutexLock on the capability: not a finding.
        self.assertEqual(out.count("[guarded-by]"), 1, out)

    def test_clean_fixture_passes(self):
        code, out, err = run_fixture("clean")
        self.assertEqual(code, 0, out + err)
        self.assertIn("0 finding(s)", err)


class SuppressionMechanics(unittest.TestCase):
    """Allowlist hygiene: stale entries and bare allows are themselves
    errors, so suppressions can never quietly outlive their reason."""

    def test_unused_allowlist_entry_is_an_error(self):
        with tempfile.NamedTemporaryFile(
                "w", suffix=".txt", delete=False) as f:
            f.write("src/common/tally.h:hot-new  # stale: nothing "
                    "allocates here anymore\n")
            allowlist = f.name
        try:
            code, out, _err = run_fixture(
                "clean", "--allowlist", allowlist)
            self.assertEqual(code, 1, out)
            self.assertIn("[unused-allowlist-entry]", out)
            self.assertIn("src/common/tally.h:hot-new", out)
        finally:
            os.unlink(allowlist)

    def test_inline_allow_without_justification_is_an_error(self):
        with tempfile.TemporaryDirectory() as tmp:
            mod = os.path.join(tmp, "src", "common")
            os.makedirs(mod)
            with open(os.path.join(mod, "bare_allow.h"), "w") as f:
                f.write(
                    "#pragma once\n"
                    "// pw-analyze: allow(hot-new):\n"
                    "inline int* leak() { return new int(0); }\n")
            code, out, _err = run_analyze("--root", tmp)
            self.assertEqual(code, 1, out)
            self.assertIn("[allow-missing-justification]", out)

    def test_inline_allow_with_justification_suppresses(self):
        with tempfile.TemporaryDirectory() as tmp:
            mod = os.path.join(tmp, "src", "sim")
            os.makedirs(mod)
            with open(os.path.join(mod, "pool.h"), "w") as f:
                f.write(
                    "#pragma once\n"
                    "#include \"common/annotations.h\"\n"
                    "namespace politewifi::sim {\n"
                    "PW_HOT inline int* acquire() {\n"
                    "  // pw-analyze: allow(hot-new): pool growth on a\n"
                    "  // cold miss only; steady state reuses slots.\n"
                    "  return new int(0);\n"
                    "}\n"
                    "}  // namespace politewifi::sim\n")
            code, out, err = run_analyze("--root", tmp)
            self.assertEqual(code, 0, out + err)


class RealTree(unittest.TestCase):
    """The production gate: the actual src/ tree is clean with the
    checked-in (empty-by-design) allowlist."""

    def test_repo_is_clean(self):
        proc = subprocess.run(
            [sys.executable, TOOL, "--backend=builtin"],
            capture_output=True, text=True, cwd=REPO)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("0 finding(s)", proc.stderr)


if __name__ == "__main__":
    unittest.main(verbosity=2)
