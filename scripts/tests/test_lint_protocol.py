#!/usr/bin/env python3
"""Self-tests for scripts/lint_protocol.py.

Each fixture under fixtures/ is staged into a temp tree at a path where
its target rule applies (rule scoping is path-based), then the linter is
run with --root pointed at the temp tree. *_fail fixtures must produce
exactly their rule's findings; *_pass fixtures must be clean.

Runs under plain unittest (ctest entry `lint_protocol_selftest`) and
under pytest unchanged.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

SCRIPTS_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINTER = os.path.join(SCRIPTS_DIR, "lint_protocol.py")
FIXTURES = os.path.join(SCRIPTS_DIR, "tests", "fixtures")

# fixture -> (path inside the staged tree, rule expected to fire or None)
CASES = {
    "raw_verify_fail.cpp": ("src/bftbc/fixture.cpp", "raw-verify"),
    "raw_verify_primitive_fail.cpp": ("src/quorum/fixture.cpp", "raw-verify"),
    "raw_verify_cache_fail.cpp": ("src/bftbc/fixture.cpp", "raw-verify"),
    "raw_verify_pass.cpp": ("src/bftbc/fixture.cpp", None),
    "single_thread_fail.cpp": ("tools/fixture.cpp", "single-thread"),
    "nondet_fail.cpp": ("src/sim/fixture.cpp", "nondeterminism"),
    "nondet_pass.cpp": ("src/sim/fixture.cpp", None),
    "unchecked_value_fail.cpp": (
        "src/bftbc/fixture.cpp",
        "unchecked-result-value",
    ),
    "unchecked_value_pass.cpp": ("src/bftbc/fixture.cpp", None),
    "state_mutation_fail.cpp": (
        "src/bftbc/fixture.cpp",
        "replica-state-mutation",
    ),
    "state_mutation_pass.cpp": ("src/bftbc/fixture.cpp", None),
    "suppressed_pass.cpp": ("src/bftbc/fixture.cpp", None),
    "suppression_nojust_fail.cpp": ("src/bftbc/fixture.cpp", "suppression"),
}


def run_linter_on(fixture, staged_rel):
    """Stage one fixture into a temp tree and lint it. Returns (rc, out)."""
    with tempfile.TemporaryDirectory() as root:
        dst = os.path.join(root, staged_rel)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copyfile(os.path.join(FIXTURES, fixture), dst)
        proc = subprocess.run(
            [sys.executable, LINTER, "--root", root],
            capture_output=True,
            text=True,
            check=False,
        )
        return proc.returncode, proc.stdout + proc.stderr


class LintFixtureTest(unittest.TestCase):
    maxDiff = None

    def test_fixture_files_all_covered(self):
        on_disk = {
            f for f in os.listdir(FIXTURES) if f.endswith(".cpp")
        }
        self.assertEqual(
            on_disk, set(CASES), "every fixture must have a CASES entry"
        )


def _make_case(fixture, staged_rel, rule):
    def test(self):
        rc, out = run_linter_on(fixture, staged_rel)
        if rule is None:
            self.assertEqual(
                rc, 0, f"{fixture} must pass cleanly; output:\n{out}"
            )
        else:
            self.assertEqual(
                rc, 1, f"{fixture} must be flagged; output:\n{out}"
            )
            self.assertIn(
                f"[{rule}]", out, f"{fixture} must trip {rule}; got:\n{out}"
            )
            # It must trip ONLY its own rule: no cross-contamination.
            for other in {
                "raw-verify",
                "single-thread",
                "nondeterminism",
                "unchecked-result-value",
                "replica-state-mutation",
            } - {rule}:
                self.assertNotIn(f"[{other}]", out)

    return test


for _fixture, (_rel, _rule) in CASES.items():
    _name = "test_" + _fixture.replace(".cpp", "")
    setattr(LintFixtureTest, _name, _make_case(_fixture, _rel, _rule))


class LintScopingTest(unittest.TestCase):
    def test_rules_do_not_fire_outside_their_scope(self):
        # The same raw-verify violation is legal inside src/crypto/ and in
        # tests/; threads are legal in tests/; nondeterminism is legal
        # outside the simulation dirs.
        for fixture, rel in (
            ("raw_verify_fail.cpp", "src/crypto/fixture.cpp"),
            ("raw_verify_fail.cpp", "tests/fixture.cpp"),
            ("single_thread_fail.cpp", "tests/fixture.cpp"),
            ("nondet_fail.cpp", "src/util/fixture.cpp"),
            ("state_mutation_fail.cpp", "src/bftbc/replica_state.cpp"),
        ):
            rc, out = run_linter_on(fixture, rel)
            self.assertEqual(
                rc, 0, f"{fixture} at {rel} must be out of scope:\n{out}"
            )

    def test_single_thread_flags_every_thread_start_in_src_and_tools(self):
        # One finding per line that starts a thread, in src/ (crypto
        # included) as in tools/.
        for rel in ("src/crypto/fixture.cpp", "tools/fixture.cpp"):
            rc, out = run_linter_on("single_thread_fail.cpp", rel)
            self.assertEqual(rc, 1, out)
            self.assertEqual(out.count("[single-thread]"), 4, out)

    def test_explicit_file_arguments(self):
        with tempfile.TemporaryDirectory() as root:
            flagged = os.path.join(root, "src", "bftbc", "bad.cpp")
            clean = os.path.join(root, "src", "bftbc", "good.cpp")
            os.makedirs(os.path.dirname(flagged), exist_ok=True)
            shutil.copyfile(
                os.path.join(FIXTURES, "raw_verify_fail.cpp"), flagged
            )
            shutil.copyfile(
                os.path.join(FIXTURES, "raw_verify_pass.cpp"), clean
            )
            proc = subprocess.run(
                [sys.executable, LINTER, "--root", root, clean],
                capture_output=True,
                text=True,
                check=False,
            )
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
            proc = subprocess.run(
                [sys.executable, LINTER, "--root", root, flagged],
                capture_output=True,
                text=True,
                check=False,
            )
            self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)

    def test_bare_allow_does_not_suppress_the_underlying_rule(self):
        # An allow() with no `-- why` must leave the violation visible
        # AND flag the suppression itself.
        with tempfile.TemporaryDirectory() as root:
            dst = os.path.join(root, "src", "bftbc", "fixture.cpp")
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            with open(dst, "w", encoding="utf-8") as f:
                f.write(
                    "void audited(const Keystore& ks, BytesView s,"
                    " BytesView g) {\n"
                    "  (void)ks.verify(1, s, g);"
                    "  // bftbc-lint: allow(raw-verify)\n"
                    "}\n"
                )
            proc = subprocess.run(
                [sys.executable, LINTER, "--root", root],
                capture_output=True,
                text=True,
                check=False,
            )
            out = proc.stdout + proc.stderr
            self.assertEqual(proc.returncode, 1, out)
            self.assertIn("[raw-verify]", out)
            self.assertIn("[suppression]", out)

    def test_file_outside_root_is_a_usage_error(self):
        with tempfile.TemporaryDirectory() as root:
            proc = subprocess.run(
                [sys.executable, LINTER, "--root", root, LINTER],
                capture_output=True,
                text=True,
                check=False,
            )
            self.assertEqual(proc.returncode, 2)


class LintRealTreeTest(unittest.TestCase):
    def test_repo_src_is_clean(self):
        repo_root = os.path.dirname(SCRIPTS_DIR)
        proc = subprocess.run(
            [sys.executable, LINTER, "--root", repo_root],
            capture_output=True,
            text=True,
            check=False,
        )
        self.assertEqual(
            proc.returncode, 0, proc.stdout + proc.stderr
        )


if __name__ == "__main__":
    unittest.main(verbosity=2)
