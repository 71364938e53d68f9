#!/usr/bin/env python3
"""Self-tests for scripts/check_bench_json.py.

Covers the schema validator on synthetic reports and the --compare mode:
per-counter deltas, derived per-op ratios, and the regression threshold.

Runs under plain unittest (ctest entry `scripts_selftest`) and under
pytest unchanged.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPTS_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKER = os.path.join(SCRIPTS_DIR, "check_bench_json.py")


def minimal_report(**counter_overrides):
    """A schema-v1 report that passes validation on its own."""
    counters = {
        "sig_cache_hit": 10,
        "sig_cache_miss": 5,
        "sig_verify_calls": 700,
        "sign": 420,
        "mac_sign": 360,
        "mac_verify": 330,
        "net/bytes_sent": 278284,
        "net/msgs_sent": 1600,
        "net/encode_calls": 1600,
        "client/1/writes": 50,
        "client/1/reads": 50,
    }
    counters.update(counter_overrides)
    return {
        "schema_version": 1,
        "bench": "bench_synthetic",
        "config": {"smoke": "false"},
        "counters": counters,
        "gauges": {},
        "summaries": {
            "op_ms": {
                "count": 4,
                "mean": 2.0,
                "p50": 2.0,
                "p90": 3.0,
                "p99": 3.0,
                "p999": 3.0,
                "min": 1.0,
                "max": 3.0,
                "stddev": 0.5,
            }
        },
        "histograms": {},
    }


def run_checker(*args):
    proc = subprocess.run(
        [sys.executable, CHECKER, *args],
        capture_output=True,
        text=True,
        check=False,
    )
    return proc.returncode, proc.stdout + proc.stderr


class CheckBenchJsonTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write_report(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return path

    def test_valid_report_passes(self):
        path = self.write_report("ok.json", minimal_report())
        rc, out = run_checker(path)
        self.assertEqual(rc, 0, out)

    def test_missing_required_counter_fails(self):
        doc = minimal_report()
        del doc["counters"]["sig_verify_calls"]
        path = self.write_report("bad.json", doc)
        rc, out = run_checker(path)
        self.assertEqual(rc, 1, out)
        self.assertIn("sig_verify_calls", out)

    def test_missing_p999_fails(self):
        doc = minimal_report()
        del doc["summaries"]["op_ms"]["p999"]
        path = self.write_report("bad.json", doc)
        rc, out = run_checker(path)
        self.assertEqual(rc, 1, out)
        self.assertIn("p999", out)

    def test_p999_below_p99_fails(self):
        doc = minimal_report()
        doc["summaries"]["op_ms"]["p999"] = 2.5  # < p99 = 3.0
        path = self.write_report("bad.json", doc)
        rc, out = run_checker(path)
        self.assertEqual(rc, 1, out)
        self.assertIn("out of order", out)

    def test_compare_identical_reports_passes(self):
        old = self.write_report("old.json", minimal_report())
        new = self.write_report("new.json", minimal_report())
        rc, out = run_checker("--compare", old, new)
        self.assertEqual(rc, 0, out)
        # All watched ratios computed, none regressed.
        for label in (
            "bytes_sent/write",
            "msgs_sent/op",
            "sig_verify_calls/op",
            "encode_calls/op",
            "sign/op",
            "mac_sign/op",
            "mac_verify/op",
        ):
            self.assertIn(label, out)
        self.assertNotIn("FAIL", out)

    def test_compare_prints_counter_deltas(self):
        old = self.write_report("old.json", minimal_report())
        new = self.write_report(
            "new.json",
            minimal_report(**{"net/msgs_sent": 1070, "reply_batches": 10}),
        )
        rc, out = run_checker("--compare", old, new)
        self.assertEqual(rc, 0, out)
        self.assertIn("-530", out)  # msgs_sent delta
        self.assertIn("(added)", out)  # counter only in NEW

    def test_compare_flags_regression_above_threshold(self):
        old = self.write_report("old.json", minimal_report())
        new = self.write_report(
            "new.json", minimal_report(sig_verify_calls=900)  # +28.6%/op
        )
        rc, out = run_checker("--compare", old, new)
        self.assertEqual(rc, 1, out)
        self.assertIn("sig_verify_calls/op", out)
        self.assertIn("regressed", out)

    def test_compare_threshold_is_configurable(self):
        old = self.write_report("old.json", minimal_report())
        new = self.write_report(
            "new.json", minimal_report(sig_verify_calls=900)
        )
        rc, out = run_checker("--compare", old, new, "--threshold", "50")
        self.assertEqual(rc, 0, out)
        rc, out = run_checker("--compare", old, new, "--threshold", "5")
        self.assertEqual(rc, 1, out)

    def test_compare_improvement_never_fails(self):
        old = self.write_report("old.json", minimal_report())
        new = self.write_report(
            "new.json",
            minimal_report(
                **{
                    "net/bytes_sent": 201877,
                    "net/msgs_sent": 1070,
                    "net/encode_calls": 1226,
                    "sig_verify_calls": 671,
                }
            ),
        )
        rc, out = run_checker("--compare", old, new, "--threshold", "0")
        self.assertEqual(rc, 0, out)

    def test_compare_flags_mac_counter_regression(self):
        old = self.write_report("old.json", minimal_report())
        new = self.write_report(
            "new.json", minimal_report(mac_verify=500)  # +51.5%/op
        )
        rc, out = run_checker("--compare", old, new)
        self.assertEqual(rc, 1, out)
        self.assertIn("mac_verify/op", out)
        self.assertIn("regressed", out)

    def test_compare_skips_mac_ratios_for_macless_benches(self):
        old_doc = minimal_report()
        new_doc = minimal_report()
        for doc in (old_doc, new_doc):
            for name in ("mac_sign", "mac_verify"):
                del doc["counters"][name]
        old = self.write_report("old.json", old_doc)
        new = self.write_report("new.json", new_doc)
        rc, out = run_checker("--compare", old, new)
        self.assertEqual(rc, 0, out)
        self.assertIn("skipped", out)

    def test_compare_skips_ratio_with_missing_counter(self):
        old_doc = minimal_report()
        del old_doc["counters"]["net/encode_calls"]
        old = self.write_report("old.json", old_doc)
        new = self.write_report("new.json", minimal_report())
        rc, out = run_checker("--compare", old, new)
        self.assertEqual(rc, 0, out)
        self.assertIn("skipped", out)

    def test_compare_notes_different_sha256_kernels(self):
        old_doc = minimal_report()
        old_doc["config"]["sha256_kernel"] = "portable"
        new_doc = minimal_report()
        new_doc["config"]["sha256_kernel"] = "sha-ni"
        old = self.write_report("old.json", old_doc)
        new = self.write_report("new.json", new_doc)
        rc, out = run_checker("--compare", old, new)
        self.assertEqual(rc, 0, out)
        self.assertIn("sha256_kernel differs (OLD=portable, NEW=sha-ni)", out)

    def test_compare_no_kernel_note_when_same_or_unrecorded(self):
        same = minimal_report()
        same["config"]["sha256_kernel"] = "sha-ni"
        old = self.write_report("old.json", same)
        new = self.write_report("new.json", same)
        unrecorded = self.write_report("none.json", minimal_report())
        for pair in ((old, new), (unrecorded, new)):
            rc, out = run_checker("--compare", *pair)
            self.assertEqual(rc, 0, out)
            self.assertNotIn("sha256_kernel", out)

    def test_compare_kernel_note_never_masks_a_regression(self):
        old_doc = minimal_report()
        old_doc["config"]["sha256_kernel"] = "portable"
        new_doc = minimal_report(mac_verify=500)
        new_doc["config"]["sha256_kernel"] = "sha-ni"
        old = self.write_report("old.json", old_doc)
        new = self.write_report("new.json", new_doc)
        rc, out = run_checker("--compare", old, new)
        self.assertEqual(rc, 1, out)
        self.assertIn("sha256_kernel differs", out)
        self.assertIn("regressed", out)

    def test_compare_rejects_invalid_report(self):
        old = self.write_report("old.json", minimal_report())
        bad = os.path.join(self.tmp.name, "bad.json")
        with open(bad, "w", encoding="utf-8") as f:
            f.write("not json")
        rc, out = run_checker("--compare", old, bad)
        self.assertEqual(rc, 1, out)

    def test_compare_usage_errors(self):
        old = self.write_report("old.json", minimal_report())
        rc, _ = run_checker("--compare", old)
        self.assertEqual(rc, 2)
        rc, _ = run_checker("--compare", old, old, "--threshold", "abc")
        self.assertEqual(rc, 2)

    def test_ratio_derivation_sums_multiple_clients(self):
        doc = minimal_report(**{"client/2/writes": 50, "client/2/reads": 0})
        old = self.write_report("old.json", doc)
        # Same counters: with 100 writes, bytes_sent/write halves vs the
        # single-client report — make sure the divisor actually summed.
        new = self.write_report("new.json", copy.deepcopy(doc))
        rc, out = run_checker("--compare", old, new)
        self.assertEqual(rc, 0, out)
        self.assertIn("2782.840", out)  # 278284 / 100 writes


if __name__ == "__main__":
    unittest.main()
