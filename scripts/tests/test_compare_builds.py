#!/usr/bin/env python3
"""Self-tests for scripts/compare_builds.py's comparison helpers.

Covers the JSON comparison (every differing path, the cap on how many
are listed, ignored top-level keys, byte-level differences), the text
comparison, and the directory comparison used for saved corpora. Runs under plain unittest (ctest
entry `scripts_selftest`) and under pytest unchanged.
"""

import importlib.util
import json
import os
import tempfile
import unittest

SCRIPTS_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "compare_builds", os.path.join(SCRIPTS_DIR, "compare_builds.py"))
compare_builds = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_builds)


def report(**gauges):
    return {
        "schema_version": 1,
        "bench": "bench_auth_cost",
        "counters": {"sign": 420, "verify": 700},
        "gauges": gauges,
        "summaries": {"client.write.total_ms": {"count": 3, "p50": 1.5}},
    }


def differences(old, new):
    return list(compare_builds.json_differences(old, new))


class JsonDifferencesTest(unittest.TestCase):
    def test_equal_documents(self):
        self.assertEqual(differences(report(a=1), report(a=1)), [])

    def test_names_every_differing_path(self):
        old = report()
        new = report()
        new["counters"]["verify"] = 701
        new["summaries"]["client.write.total_ms"]["p50"] = 2.0
        self.assertEqual(differences(old, new), [
            "$.counters.verify: 700 != 701",
            "$.summaries.client.write.total_ms.p50: 1.5 != 2.0",
        ])

    def test_missing_keys_and_list_lengths(self):
        self.assertEqual(differences({"a": 1}, {"a": 1, "b": 2}),
                         ["$.b: only in NEW"])
        self.assertEqual(differences({"a": 1, "b": 2}, {"a": 1}),
                         ["$.b: only in OLD"])
        self.assertEqual(differences([1, 2], [1, 2, 3]),
                         ["$: length 2 != 3"])
        self.assertEqual(differences({"r": [1, {"x": 0}]},
                                     {"r": [1, {"x": 1}]}),
                         ["$.r[1].x: 0 != 1"])

    def test_type_change_is_a_difference(self):
        # 1 == 1.0 and 1 == True in Python; the reports must not say so.
        self.assertNotEqual(differences(1, 1.0), [])
        self.assertNotEqual(differences(1, True), [])


class CompareJsonTextTest(unittest.TestCase):
    def test_identical_bytes(self):
        text = json.dumps(report(t=0.25))
        self.assertIsNone(compare_builds.compare_json_text(text, text))

    def test_ignored_key_skips_wall_clock_gauges(self):
        old = json.dumps(report(cert_batch_ms=0.038))
        new = json.dumps(report(cert_batch_ms=0.041))
        self.assertEqual(compare_builds.compare_json_text(old, new),
                         "$.gauges.cert_batch_ms: 0.038 != 0.041")
        self.assertIsNone(
            compare_builds.compare_json_text(old, new, ("gauges",)))

    def test_ignored_key_still_compares_the_rest(self):
        old = report(a=1)
        new = report(a=2)
        new["counters"]["sign"] = 421
        diff = compare_builds.compare_json_text(json.dumps(old),
                                                json.dumps(new), ("gauges",))
        self.assertEqual(diff, "$.counters.sign: 420 != 421")

    def test_same_document_different_bytes(self):
        doc = report(a=1)
        self.assertEqual(
            compare_builds.compare_json_text(json.dumps(doc),
                                             json.dumps(doc, indent=2)),
            "same JSON, different bytes")

    def test_lists_every_difference_up_to_the_cap(self):
        old = report()
        new = report()
        new["counters"]["sign"] = 421
        new["counters"]["verify"] = 701
        self.assertEqual(
            compare_builds.compare_json_text(json.dumps(old), json.dumps(new)),
            "2 differences\n"
            "  $.counters.sign: 420 != 421\n"
            "  $.counters.verify: 700 != 701")

        cap = compare_builds.MAX_LISTED
        many_old = {f"k{i:02d}": 0 for i in range(cap + 5)}
        many_new = {f"k{i:02d}": 1 for i in range(cap + 5)}
        lines = compare_builds.compare_json_text(
            json.dumps(many_old), json.dumps(many_new)).split("\n")
        self.assertEqual(lines[0], f"{cap + 5} differences")
        self.assertEqual(lines[1], "  $.k00: 0 != 1")
        self.assertEqual(lines[cap], f"  $.k{cap - 1:02d}: 0 != 1")
        self.assertEqual(lines[-1], "  and 5 more")
        self.assertEqual(len(lines), cap + 2)

    def test_unparseable_report(self):
        diff = compare_builds.compare_json_text("{", "{}")
        self.assertTrue(diff.startswith("not JSON"), diff)


class CompareTextTest(unittest.TestCase):
    def test_first_differing_line(self):
        self.assertIsNone(compare_builds.compare_text("a\nb\n", "a\nb\n"))
        self.assertEqual(compare_builds.compare_text("a\nb\n", "a\nc\n"),
                         "line 2: 'b' != 'c'")
        self.assertEqual(compare_builds.compare_text("a\n", "a\nb\n"),
                         "1 lines != 2 lines")
        self.assertEqual(compare_builds.compare_text("a\n", "a"),
                         "trailing newline differs")


class CompareDirsTest(unittest.TestCase):
    def test_names_and_contents(self):
        with tempfile.TemporaryDirectory() as old, \
                tempfile.TemporaryDirectory() as new:
            for d in (old, new):
                with open(os.path.join(d, "a.json"), "w") as f:
                    f.write("{}")
            self.assertIsNone(compare_builds.compare_dirs(old, new))
            with open(os.path.join(new, "a.json"), "w") as f:
                f.write("[]")
            self.assertEqual(compare_builds.compare_dirs(old, new),
                             "a.json: contents differ")
            with open(os.path.join(new, "b.json"), "w") as f:
                f.write("{}")
            self.assertIn("only NEW ['b.json']",
                          compare_builds.compare_dirs(old, new))


if __name__ == "__main__":
    unittest.main()
