#!/usr/bin/env python3
"""Self-tests for scripts/bench_pairs.py's statistics and checks.

Covers the seed list, the run order, the tree comparison, and the
summary of canned paired results: medians and quartiles, pairs won with
ties, the claim rule and the bound verdicts. Nothing runs livebench.
Runs under plain unittest (ctest entry `lint_protocol_selftest`) and
under pytest unchanged.
"""

import importlib.util
import os
import tempfile
import unittest

SCRIPTS_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(SCRIPTS_DIR, "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

THROUGHPUT = {"name": "throughput_ops_s", "unit": "ops/s",
              "better": "higher", "bound": 0.25}
P50 = {"name": "write_p50_ms", "unit": "ms", "better": "lower",
       "bound": 0.25}
RSS = {"name": "peak_rss_mib", "unit": "MiB", "better": "lower",
       "bound": 0.1}


class SeedsTest(unittest.TestCase):
    def test_range_list_and_mix(self):
        self.assertEqual(bench_pairs.parse_seeds("2-11"), list(range(2, 12)))
        self.assertEqual(bench_pairs.parse_seeds("2,5,9"), [2, 5, 9])
        self.assertEqual(bench_pairs.parse_seeds("2-4,9"), [2, 3, 4, 9])
        self.assertEqual(bench_pairs.parse_seeds("7"), [7])

    def test_rejects_malformed(self):
        for text in ("", "a", "5-2", "2-", "-3", "1,,2"):
            with self.assertRaises(ValueError, msg=text):
                bench_pairs.parse_seeds(text)

    def test_parent_first_on_odd_seeds(self):
        self.assertEqual(bench_pairs.side_order(3), ("parent", "change"))
        self.assertEqual(bench_pairs.side_order(4), ("change", "parent"))


class BenchmarkDifferenceTest(unittest.TestCase):
    def make_tree(self, root, files):
        for rel, text in files.items():
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as f:
                f.write(text)
        return root

    def trees(self, parent_files, change_files):
        tmp = tempfile.mkdtemp()
        return (self.make_tree(os.path.join(tmp, "p"), parent_files),
                self.make_tree(os.path.join(tmp, "c"), change_files))

    BASE = {"BENCHMARK.json": "{}", "livebench/run.py": "run",
            "livebench/sub/x.h": "x"}

    def test_identical_trees(self):
        p, c = self.trees(self.BASE, dict(self.BASE))
        self.assertIsNone(bench_pairs.benchmark_difference(p, c))

    def test_ignores_pycache(self):
        change = dict(self.BASE)
        change["livebench/__pycache__/run.pyc"] = "bytecode"
        p, c = self.trees(self.BASE, change)
        self.assertIsNone(bench_pairs.benchmark_difference(p, c))

    def test_names_a_changed_file(self):
        change = dict(self.BASE, **{"livebench/sub/x.h": "y"})
        p, c = self.trees(self.BASE, change)
        self.assertEqual(bench_pairs.benchmark_difference(p, c),
                         os.path.join("livebench", "sub", "x.h"))

    def test_names_an_added_file_and_the_manifest(self):
        change = dict(self.BASE, **{"livebench/new.py": ""})
        p, c = self.trees(self.BASE, change)
        self.assertIn("only in the change",
                      bench_pairs.benchmark_difference(p, c))
        change = dict(self.BASE, **{"BENCHMARK.json": "{ }"})
        p, c = self.trees(self.BASE, change)
        self.assertEqual(bench_pairs.benchmark_difference(p, c),
                         "BENCHMARK.json")


class SummarizeTest(unittest.TestCase):
    def test_quartiles_match_selfcheck(self):
        self.assertEqual(bench_pairs.quartiles([4, 1, 3, 2]),
                         (1.25, 2.5, 3.75))
        self.assertEqual(bench_pairs.quartiles([5.0]), (5.0, 5.0, 5.0))

    def test_pairs_won_with_ties_and_direction(self):
        s = bench_pairs.summarize(P50, [1.0, 1.0, 1.0, 2.0],
                                  [0.9, 1.0, 1.1, 1.0])
        self.assertEqual((s["won"], s["lost"]), (2, 1))
        s = bench_pairs.summarize(THROUGHPUT, [10, 10, 10], [11, 10, 9])
        self.assertEqual((s["won"], s["lost"]), (1, 1))

    def test_ratio_of_medians(self):
        s = bench_pairs.summarize(THROUGHPUT, [100, 110, 120],
                                  [150, 165, 180])
        self.assertAlmostEqual(s["ratio"], 1.5)
        self.assertEqual(s["parent"]["median"], 110)

    def test_claim_met_on_nine_of_ten_and_a_gap_wider_than_the_iqr(self):
        parent = [1200, 1210, 1220, 1230, 1240, 1250, 1260, 1270, 1280, 1290]
        change = [1800] * 9 + [1100]  # the last pair is lost
        s = bench_pairs.summarize(THROUGHPUT, parent, change, claim=True)
        self.assertEqual(s["won"], 9)
        self.assertEqual(s["verdict"], "claim met")

    def test_claim_not_met_on_eight_of_ten(self):
        parent = [1200] * 10
        change = [1800] * 8 + [1100, 1100]
        s = bench_pairs.summarize(THROUGHPUT, parent, change, claim=True)
        self.assertEqual(s["verdict"], "claim NOT met")

    def test_claim_not_met_when_the_gap_is_inside_the_parent_iqr(self):
        parent = [1000, 1100, 1200, 1300, 1400, 1500, 1600, 1700, 1800, 1900]
        change = [p + 50 for p in parent]  # 10/10, but a 50 ops/s gap
        s = bench_pairs.summarize(THROUGHPUT, parent, change, claim=True)
        self.assertEqual(s["won"], 10)
        self.assertEqual(s["verdict"], "claim NOT met")

    def test_claim_not_met_in_the_wrong_direction(self):
        parent = [1.0] * 10
        change = [2.0] * 10  # lower is better: the change lost every pair
        s = bench_pairs.summarize(P50, parent, change, claim=True)
        self.assertEqual(s["verdict"], "claim NOT met")

    def test_within_bound(self):
        s = bench_pairs.summarize(RSS, [22.4, 22.5, 22.4, 22.5],
                                  [22.5, 22.4, 22.5, 22.4])
        self.assertEqual(s["verdict"], "within bound")

    def test_worse_by_more_than_the_bound(self):
        s = bench_pairs.summarize(P50, [1.0, 1.01, 0.99, 1.0],
                                  [1.3, 1.31, 1.29, 1.3])
        self.assertAlmostEqual(s["worse_share"], 0.3)
        self.assertEqual(s["verdict"], "WORSE")
        s = bench_pairs.summarize(THROUGHPUT, [100, 101, 99, 100],
                                  [70, 71, 69, 70])
        self.assertEqual(s["verdict"], "WORSE")

    def test_unresolved_when_either_spread_exceeds_the_bound(self):
        # Parent iqr/median ~0.5 > 0.25, medians close.
        s = bench_pairs.summarize(P50, [0.5, 1.0, 1.5, 0.6, 1.4],
                                  [1.0, 1.02, 0.98, 1.01, 0.99])
        self.assertEqual(s["verdict"], "unresolved")
        s = bench_pairs.summarize(P50, [1.0, 1.02, 0.98, 1.01, 0.99],
                                  [0.5, 1.0, 1.5, 0.6, 1.4])
        self.assertEqual(s["verdict"], "unresolved")

    def test_better_when_every_change_run_beats_every_parent_run(self):
        # Wide spreads, but no overlap: resolved.
        s = bench_pairs.summarize(P50, [2.0, 3.0, 4.0, 5.0],
                                  [0.5, 1.0, 1.5, 1.9])
        self.assertEqual(s["verdict"], "better")


if __name__ == "__main__":
    unittest.main()
