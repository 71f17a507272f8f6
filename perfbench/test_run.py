"""Tests of the benchmark's own code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the repository root. The last test builds the engine and runs the
command once per workload and trace mode, briefly.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]+")


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class Statistics(unittest.TestCase):
    def test_median(self):
        self.assertEqual(run.median([3, 1, 2]), 2)
        self.assertEqual(run.median([4, 1, 3, 2]), 2.5)
        self.assertEqual(run.median([7]), 7)

    def test_quartiles_match_the_exclusive_method(self):
        self.assertEqual(run.quartiles([1, 2, 3, 4]), (1.25, 3.75))
        self.assertEqual(run.quartiles([5, 1, 9, 3, 7]), (2.0, 8.0))
        self.assertEqual(run.quartiles(list(range(1, 11))), (2.75, 8.25))

    def test_percentile_interpolates_between_ranks(self):
        xs = [10, 20, 30, 40, 50]
        self.assertEqual(run.percentile(xs, 0), 10)
        self.assertEqual(run.percentile(xs, 50), 30)
        self.assertEqual(run.percentile(xs, 100), 50)
        self.assertEqual(run.percentile(xs, 90), 46)
        self.assertEqual(run.percentile([4, 1, 3, 2], 50), 2.5)

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(19))
        self.assertEqual(run.tail_percentile(20), 50.0)
        self.assertEqual(run.tail_percentile(40), 75.0)
        self.assertEqual(run.tail_percentile(100), 90.0)
        self.assertEqual(run.tail_percentile(999), 90.0)
        self.assertEqual(run.tail_percentile(1000), 99.0)
        self.assertEqual(run.tail_percentile(10000), 99.9)

    def test_ratio_of_nothing_is_zero(self):
        self.assertEqual(run.ratio(3, 0), 0.0)
        self.assertEqual(run.ratio(1, 4), 0.25)


class Catalogue(unittest.TestCase):
    def test_names_and_units_follow_the_grammar(self):
        spec = benchmark_json()
        names = [m["name"] for k in ("workloads", "end_to_end", "per_layer") for m in spec[k]]
        self.assertEqual(len(names), len(set(names)), "names are used once")
        for n in names:
            self.assertTrue(NAME.fullmatch(n) and len(n) <= 64, n)
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertTrue(UNIT.fullmatch(m["unit"]) and len(m["unit"]) <= 16, m)
            self.assertIn(m["better"], ("higher", "lower"))

    def test_grammar_rejects_bad_names(self):
        for bad in ("", "-x", "a b", "a/b", "é", "x" * 65):
            self.assertFalse(NAME.fullmatch(bad) and len(bad) <= 64, bad)

    def test_catalogue_is_what_benchmark_json_lists(self):
        spec = benchmark_json()
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            run.per_layer_catalogue())
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))

    def test_setup_s_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in benchmark_json()["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertLessEqual(max(bounds.values()), 0.25)


class Command(unittest.TestCase):
    def test_prints_exactly_the_declared_metrics(self):
        spec = benchmark_json()
        for workload in run.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    out = subprocess.run(
                        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                         "--seed", "7", "--seconds", "0.3", "--trace", str(trace)],
                        cwd=ROOT, capture_output=True, text=True, timeout=900)
                    self.assertEqual(out.returncode, 0, out.stderr)
                    result = json.loads(out.stdout.strip().splitlines()[-1])
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    declared = {m["name"]: m["unit"] for m in spec[key]}
                    printed = {n: v["unit"] for n, v in result["metrics"].items()}
                    self.assertEqual(printed, declared)
                    for n, v in result["metrics"].items():
                        self.assertIsInstance(v["value"], (int, float), n)
                    if trace == 0:
                        for n, v in result["metrics"].items():
                            self.assertGreater(v["value"], 0, n)


if __name__ == "__main__":
    unittest.main()
