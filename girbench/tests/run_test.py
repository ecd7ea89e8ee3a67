#!/usr/bin/env python3
"""Tests of girbench/run.py's result checking and of BENCHMARK.json itself.

    python3 girbench/tests/run_test.py
"""

import importlib.util
import json
import os
import re
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)

_spec = importlib.util.spec_from_file_location("girbench_run", os.path.join(BENCH_DIR, "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def fake_result(section):
    return {"correct": True, "attempted": 5, "failed": 0,
            "metrics": {m["name"]: {"value": 1.25, "unit": m["unit"]} for m in section}}


class CheckResultTest(unittest.TestCase):
    def setUp(self):
        self.spec = load_spec()

    def test_complete_results_pass(self):
        self.assertEqual(run.check_result(fake_result(self.spec["end_to_end"]), self.spec, 0), [])
        self.assertEqual(run.check_result(fake_result(self.spec["per_layer"]), self.spec, 1), [])

    def test_wrong_section_fails(self):
        self.assertTrue(run.check_result(fake_result(self.spec["end_to_end"]), self.spec, 1))

    def test_missing_metric_fails(self):
        result = fake_result(self.spec["end_to_end"])
        del result["metrics"]["setup_s"]
        self.assertTrue(run.check_result(result, self.spec, 0))

    def test_wrong_unit_fails(self):
        result = fake_result(self.spec["end_to_end"])
        result["metrics"]["setup_s"]["unit"] = "ms"
        self.assertTrue(run.check_result(result, self.spec, 0))

    def test_extra_key_fails(self):
        result = fake_result(self.spec["end_to_end"])
        result["env"] = {}
        self.assertTrue(run.check_result(result, self.spec, 0))

    def test_zero_attempted_fails(self):
        result = fake_result(self.spec["end_to_end"])
        result["attempted"] = 0
        self.assertTrue(run.check_result(result, self.spec, 0))


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        self.spec = load_spec()

    def test_top_level_keys(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds", "workloads",
                                          "end_to_end", "per_layer"})
        self.assertEqual(self.spec["paths"], ["girbench"])
        self.assertTrue(1 <= self.spec["run_seconds"] <= 60)

    def test_names_units_and_bounds(self):
        names = []
        for w in self.spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            names.append(m["name"])
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_setup_has_the_largest_bound(self):
        e2e = {m["name"]: m for m in self.spec["end_to_end"]}
        setup = e2e["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in e2e.values()))


if __name__ == "__main__":
    unittest.main()
