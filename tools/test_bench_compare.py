"""Unit tests for bench_compare.py over the committed BENCH_*.json files.
Registered with ctest; also runs standalone:

    python3 tools/test_bench_compare.py
"""

import contextlib
import copy
import io
import json
import unittest
from pathlib import Path

import bench_compare

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("BENCH_*.json"))


def load(stem):
    return json.loads((ROOT / f"BENCH_{stem}.json").read_text())


def quick_run(report):
    """What a --quick run writes: only the rows marked quick."""
    fresh = copy.deepcopy(report)
    fresh["quick"] = True
    fresh["runs"] = [r for r in fresh["runs"] if r["quick"]]
    return fresh


def gate(base, fresh):
    with contextlib.redirect_stdout(io.StringIO()):
        return bench_compare.compare(base, fresh, 0.8)


def first(report, kind):
    return next(f for f, k in report["fields"].items() if k == kind)


def row(report, name):
    return next(r for r in report["runs"] if r["name"] == name)


class GateTest(unittest.TestCase):
    def assert_fails_naming(self, base, fresh, *names):
        failures = gate(base, fresh)
        self.assertTrue(
            any(all(n in f for n in names) for f in failures),
            f"{base['bench']}: no failure names {names}: {failures}")

    def each(self):
        self.assertEqual(len(FILES), 4)
        return [json.loads(path.read_text()) for path in FILES]

    def test_each_file_passes_against_itself_in_both_modes(self):
        for base in self.each():
            self.assertEqual(gate(base, base), [], base["bench"])
            self.assertEqual(gate(base, quick_run(base)), [], base["bench"])

    def test_changed_exact_field(self):
        for base in self.each():
            if "exact" not in base["fields"].values():
                # sim_engine: --quick scales every mix down, so no output
                # is mode-independent except host rates and its checks.
                self.assertEqual(base["bench"], "sim_engine")
                continue
            fresh = copy.deepcopy(base)
            field = first(base, "exact")
            target = fresh["runs"][-1]
            value = target[field]
            target[field] = (not value if isinstance(value, bool) else
                             value + "_" if isinstance(value, str) else
                             value + 1)
            self.assert_fails_naming(base, fresh, target["name"], field)

    def test_halved_ratio_field(self):
        for base in self.each():
            fresh = copy.deepcopy(base)
            field = first(base, "ratio")
            fresh["runs"][0][field] /= 2
            self.assert_fails_naming(base, fresh, fresh["runs"][0]["name"],
                                     field)

    def test_flipped_check(self):
        for base in self.each():
            fresh = copy.deepcopy(base)
            check = next(iter(fresh["checks"]))
            fresh["checks"][check] = False
            self.assert_fails_naming(base, fresh, f"checks.{check}")

    def test_renamed_check(self):
        for base in self.each():
            fresh = copy.deepcopy(base)
            fresh["checks"]["renamed"] = fresh["checks"].popitem()[1]
            self.assert_fails_naming(base, fresh, "checks:", "renamed")

    def test_dropped_quick_row(self):
        for base in self.each():
            fresh = quick_run(base)
            dropped = fresh["runs"].pop()
            self.assert_fails_naming(base, fresh, dropped["name"], "missing")

    def test_row_the_baseline_lacks(self):
        for base in self.each():
            fresh = copy.deepcopy(base)
            extra = copy.deepcopy(fresh["runs"][0])
            extra["name"] += "_new"
            fresh["runs"].append(extra)
            self.assert_fails_naming(base, fresh, extra["name"],
                                     "not in the baseline")

    def test_changed_field_kinds(self):
        for base in self.each():
            fresh = copy.deepcopy(base)
            field = first(base, "ratio")
            fresh["fields"][field] = "info"
            self.assert_fails_naming(base, fresh, f"fields.{field}")

    # The failures the per-bench comparators raised before the schema,
    # each as the bench would now write it.

    def test_slo_not_held(self):
        base, fresh = load("slo"), load("slo")
        controlled = row(fresh, "controlled")
        controlled["p99_update_ns"] = controlled["target_p99_ns"] + 1
        fresh["checks"]["held"] = False
        self.assert_fails_naming(base, fresh, "checks.held")
        self.assert_fails_naming(base, fresh, "controlled", "p99_update_ns")

    def test_uncontrolled_p99_under_twice_the_target(self):
        base, fresh = load("slo"), load("slo")
        uncontrolled = row(fresh, "uncontrolled")
        uncontrolled["p99_update_ns"] = 2 * uncontrolled["target_p99_ns"] - 1
        fresh["checks"]["uncontrolled_p99_ge_2x_target"] = False
        self.assert_fails_naming(base, fresh,
                                 "checks.uncontrolled_p99_ge_2x_target")

    def test_wheel_slower_than_heap_on_bursty(self):
        base = load("sim_engine")
        fresh = quick_run(base)
        bursty = row(fresh, "bursty")
        bursty["heap_events_per_sec"] = 2 * bursty["wheel_events_per_sec"]
        bursty["speedup_events_per_sec"] = 0.5
        fresh["checks"]["bursty_wheel_ge_heap"] = False
        self.assert_fails_naming(base, fresh, "checks.bursty_wheel_ge_heap")

    def test_p99_below_p50(self):
        base = load("scale_sweep")
        fresh = quick_run(base)
        point = fresh["runs"][0]
        point["p99_update_ns"] = point["p50_update_ns"] - 1
        fresh["checks"]["p99_ge_p50"] = False
        self.assert_fails_naming(base, fresh, "checks.p99_ge_p50")
        self.assert_fails_naming(base, fresh, point["name"], "p99_update_ns")

    def test_regcache_winner_drifted(self):
        base = load("regcache")
        fresh = quick_run(base)
        cell = fresh["runs"][0]
        cell["winner"] = "register_on_fly"
        self.assertNotEqual(row(base, cell["name"])["winner"], cell["winner"])
        self.assert_fails_naming(base, fresh, cell["name"], "winner")


if __name__ == "__main__":
    unittest.main()
