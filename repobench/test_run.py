"""Unit tests for run.py: the tail-percentile rule, the metric-name
grammar and failure accounting. They need no build:

    python3 -m unittest discover -s repobench -p 'test_*.py'
"""

import copy
import json
import re
import unittest
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent

# BENCHMARK.json's grammar for metric names and units.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class TailPercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(run.tail_percentile(1000), 99.0)  # exactly 10 beyond
        self.assertEqual(run.tail_percentile(999), 90.0)
        self.assertEqual(run.tail_percentile(18_700), 99.9)
        self.assertEqual(run.tail_percentile(100_000), 99.99)
        self.assertEqual(run.tail_percentile(100), 90.0)

    def test_too_few_samples_fall_back_to_the_median(self):
        self.assertEqual(run.tail_percentile(99), 50.0)
        self.assertEqual(run.tail_percentile(0), 50.0)

    def test_tail_value_leaves_at_least_ten_samples_beyond(self):
        for n in (100, 999, 1000, 1001, 12_345):
            xs = list(range(1, n + 1))
            tail = run.percentile(xs, run.tail_percentile(n))
            self.assertGreaterEqual(sum(x > tail for x in xs), 10, n)

    def test_nearest_rank(self):
        xs = list(range(1, 11))
        self.assertEqual(run.percentile(xs, 50.0), 5)
        self.assertEqual(run.percentile(xs, 90.0), 9)
        self.assertEqual(run.percentile(xs, 0.0), 1)
        self.assertEqual(run.percentile([7], 99.9), 7)


class HostTimeTest(unittest.TestCase):
    def test_each_simulation_takes_its_own_fastest_pass(self):
        # Simulation 0 is fastest in pass 0 and simulation 1 in pass 9, so
        # the sum beats every whole pass.
        passes = [{"sim_run_s": [1.0 + i, 10.0 - i]} for i in range(10)]
        self.assertEqual(run.host_time(passes, "sim_run_s"), 2.0)
        self.assertEqual(run.host_time(passes[:1], "sim_run_s"), 11.0)


class MetricNameGrammarTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_grammar_accepts_and_rejects(self):
        for good in ("run_s", "sim.switch_ns", "sockets.fast_msg_ns.svia",
                     "9lives", "a" * 64):
            self.assertTrue(NAME_RE.fullmatch(good), good)
        for bad in ("_run", ".x", "a b", "a" * 65, "", "p99{node=1}"):
            self.assertFalse(NAME_RE.fullmatch(bad), bad)
        for good in ("s", "ms", "1/s", "count", "%", "sim_us"):
            self.assertTrue(UNIT_RE.fullmatch(good), good)
        for bad in ("", "a" * 17, "m s"):
            self.assertFalse(UNIT_RE.fullmatch(bad), bad)

    def test_every_metric_name_and_unit_is_valid_and_unique(self):
        names = [n for n, _ in run.END_TO_END + run.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name, unit in run.END_TO_END + run.PER_LAYER:
            self.assertTrue(NAME_RE.fullmatch(name), name)
            self.assertTrue(UNIT_RE.fullmatch(unit), unit)
        for w in self.spec["workloads"]:
            self.assertTrue(NAME_RE.fullmatch(w["name"]), w["name"])

    def test_benchmark_json_matches_what_run_py_prints(self):
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["per_layer"]],
                         run.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in self.spec["workloads"]),
                         sorted(run.DEFAULT_SEEDS))

    def test_bounds(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


def fake_pass(traced=False, ops=100, failed=0, digest=42):
    return {
        "traced": traced, "ops": ops, "failed": failed, "events": 1000,
        "points": [{"name": "p", "events": 1000, "digest": digest}],
        "fig4": {"svia_lat_us": 9.5}, "latency_ns": [1, 2, 3],
    }


class FailureAccountingTest(unittest.TestCase):
    def test_clean_passes_count_only_their_own_failures(self):
        passes = [fake_pass(traced=True), fake_pass(failed=3), fake_pass()]
        self.assertEqual(run.account(passes, None), (300, 3, []))

    def test_forced_digest_mismatch_fails_every_op_of_that_pass(self):
        passes = [fake_pass(traced=True), fake_pass(digest=43), fake_pass()]
        attempted, failed, problems = run.account(passes, None)
        self.assertEqual((attempted, failed), (300, 100))
        self.assertEqual(len(problems), 1)
        self.assertIn("untraced", problems[0])

    def test_mismatched_latency_samples_fail_the_pass(self):
        other = fake_pass()
        other["latency_ns"] = [1, 2, 4]
        attempted, failed, _ = run.account([fake_pass(traced=True), other], None)
        self.assertEqual((attempted, failed), (200, 100))

    def test_crashed_pass_fails_as_many_ops_as_a_completed_one(self):
        attempted, failed, problems = run.account(
            [fake_pass(traced=True), None, fake_pass()], None)
        self.assertEqual((attempted, failed), (300, 100))
        self.assertEqual(problems, ["pass 1 crashed"])
        self.assertEqual(run.account([None, None], None)[1:],
                         (1, ["every pass crashed"]))

    def test_pins_are_checked_against_the_reference_pass(self):
        passes = [fake_pass(traced=True), fake_pass()]
        pins = run.pin_view(passes[0])
        self.assertEqual(run.account(passes, pins), (200, 0, []))
        wrong = copy.deepcopy(pins)
        wrong["points"][0]["digest"] = 7
        attempted, failed, problems = run.account(passes, wrong)
        self.assertEqual((attempted, failed), (200, 200))
        self.assertEqual(problems, ["model outputs differ from the pins"])

    def test_off_the_default_seed_a_pin_pass_is_checked(self):
        passes = [fake_pass(traced=True, digest=5), fake_pass(digest=5)]
        pin_pass = fake_pass(ops=50)
        pins = run.pin_view(pin_pass)
        self.assertEqual(run.account(passes, pins, [pin_pass]), (250, 0, []))
        moved = fake_pass(ops=50, digest=6)
        self.assertEqual(run.account(passes, pins, [moved])[:2], (250, 250))
        attempted, failed, problems = run.account(passes, pins, [None])
        self.assertEqual((attempted, failed), (300, 300))
        self.assertEqual(problems, ["model outputs differ from the pins"])


class PinsTest(unittest.TestCase):
    def test_openloop_pin_reproduces_the_controlled_slo_bench(self):
        pins = json.loads((HERE / "pins.json").read_text())
        slo = json.loads((HERE.parent / "BENCH_slo.json").read_text())
        row = next(r for r in slo["runs"] if r["controlled"])
        point = next(p for p in pins["openloop_slo"]["points"]
                     if p["name"] == "controlled")
        for key in ("offered", "delivered", "drops", "throttled",
                    "slo_actions", "demotions", "promotions",
                    "final_admit_permille", "final_chunk_bytes",
                    "events_fired", "trace_digest"):
            ours = {"events_fired": "events", "trace_digest": "digest"}.get(
                key, key)
            self.assertEqual(point[ours], row[key], key)
        self.assertEqual(point["p99_update_ns"], row["p99_update_ns"])
        self.assertEqual(set(pins), set(run.DEFAULT_SEEDS))


if __name__ == "__main__":
    unittest.main()
