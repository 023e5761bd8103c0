"""Tests for the benchmark's statistics and span arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import ledger
import run


def span(start, dur, name, tid=0, it=0):
    return (it, tid, start, dur, name)


class PercentileRuleTest(unittest.TestCase):
    def test_ten_samples_beyond_is_the_minimum(self):
        self.assertEqual(ledger.samples_beyond(200, 95.0), 10)
        self.assertEqual(ledger.percentile(range(1, 201), 95.0), 190)
        self.assertEqual(ledger.samples_beyond(199, 95.0), 9)
        self.assertIsNone(ledger.percentile(range(1, 200), 95.0))

    def test_reported_value_has_ten_larger_samples(self):
        for n, p in ((20, 50.0), (100, 90.0), (201, 95.0), (1000, 99.0),
                     (10000, 99.9)):
            values = list(range(n))
            x = ledger.percentile(values, p)
            self.assertIsNotNone(x)
            self.assertGreaterEqual(sum(1 for v in values if v > x), 10)

    def test_higher_percentiles_need_more_samples(self):
        self.assertIsNone(ledger.percentile(range(999), 99.0))
        self.assertIsNotNone(ledger.percentile(range(1000), 99.0))
        self.assertIsNone(ledger.percentile(range(99), 90.0))
        self.assertIsNotNone(ledger.percentile(range(100), 90.0))

    def test_median(self):
        self.assertEqual(ledger.median([3, 1, 2]), 2)
        self.assertEqual(ledger.median([4, 1, 2, 3]), 2.5)
        self.assertEqual(ledger.median([]), 0.0)


class SelfTimeTest(unittest.TestCase):
    def self_of(self, spans):
        return [s for _, _, s in ledger.self_times(spans)]

    def test_nested_chain_subtracts_direct_children_only(self):
        spans = [span(0, 100, "a"), span(10, 50, "b"), span(20, 10, "c")]
        self.assertEqual(self.self_of(spans), [50, 40, 10])

    def test_siblings_both_subtract_from_the_parent(self):
        spans = [span(0, 100, "a"), span(10, 20, "b"), span(40, 30, "c")]
        self.assertEqual(self.self_of(spans), [50, 20, 30])

    def test_input_order_does_not_matter(self):
        spans = [span(40, 30, "c"), span(10, 20, "b"), span(0, 100, "a")]
        self.assertEqual(self.self_of(spans), [30, 20, 50])

    def test_equal_start_longer_span_is_the_parent(self):
        spans = [span(0, 10, "child"), span(0, 30, "parent")]
        self.assertEqual(self.self_of(spans), [10, 20])

    def test_threads_and_iterations_do_not_nest(self):
        spans = [span(0, 100, "a", tid=0), span(10, 50, "b", tid=1),
                 span(10, 50, "c", tid=0, it=1)]
        self.assertEqual(self.self_of(spans), [100, 50, 50])

    def test_a_span_after_its_sibling_ends_is_not_its_child(self):
        spans = [span(0, 100, "a"), span(0, 40, "b"), span(40, 60, "c")]
        self.assertEqual(self.self_of(spans), [0, 40, 60])

    def test_aggregate_folds_instances_and_splits_rounds(self):
        spans = [span(0, 100, "outliner.round:1"),
                 span(10, 30, "outliner.map"),
                 span(100, 50, "outliner.round:2"),
                 span(110, 20, "outliner.map"),
                 span(200, 5, "pipeline.module:core")]
        agg = ledger.aggregate(ledger.self_times(spans))
        self.assertEqual(agg["outliner.map"], (2, 50, 50))
        self.assertEqual(agg["outliner.round"], (2, 150, 100))
        self.assertEqual(agg["outliner.round1"], (1, 100, 70))
        self.assertEqual(agg["outliner.later_rounds"], (1, 50, 30))
        self.assertEqual(agg["pipeline.module"], (1, 5, 5))

    def test_layer_self_time(self):
        spans = [span(0, 100, "api.buildProgram"),
                 span(0, 80, "pipeline.build"),
                 span(10, 60, "outliner.map"),
                 span(0, 40, "fleet.device", tid=1),
                 span(0, 10, "api.programContentDigest", tid=2)]
        layers = ledger.layer_self_ns(ledger.self_times(spans))
        self.assertEqual(layers["pipeline"], 20 + 20)
        self.assertEqual(layers["outliner"], 60)
        self.assertEqual(layers["sim"], 40)
        self.assertEqual(sum(layers.values()), 140)

    def test_parse_spans_keeps_names_with_spaces(self):
        spans = ledger.parse_spans(["3 1 10 20 daemon.request:a b\n"])
        self.assertEqual(spans, [(3, 1, 10, 20, "daemon.request:a b")])


class PinTest(unittest.TestCase):
    def runner_output(self, workload, seed):
        pinned = run.load_pins()[workload][str(seed)]
        return {"checks": {"oracle": True}, "spans_dropped": 0,
                "digests": dict(pinned["digests"]),
                "counters": dict(pinned["counters"], **{"unpinned": 7})}

    def test_pinned_outputs_pass(self):
        d = self.runner_output("wp-outline", 1)
        self.assertEqual(run.check_outputs(d, "wp-outline", 1), [])

    def test_a_changed_digest_or_input_fails(self):
        d = self.runner_output("wp-outline", 1)
        d["digests"]["artifact_digest"] = "0" * 32
        self.assertTrue(run.check_outputs(d, "wp-outline", 1))
        d = self.runner_output("fleet-bp", 2)
        d["digests"]["fleet_verify_digest"] = "0" * 16
        self.assertTrue(run.check_outputs(d, "fleet-bp", 2))
        d = self.runner_output("pm-cache", 3)
        d["counters"]["synth.instrs"] += 1
        self.assertTrue(run.check_outputs(d, "pm-cache", 3))

    def test_less_work_for_the_same_output_passes(self):
        d = self.runner_output("wp-outline", 1)
        d["counters"]["outliner.patterns_considered"] = 1
        d["counters"]["cache.bytes_written"] = 1
        self.assertEqual(run.check_outputs(d, "wp-outline", 1), [])

    def test_seeds_0_to_19_are_pinned(self):
        pins = run.load_pins()
        for workload in run.WORKLOADS:
            self.assertEqual(sorted(map(int, pins[workload])),
                             list(range(20)))


class SpeedScaleTest(unittest.TestCase):
    def test_a_slower_probe_scales_times_down_by_the_same_factor(self):
        ref = run.PROBE_REF_MS
        d = {"samples": {"probe_ms": [ref * 1.2, ref * 1.25, ref * 1.3],
                         "traced.probe_ms": [ref / 2],
                         "op_cpu_ms": [100.0, 125.0, 150.0],
                         "setup_s": [2.5]},
             "values": {}}
        self.assertAlmostEqual(run.speed_scale(d), 0.8)
        self.assertAlmostEqual(run.speed_scale(d, "traced."), 2.0)
        e2e = run.end_to_end(d)
        self.assertAlmostEqual(e2e["op_ref_ms"], 100.0)
        self.assertAlmostEqual(e2e["setup_s"], 2.0)

    def test_no_probe_leaves_times_as_measured(self):
        self.assertEqual(run.speed_scale({"samples": {}}), 1.0)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_lists_what_run_py_prints(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
