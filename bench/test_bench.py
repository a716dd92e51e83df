"""Tests of the benchmark itself.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import json
import math
import os
import sys
import tempfile
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import measure  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, metric_units  # noqa: E402


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_byte_identical_inputs(self):
        first = json.dumps(workloads.query_inputs(bench.load_package(), 7))
        again = json.dumps(workloads.query_inputs(bench.load_package(), 7))
        other = json.dumps(workloads.query_inputs(bench.load_package(), 8))
        self.assertEqual(first, again)
        self.assertNotEqual(first, other)

    def test_every_stratum_is_filled_with_valid_pairs(self):
        inputs = workloads.query_inputs(bench.load_package(), 3)
        strata = (len(workloads.MODELS) * len(workloads.QUERY_QS)
                  * len(workloads.QUERY_DEGREES))
        self.assertEqual(len(inputs),
                         strata * workloads.QUERIES_PER_STRATUM)
        self.assertTrue(all(a != b for _s, _q, a, b in inputs))


class TailPercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(measure.tail_percentile(19))
        for n in (20, 30, 98, 256, 1000):
            p = measure.tail_percentile(n)
            self.assertGreaterEqual(n - math.ceil(p * n / 100), 10)
            if p < 99:
                self.assertLess(n - math.ceil((p + 1) * n / 100), 10)
        self.assertEqual(measure.tail_percentile(20), 50)
        self.assertEqual(measure.tail_percentile(98), 89)
        self.assertEqual(measure.tail_percentile(1000), 99)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(measure.percentile(values, 50), 50)
        self.assertEqual(measure.percentile(values, 90), 90)
        self.assertEqual(measure.percentile([3.0], 99), 3.0)

    def test_failed_op_counts_at_least_the_deadline(self):
        ok = measure.Sample("a", 0.5, 0.5, workloads.Outcome(1))
        bad = measure.Sample("b", 0.01, 0.01,
                               workloads.Outcome(0, "refused"))
        self.assertEqual(measure.latency_ms(ok, 2.0), 500.0)
        self.assertEqual(measure.latency_ms(bad, 2.0), 2000.0)


class DeadlineTest(unittest.TestCase):
    def test_busy_loop_becomes_a_failed_operation(self):
        def spin(pkg):
            while True:
                pass

        t0 = time.perf_counter()
        sample = measure.run_op(workloads.Op("spin", spin), {}, 0.2)
        self.assertLess(time.perf_counter() - t0, 2.0)
        self.assertIn("deadline", sample.outcome.error)
        self.assertFalse(sample.outcome.wrong)


class DigestGateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.pkg = bench.load_package()
        with open(bench.DIGESTS, encoding="utf-8") as fh:
            cls.digests = json.load(fh)
        bench.OUT.mkdir(exist_ok=True)
        cls.tmp = tempfile.TemporaryDirectory(dir=bench.OUT)
        cls.report = os.path.join(cls.tmp.name, "report.json")

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def cell(self, *extra):
        op = workloads.verify_cell("P2", 2, "chi", 0, self.report,
                                   self.digests, extra=extra)
        return measure.run_op(op, self.pkg, 10.0).outcome

    def test_clean_cell_passes(self):
        outcome = self.cell()
        self.assertIsNone(outcome.error)
        self.assertEqual(outcome.checks, 5)

    def test_injected_failure_is_a_wrong_failed_operation(self):
        outcome = self.cell("--inject-failure")
        self.assertEqual(outcome.checks, 0)
        self.assertIn("digest", outcome.error)
        self.assertTrue(outcome.wrong)


class TracerTest(unittest.TestCase):
    def test_traced_cell_reports_every_layer_metric(self):
        pkg = bench.load_package()
        tracer = Tracer(pkg)
        tracer.install()
        bench.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=bench.OUT) as tmp:
            op = workloads.verify_cell("P2", 3, "windows", 0,
                                       os.path.join(tmp, "r.json"), None)
            t0 = time.perf_counter()
            outcome = measure.run_op(op, pkg, 30.0).outcome
            wall = time.perf_counter() - t0
        self.assertIsNone(outcome.error)
        metrics = tracer.metrics()
        units = metric_units()
        units.pop("trace.overhead_ratio")
        self.assertEqual(set(metrics), set(units))
        self.assertEqual(metrics["cli.calls"], 1)
        self.assertGreater(metrics["surface.ambient_points_scanned"], 0)
        self_total = sum(metrics[f"{layer}.self_s"]
                         for layer in bench.LAYERS)
        self.assertLessEqual(self_total, wall)
        self.assertTrue(all(s[1] == 0 or s[1] < s[0]
                            for s in tracer.spans))


if __name__ == "__main__":
    unittest.main()
