"""Tests of the benchmark's own arithmetic and of its input determinism.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the root of a checkout; the determinism tests build the runner
the way run.py does (under $CARGO_TARGET_DIR, default .bench_build).
"""

import os
import shutil
import subprocess
import unittest

import run


def spans_of(rows):
    """rows: (name, request, parent, start_us, end_us)."""
    keys = ("name", "request", "parent", "start_us", "end_us")
    return {k: [row[i] for row in rows] for i, k in enumerate(keys)}


class PercentileRuleTest(unittest.TestCase):
    def assert_ten_beyond(self, values, q):
        value, used = run.tail_percentile(values, q)
        self.assertGreaterEqual(sum(1 for v in values if v > value), run.MIN_BEYOND)
        # Nearest rank: the reported rank never exceeds ceil(q * n).
        self.assertLessEqual(used, q + 1.0 / len(values))
        return value, used

    def test_p99_kept_when_sized(self):
        values = list(range(1, 2001))
        value, used = self.assert_ten_beyond(values, 0.99)
        self.assertEqual(value, 1980)
        self.assertEqual(used, 0.99)

    def test_p99_lowered_when_short(self):
        values = list(range(1, 501))
        value, used = self.assert_ten_beyond(values, 0.99)
        self.assertEqual(value, 490)
        self.assertAlmostEqual(used, 0.98)

    def test_rule_holds_for_every_size(self):
        for n in range(11, 3000, 37):
            self.assert_ten_beyond([float(i) for i in range(n)], 0.99)

    def test_too_few_samples(self):
        self.assertEqual(run.tail_percentile(list(range(10)), 0.99), (0.0, 0.0))
        self.assertEqual(run.tail_percentile([], 0.5), (0.0, 0.0))

    def test_histogram_rule(self):
        # 1000 observations: 985 in the first bucket, 15 in the second.
        hist = {"bounds": [1.0, 2.0, 4.0], "buckets": [985, 15, 0, 0],
                "count": 1000, "sum": 0.0}
        self.assertEqual(run.hist_percentile(hist, 0.99), 2.0)
        self.assertEqual(run.hist_percentile(hist, 0.5), 1.0)
        # Only 12 observations: the rank drops to leave ten beyond.
        small = {"bounds": [1.0, 2.0], "buckets": [2, 10, 0], "count": 12, "sum": 0.0}
        self.assertEqual(run.hist_percentile(small, 0.99), 1.0)


class SelfTimeTest(unittest.TestCase):
    def test_overlapping_children_count_once(self):
        spans = spans_of([
            ("request", 1, -1, 0.0, 100.0),
            ("a", 1, 0, 10.0, 30.0),
            ("b", 1, 0, 20.0, 50.0),  # overlaps a
            ("c", 1, 0, 90.0, 120.0),  # runs past the parent: clipped
        ])
        own = run.self_times(spans)
        # Children cover [10, 50) and [90, 100): 50 of 100.
        self.assertAlmostEqual(own[0], 50.0)
        self.assertEqual(own[1:], [20.0, 30.0, 30.0])

    def test_grandchildren_count_against_their_parent_only(self):
        spans = spans_of([
            ("request", 1, -1, 0.0, 100.0),
            ("engine", 1, 0, 0.0, 60.0),
            ("core", 1, 1, 10.0, 40.0),
        ])
        self.assertEqual(run.self_times(spans), [40.0, 30.0, 30.0])

    def test_unattributed_share(self):
        spans = spans_of([
            ("request", 1, -1, 0.0, 100.0),
            ("engine", 1, 0, 0.0, 40.0),
            ("core", 1, 1, 30.0, 50.0),   # nested, reaches past engine
            ("request", 2, -1, 200.0, 300.0),
            ("engine", 2, 3, 250.0, 260.0),
            ("replay", 9, -1, 0.0, 1000.0),  # not a request: ignored
        ])
        # Request 1: [0, 50) covered -> 50 uncovered; request 2: 90.
        self.assertAlmostEqual(run.unattributed_frac(spans), 140.0 / 200.0)

    def test_span_groups_use_self_time(self):
        spans = spans_of([
            ("request", 7, -1, 0.0, 10.0),
            ("engine", 7, 0, 0.0, 4.0),
        ])
        self.assertEqual(run.span_groups(spans), {7: {"request": [6.0], "engine": [4.0]}})


class ServeLadderTest(unittest.TestCase):
    def phase(self, backlogged, p99_ms=None):
        rungs = len(run.SERVE_RATES)
        p99_ms = p99_ms or [1.0] * rungs
        values = {"saturated_answers": 150000.0, "saturated_s": 2.0, "bytes_per_char": 10.0}
        samples = {"setup_s": [0.3, 0.2, 0.4]}
        for k, rate in enumerate(run.SERVE_RATES):
            values.update({
                "rung%d.ok" % k: rate * 2.0, "rung%d.answer_s" % k: 2.0,
                "rung%d.sent" % k: 0.0 if any(backlogged[:k]) else rate * 2.0,
                "rung%d.backlogged" % k: backlogged[k], "rung%d.shed" % k: 0.0,
            })
            # 20000 samples a rung, one in 50 of them slow: 2% in every window.
            samples["latency_ms.rung%d" % k] = ([0.5] * 49 + [p99_ms[k]]) * 400
            samples["lag_ms.rung%d" % k] = [0.1] * 20000
        return {"values": values, "samples": samples}

    def test_backlogged_and_unsent_rungs_are_excluded(self):
        # The runner stops the ladder after rung 2, its first backlogged one.
        backlogged = [False, False, True] + [False] * (len(run.SERVE_RATES) - 3)
        rungs = run.serve_rungs(self.phase(backlogged))
        self.assertEqual([r["sent"] for r in rungs][:4], [True, True, True, False])
        e2e = run.end_to_end("serve-skewed", self.phase(backlogged))
        self.assertEqual(e2e["max_qps_under_slo"], run.SERVE_RATES[1])

    def test_rung_over_the_p99_limit_is_excluded(self):
        rungs = len(run.SERVE_RATES)
        p99 = [1.0] * (rungs - 1) + [run.SERVE_P99_LIMIT_MS * 2]
        e2e = run.end_to_end("serve-skewed", self.phase([False] * rungs, p99))
        self.assertEqual(e2e["max_qps_under_slo"], run.SERVE_RATES[-2])

    def test_latency_and_capacity(self):
        rungs = len(run.SERVE_RATES)
        e2e = run.end_to_end("serve-skewed", self.phase([False] * rungs))
        # Latency comes from the reference rung; qps is the saturated rate.
        self.assertEqual(e2e["p50_ms"], 0.5)
        self.assertEqual(e2e["p99_ms"], 1.0)
        self.assertEqual(e2e["qps"], 75000.0)
        self.assertEqual(e2e["setup_s"], 0.3)


@unittest.skipIf(shutil.which("cmake") is None, "cmake not available")
class DeterminismTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build(os.getcwd())

    def digest(self, workload, seed):
        out = subprocess.run(
            [self.binary, "--workload", workload, "--seed", str(seed),
             "--seconds", "2", "--inputs-hash"],
            check=True, capture_output=True, text=True)
        return out.stdout.strip()

    def test_same_seed_same_inputs_other_seed_different(self):
        for workload in run.WORKLOADS:
            first = self.digest(workload, 5)
            self.assertEqual(first, self.digest(workload, 5), workload)
            self.assertNotEqual(first, self.digest(workload, 6), workload)


if __name__ == "__main__":
    unittest.main()
