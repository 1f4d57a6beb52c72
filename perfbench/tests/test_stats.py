"""Unit tests for the benchmark's own statistics, checks and verdicts.

    python3 -m unittest discover -s perfbench/tests
"""

import statistics
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_highest_percentile_leaving_ten_beyond(self):
        self.assertEqual(stats.max_tail_percentile(200), 95.0)
        self.assertEqual(stats.max_tail_percentile(1000), 99.0)
        self.assertAlmostEqual(stats.max_tail_percentile(240), 95.8333333,
                               places=6)

    def test_too_few_samples_have_no_tail(self):
        self.assertIsNone(stats.max_tail_percentile(10))
        self.assertIsNone(stats.max_tail_percentile(3))

    def test_p95_of_200_leaves_exactly_ten_beyond(self):
        values = list(range(1, 201))
        self.assertEqual(stats.percentile(values, 95), 190)
        self.assertEqual(sum(v > 190 for v in values), 10)
        self.assertLess(stats.max_tail_percentile(199), 95.0)

    def test_nearest_rank(self):
        self.assertEqual(stats.percentile([5, 1, 3], 50), 3)
        self.assertEqual(stats.percentile([4, 1, 3, 2], 50), 2)
        self.assertEqual(stats.percentile([7], 95), 7)
        self.assertEqual(stats.percentile([1, 2, 3, 4], 100), 4)


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_known_values(self):
        q1, med, q3 = stats.quartiles([1, 2, 3, 4, 5, 6, 7])
        self.assertEqual((q1, med, q3), (2, 4, 6))

    def test_single_value(self):
        self.assertEqual(stats.quartiles([2.5]), (2.5, 2.5, 2.5))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(stats.spread([1, 2, 3, 4, 5, 6, 7]), 1.0)
        self.assertEqual(stats.spread([3, 3, 3]), 0.0)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.quartiles([])


class WinFractionTest(unittest.TestCase):
    def test_ties_count_for_neither_side(self):
        base = [10, 10, 10, 10]
        head = [9, 10, 11, 10]
        self.assertEqual(stats.win_fraction(base, head, "lower"), 0.25)
        self.assertEqual(stats.win_fraction(base, head, "higher"), 0.25)

    def test_direction(self):
        base = [1.0, 2.0, 3.0]
        head = [2.0, 3.0, 4.0]
        self.assertEqual(stats.win_fraction(base, head, "higher"), 1.0)
        self.assertEqual(stats.win_fraction(base, head, "lower"), 0.0)

    def test_needs_pairs(self):
        with self.assertRaises(ValueError):
            stats.win_fraction([1, 2], [1], "lower")
        with self.assertRaises(ValueError):
            stats.win_fraction([], [], "lower")
        with self.assertRaises(ValueError):
            stats.win_fraction([1], [1], "sideways")


def span(id_, parent, name, start, end):
    return {"id": id_, "parent": parent, "name": name, "start": start,
            "end": end}


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        spans = [span(0, -1, "core.step", 1.0, 3.5)]
        self.assertEqual(stats.self_times(spans), {0: 2.5})

    def test_children_are_subtracted(self):
        spans = [
            span(0, -1, "bench.window", 0.0, 10.0),
            span(1, 0, "core.step", 1.0, 4.0),
            span(2, 0, "telemetry.fleet_telemetry", 4.0, 5.0),
            span(3, 1, "mem.kstaled", 2.0, 3.0),
        ]
        selfs = stats.self_times(spans)
        self.assertAlmostEqual(selfs[0], 6.0)
        self.assertAlmostEqual(selfs[1], 2.0)  # grandchild only hits 1
        self.assertAlmostEqual(selfs[2], 1.0)
        self.assertAlmostEqual(selfs[3], 1.0)

    def test_overlapping_children_count_once(self):
        spans = [
            span(0, -1, "core.step", 0.0, 10.0),
            span(1, 0, "a", 1.0, 5.0),
            span(2, 0, "b", 3.0, 6.0),
        ]
        self.assertAlmostEqual(stats.self_times(spans)[0], 5.0)

    def test_child_outside_parent_is_clipped(self):
        spans = [
            span(0, -1, "core.step", 2.0, 4.0),
            span(1, 0, "late", 3.0, 9.0),
        ]
        self.assertAlmostEqual(stats.self_times(spans)[0], 1.0)

    def test_by_name(self):
        spans = [
            span(0, -1, "bench.window", 0.0, 4.0),
            span(1, 0, "core.step", 0.0, 1.0),
            span(2, 0, "core.step", 1.0, 3.0),
        ]
        by_name = stats.self_time_by_name(spans)
        self.assertEqual(by_name["core.step"], [1.0, 2.0])
        self.assertEqual(by_name["bench.window"], [1.0])


class VerdictTest(unittest.TestCase):
    def test_regression_beyond_bound(self):
        base = [100, 101, 99, 100, 100]
        head = [130, 131, 129, 130, 130]
        v, wins, worse_by = compare.verdict(base, head, "lower", 0.1)
        self.assertEqual(v, "regression")
        self.assertEqual(wins, 0.0)
        self.assertAlmostEqual(worse_by, 0.3)

    def test_noisy_pairing_is_unresolved(self):
        base = [50, 100, 150, 100, 70, 130]
        head = [60, 90, 140, 110, 80, 120]
        v, _, _ = compare.verdict(base, head, "lower", 0.1)
        self.assertEqual(v, "unresolved")

    def test_gain_needs_nine_tenths_of_pairs(self):
        base = [10.0 + 0.1 * i for i in range(10)]
        head = [b * 1.1 for b in base]
        v, wins, _ = compare.verdict(base, head, "higher", 0.1)
        self.assertEqual((v, wins), ("gain", 1.0))
        head[0] = base[0]
        head[1] = base[1]
        v, wins, _ = compare.verdict(base, head, "higher", 0.1)
        self.assertEqual((v, wins), ("no change", 0.8))


class TracedChecksTest(unittest.TestCase):
    """A traced window of 4 steps, the last 2 traced, 100 accesses each."""

    def traced(self, counts):
        raw = {"checks_attempted": 0, "checks_failed": [], "window_steps": 4,
               "step_ms": [1.0, 1.0], "traced_step_ms": [1.0, 1.0],
               "counters": {"machine.accesses": 400}}
        spans = [dict(span(i, -1, "core.step", i, i + 1),
                      counts={"machine.accesses": c} if c else {})
                 for i, c in enumerate(counts)]
        return run.checks(raw, spans, trace=1)

    def test_per_step_counts_pass(self):
        self.assertEqual(self.traced([0, 0, 100, 100]), (3, []))

    def test_counts_spanning_earlier_steps_fail(self):
        # The first traced step also took in the two plain steps.
        _, failed = self.traced([0, 0, 300, 100])
        self.assertEqual(failed, ["span_counts_one_step"])

    def test_missing_counts_fail(self):
        _, failed = self.traced([0, 0, 0, 100])
        self.assertEqual(failed, ["span_step_counts"])


if __name__ == "__main__":
    unittest.main()
