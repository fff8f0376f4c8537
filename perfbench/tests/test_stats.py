"""Percentile rank, the ten-beyond rule, and best-of-repeats."""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from pbench import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7.0], 99), 7.0)

    def test_order_of_input_does_not_matter(self):
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 40), 2)

    def test_rejects_empty_and_bad_rank(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1], 0)

    def test_low_is_minimum_below_ten_samples(self):
        self.assertEqual(stats.low([3.0, 1.0, 2.0]), 1.0)
        self.assertEqual(stats.low(list(range(1, 101))), 10)


class TenBeyondRuleTest(unittest.TestCase):
    def test_beyond_counts_samples_above_the_rank(self):
        self.assertEqual(stats.beyond(1000, 99), 10)
        self.assertEqual(stats.beyond(999, 99), 9)
        self.assertEqual(stats.beyond(120, 90), 12)

    def test_rank_needs_ten_beyond(self):
        self.assertTrue(stats.tail_rank_ok(1000, 99))
        self.assertFalse(stats.tail_rank_ok(999, 99))
        self.assertTrue(stats.tail_rank_ok(100, 90))
        self.assertFalse(stats.tail_rank_ok(99, 90))


class BestPerPositionTest(unittest.TestCase):
    def test_takes_each_positions_minimum(self):
        samples = [5, 1, 9,   4, 2, 8,   6, 3, 7]  # three passes of three
        self.assertEqual(stats.best_per_position(samples, 3), [4, 1, 7])

    def test_rejects_uneven_passes(self):
        with self.assertRaises(ValueError):
            stats.best_per_position([1, 2, 3], 2)

    def test_quartile_spread(self):
        self.assertAlmostEqual(stats.quartile_spread([10.0] * 5), 0.0)
        self.assertGreater(stats.quartile_spread([8, 9, 10, 11, 12]), 0.0)


if __name__ == "__main__":
    unittest.main()
