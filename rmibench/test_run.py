"""Tests for run.py's aggregation over processes and spread.py's spread.

    python3 -m unittest discover -s rmibench -p 'test_*.py'
"""
import unittest

import run
import spread


def result(correct, attempted, failed, **metrics):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": "us"} for k, v in metrics.items()}}


class MiddleMean(unittest.TestCase):
    def test_drops_the_outer_quarters(self):
        # 12 values: the 3 lowest and 3 highest go, 4..9 remain.
        self.assertEqual(run.middle_mean([12, 1, 11, 2, 10, 3, 9, 4, 8, 5, 7, 6]), 6.5)

    def test_ignores_one_stray_process(self):
        self.assertEqual(run.middle_mean([20, 20, 20, 500]), 20)

    def test_small_counts_keep_everything(self):
        self.assertEqual(run.middle_mean([3]), 3)
        self.assertEqual(run.middle_mean([2, 4, 9]), 5)

    def test_moves_smoothly_between_two_speed_groups(self):
        # A median jumps from one group to the other; this mean does not.
        self.assertEqual(run.middle_mean([38] * 6 + [46] * 6), 42)
        self.assertEqual(run.middle_mean([38] * 7 + [46] * 5), 40 + 2 / 3)


class Combine(unittest.TestCase):
    def test_sums_counts_and_requires_every_process_correct(self):
        out = run.combine([result(True, 256, 0, rmi_p50_us=20.0),
                           result(False, 512, 1, rmi_p50_us=22.0)])
        self.assertFalse(out["correct"])
        self.assertEqual(out["attempted"], 768)
        self.assertEqual(out["failed"], 1)
        self.assertEqual(out["metrics"]["rmi_p50_us"], {"value": 21.0, "unit": "us"})


class Spread(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        # quantiles([1..10], n=4) = [2.75, 5.5, 8.25]; (8.25 - 2.75) / 5.5
        self.assertAlmostEqual(spread.spread(list(range(1, 11))), 1.0)
        self.assertAlmostEqual(spread.spread([10, 10, 10, 11]), 0.075)

    def test_identical_runs_have_no_spread(self):
        self.assertEqual(spread.spread([51.5] * 10), 0.0)


if __name__ == "__main__":
    unittest.main()
