"""Tests of the serve_mix request stream and the percentile rule.

    python3 perfbench/test_reqstream.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reqstream  # noqa: E402


class StreamTest(unittest.TestCase):
    def test_same_seed_same_lines(self):
        a = reqstream.RequestStream(7).lines(5000)
        b = reqstream.RequestStream(7).lines(5000)
        self.assertEqual(a, b)
        self.assertNotEqual(a, reqstream.RequestStream(8).lines(5000))

    def test_same_seed_same_schedule(self):
        def rows(seed):
            s = reqstream.RequestStream(seed)
            return (reqstream.phase_schedule(s, "a", 1000, 2.0, 0.0)
                    + reqstream.phase_schedule(s, "b", 4000, 0.5, 3.0))
        self.assertEqual(rows(3), rows(3))

    def test_mix_shares(self):
        lines = reqstream.RequestStream(42).lines(40000)
        self.assertEqual(lines[:reqstream.HERD], list(reqstream.HERD_LINES))
        rest = lines[reqstream.HERD:]
        sections = sum(reqstream.is_section(x) for x in rest) / len(rest)
        self.assertAlmostEqual(sections, reqstream.SECTION_SHARE, delta=0.01)
        predicates = [x for x in rest if not reqstream.is_section(x)]
        self.assertEqual(len(predicates), len(set(predicates)))
        n = len(predicates)
        counts = sum(x.endswith("--count") for x in predicates) / n
        heavy = sum(reqstream.is_heavy(x) for x in predicates) / n
        self.assertAlmostEqual(counts, reqstream.COUNT_SHARE, delta=0.015)
        self.assertAlmostEqual(heavy, reqstream.HEAVY_SHARE, delta=0.005)

    def test_heavy_share_clears_p99(self):
        # A phase of MIN_SAMPLES requests must hold more heavy listings
        # than the ten samples beyond its p99, or p99 falls off them.
        stream = reqstream.RequestStream(11)
        stream.lines(reqstream.HERD)
        for _ in range(50):
            phase = stream.lines(1000)
            self.assertGreater(sum(map(reqstream.is_heavy, phase)), 10)

    def test_predicates_stay_distinct_across_phases(self):
        s = reqstream.RequestStream(5)
        lines = s.lines(3000) + s.lines(3000)
        predicates = [x for x in lines if not reqstream.is_section(x)]
        self.assertEqual(len(predicates), len(set(predicates)))

    def test_schedule_is_open_loop(self):
        stream = reqstream.RequestStream(1)
        first = reqstream.phase_schedule(stream, "p", 500, 2.0, 10.0)
        second = reqstream.phase_schedule(stream, "q", 500, 2.0, 13.0)
        self.assertEqual(len(first), 1000)
        herd = first[:reqstream.HERD]
        self.assertTrue(all(due == 10.0 for due, _, _ in herd))
        self.assertEqual([line for _, _, line in herd],
                         list(reqstream.HERD_LINES))
        for rows, start in ((first[reqstream.HERD:], 10.0), (second, 13.0)):
            self.assertEqual(rows[0][0], start)
            gaps = [b[0] - a[0] for a, b in zip(rows, rows[1:])]
            self.assertTrue(all(abs(g - 1 / 500) < 1e-9 for g in gaps))

    def test_lines_within_study_window(self):
        for line in reqstream.RequestStream(9).lines(2000):
            if reqstream.is_section(line):
                continue
            tok = line.split()
            since = int(tok[tok.index("--since") + 1])
            until = int(tok[tok.index("--until") + 1])
            self.assertLessEqual(reqstream.WINDOW_START, since)
            self.assertLess(since, until)
            self.assertLessEqual(until, reqstream.WINDOW_END)


class PercentileTest(unittest.TestCase):
    def test_p99_needs_ten_beyond(self):
        self.assertIsNone(reqstream.percentile_with_tail(range(999), 99.0))
        values = list(range(1, 1001))
        self.assertEqual(reqstream.percentile_with_tail(values, 99.0), 990)

    def test_highest_percentile(self):
        self.assertEqual(reqstream.highest_percentile(range(1, 10001)),
                         (99.9, 9990))
        self.assertEqual(reqstream.highest_percentile(range(1, 1001)),
                         (99.0, 990))
        self.assertEqual(reqstream.highest_percentile(range(1, 201)),
                         (95.0, 190))
        self.assertEqual(reqstream.highest_percentile(range(1, 21)),
                         (50.0, 10))
        self.assertIsNone(reqstream.highest_percentile(range(10)))

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 3.0] * 400
        self.assertEqual(reqstream.percentile_with_tail(values, 50.0), 3.0)


if __name__ == "__main__":
    unittest.main()
