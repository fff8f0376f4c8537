"""Self time of nested spans, span merging and the client-side recorder."""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from pbench import spans  # noqa: E402


def span(span_id, parent, name, ts, dur, request=-1):
    return {"name": name, "cat": name.split(".")[0], "ph": "X", "pid": 1, "tid": 1,
            "ts": ts, "dur": dur,
            "args": {"id": span_id, "parent": parent, "request": request}}


# abr.stream [0, 100) holds two decisions; each decision holds a predict.
NESTED = [
    span(0, -1, "abr.stream", 0.0, 100.0),
    span(1, 0, "abr.choose_track", 10.0, 30.0),
    span(2, 1, "abr.predict", 12.0, 5.0),
    span(3, 0, "abr.choose_track", 50.0, 40.0),
    span(4, 3, "abr.predict", 55.0, 15.0),
    span(5, -1, "traces.generate", 200.0, 7.0),
]


class SelfTimeTest(unittest.TestCase):
    def test_direct_children_are_subtracted_once(self):
        selves = spans.self_times(NESTED)
        self.assertEqual(selves[0], 100.0 - 30.0 - 40.0)
        self.assertEqual(selves[1], 25.0)
        self.assertEqual(selves[3], 25.0)
        self.assertEqual(selves[2], 5.0)
        self.assertEqual(selves[5], 7.0)

    def test_self_times_sum_to_top_level_time(self):
        self.assertAlmostEqual(sum(spans.self_times(NESTED).values()), 107.0)

    def test_layer_table_and_means(self):
        table = spans.layer_table(NESTED)
        self.assertEqual([name for _, name in table],
                         ["abr.stream", "abr.choose_track", "abr.predict", "traces.generate"])
        self.assertEqual(table[(1, "abr.choose_track")]["count"], 2)
        self.assertEqual(table[(1, "abr.choose_track")]["total_us"], 70.0)
        self.assertEqual(table[(1, "abr.choose_track")]["self_us"], 50.0)
        self.assertEqual(spans.mean_us(NESTED, "abr.choose_track", use_self=True), 25.0)
        self.assertEqual(spans.mean_us(NESTED, "abr.predict"), 10.0)
        self.assertEqual(spans.mean_us(NESTED, "ml.train"), 0.0)


class MergeTest(unittest.TestCase):
    def test_ids_stay_unique_and_parents_follow(self):
        extra = [span(0, -1, "serve.job", 0.0, 10.0), span(1, 0, "serve.ckpt_gap", 1.0, 2.0)]
        merged = spans.merge(NESTED, extra, pid=2)
        ids = [e["args"]["id"] for e in merged]
        self.assertEqual(len(ids), len(set(ids)))
        gap = merged[-1]
        self.assertEqual(gap["args"]["parent"], merged[-2]["args"]["id"])
        self.assertEqual(gap["pid"], 2)
        self.assertEqual(spans.self_times(merged)[merged[-2]["args"]["id"]], 8.0)


class RecorderTest(unittest.TestCase):
    def test_nesting_and_timestamps(self):
        recorder = spans.Recorder(origin=100.0)
        job = recorder.open("serve.job", 0, 100.0)
        recorder.add("serve.ckpt_gap", 100.5, 100.75, 0)
        recorder.close(job, 102.0)
        job_event, gap_event = recorder.events
        self.assertEqual(job_event["ts"], 0.0)
        self.assertEqual(job_event["dur"], 2e6)
        self.assertEqual(gap_event["args"]["parent"], job_event["args"]["id"])
        self.assertEqual(spans.self_times(recorder.events)[0], 2e6 - 0.25e6)

    def test_out_of_order_close_is_an_error(self):
        recorder = spans.Recorder(origin=0.0)
        outer = recorder.open("a", -1, 0.0)
        recorder.open("b", -1, 1.0)
        with self.assertRaises(ValueError):
            recorder.close(outer, 2.0)


if __name__ == "__main__":
    unittest.main()
