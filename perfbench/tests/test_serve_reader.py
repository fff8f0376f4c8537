"""The wild5g_serve event-stream reader: a malformed or missing line is a
failed operation, never a crash or a hang."""

import os
import sys
import textwrap
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from pbench.serve import EventStream, ServeClient, parse_event, strip_id  # noqa: E402


def fake_service(script):
    """argv of a child that answers every request line with `script`'s lines
    (one list per request), after a hello line."""
    body = textwrap.dedent("""
        import sys
        replies = %r
        print('{"event":"hello"}', flush=True)
        for answer in replies:
            if not sys.stdin.readline():
                break
            for line in answer:
                print(line, flush=True)
        sys.stdin.read()
    """) % (script,)
    return [sys.executable, "-c", body]


FRAME = '{"event":"frame","id":"j","step":0,"payload":{}}'
CKPT = '{"event":"ckpt","id":"j","next_step":1}'


class ParseTest(unittest.TestCase):
    def test_only_objects_with_a_string_event_parse(self):
        self.assertEqual(parse_event('{"event":"bye"}'), {"event": "bye"})
        for bad in ['', 'not json', '[1, 2]', '{"event": 3}', '{"id":"j"}', '{"event":"x"']:
            self.assertIsNone(parse_event(bad), bad)

    def test_strip_id_blanks_only_that_job(self):
        self.assertEqual(strip_id(FRAME, "j"), FRAME.replace('"id":"j"', '"id":""'))
        self.assertEqual(strip_id(FRAME, "k"), FRAME)


class EventStreamTest(unittest.TestCase):
    def test_malformed_lines_are_counted_and_skipped(self):
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "wb") as out:
            out.write(b'{"event":"a"}\ngarbage\n{"event":\n{"event":"b"}\n')
        with os.fdopen(read_end, "rb") as pipe:
            stream = EventStream(pipe)
            self.assertEqual(stream.next(5.0).kind, "a")
            self.assertEqual(stream.next(5.0).kind, "b")
            self.assertIsNone(stream.next(5.0))  # EOF
            self.assertTrue(stream.ended)
            self.assertEqual(stream.malformed, ["garbage", '{"event":'])
            stream.join(5.0)

    def test_silence_times_out(self):
        read_end, write_end = os.pipe()
        with os.fdopen(read_end, "rb") as pipe:
            stream = EventStream(pipe)
            start = time.perf_counter()
            self.assertIsNone(stream.next(0.2))
            self.assertLess(time.perf_counter() - start, 5.0)
            self.assertFalse(stream.ended)
            os.close(write_end)
            self.assertIsNone(stream.next(5.0))
            self.assertTrue(stream.ended)
            stream.join(5.0)


class RunJobTest(unittest.TestCase):
    def run_one(self, replies, timeout_s=10.0):
        client = ServeClient(fake_service([replies]))
        self.assertIsNotNone(client.wait_for("hello", 10.0))
        try:
            return client, client.run_job({"op": "submit", "id": "j"}, timeout_s)
        finally:
            client.proc.kill()
            client.proc.wait()
            client.events.join(5.0)
            client.proc.stdout.close()
            client.proc.stdin.close()

    def test_complete_job_with_a_malformed_line(self):
        client, outcome = self.run_one([
            '{"event":"accepted","id":"j","start_step":0}', FRAME, "{oops", CKPT,
            '{"event":"done","id":"j","status":"completed"}',
            '{"event":"result","id":"j","document":{"metrics":{}}}'])
        self.assertTrue(outcome.ok, outcome.problem)
        self.assertEqual(outcome.frames, [FRAME])
        self.assertEqual(outcome.stream, [FRAME, CKPT])
        self.assertEqual(len(outcome.ckpt_gaps), 1)
        self.assertEqual(len(outcome.step_seconds()), 1)
        self.assertGreaterEqual(outcome.seconds, 0.0)
        self.assertEqual(client.events.malformed, ["{oops"])

    def test_stream_that_stops_early_fails_the_job(self):
        _, outcome = self.run_one(['{"event":"accepted","id":"j","start_step":0}', FRAME],
                                  timeout_s=0.5)
        self.assertFalse(outcome.ok)
        self.assertIn("no event in time", outcome.problem)

    def test_cancelled_job_is_not_ok(self):
        _, outcome = self.run_one([
            '{"event":"accepted","id":"j","start_step":0}',
            '{"event":"done","id":"j","status":"cancelled"}'])
        self.assertFalse(outcome.ok)
        self.assertIn("cancelled", outcome.problem)

    def test_service_error_fails_the_job(self):
        _, outcome = self.run_one(['{"event":"error","id":"j","message":"bad params"}'])
        self.assertFalse(outcome.ok)
        self.assertIn("bad params", outcome.problem)

    def test_child_that_exited_fails_the_job(self):
        client = ServeClient([sys.executable, "-c", "print('{\"event\":\"hello\"}')"])
        self.assertIsNotNone(client.wait_for("hello", 10.0))
        client.proc.wait()
        outcome = client.run_job({"op": "submit", "id": "j"}, 10.0)
        self.assertFalse(outcome.ok)
        self.assertFalse(client.close(timeout_s=5.0))


if __name__ == "__main__":
    unittest.main()
