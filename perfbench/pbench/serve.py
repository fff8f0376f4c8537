"""Client for wild5g_serve's line protocol: one JSON object per line each way.

The reader never blocks the benchmark forever and never raises on bad
input: a line that is not a JSON object with a string "event" is counted in
`malformed` and skipped, and a line that does not arrive in time (silence or
EOF) comes back as None, which the caller counts as a failed operation.
"""

import json
import os
import queue
import shutil
import subprocess
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Event:
    received: float  # clock reading when the line was read
    line: str  # the raw line, without its newline
    body: dict

    @property
    def kind(self):
        return self.body["event"]


def parse_event(raw):
    """The event in one raw line, or None when the line is malformed."""
    try:
        body = json.loads(raw)
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(body, dict) or not isinstance(body.get("event"), str):
        return None
    return body


class EventStream:
    """Reads lines from a binary pipe on a daemon thread, stamping each with
    the clock as it arrives."""

    def __init__(self, pipe, clock=time.perf_counter):
        self._queue = queue.Queue()
        self._clock = clock
        self.malformed = []
        self.ended = False
        self._thread = threading.Thread(target=self._pump, args=(pipe,), daemon=True)
        self._thread.start()

    def _pump(self, pipe):
        try:
            for raw in iter(pipe.readline, b""):
                self._queue.put((self._clock(), raw))
        except (OSError, ValueError):
            pass
        self._queue.put(None)

    def next(self, timeout_s):
        """The next well-formed event, or None on EOF or after `timeout_s`."""
        deadline = self._clock() + timeout_s
        while not self.ended:
            remaining = deadline - self._clock()
            if remaining <= 0:
                return None
            try:
                item = self._queue.get(timeout=remaining)
            except queue.Empty:
                return None
            if item is None:
                self.ended = True
                return None
            received, raw = item
            line = raw.decode("utf-8", errors="replace").rstrip("\r\n")
            body = parse_event(line)
            if body is None:
                self.malformed.append(line)
                continue
            return Event(received, line, body)
        return None

    def join(self, timeout_s):
        self._thread.join(timeout_s)


@dataclass
class JobOutcome:
    """What the wire showed for one job, submit to done."""
    job_id: str
    ok: bool = False
    problem: str = ""
    status: str = ""
    start_step: int = -1
    submitted: float = 0.0  # clock readings
    accepted: float = 0.0
    done: float = 0.0
    frames: list = field(default_factory=list)  # frame lines, in order
    frame_times: list = field(default_factory=list)
    stream: list = field(default_factory=list)  # frame and ckpt lines, in order
    ckpt_gaps: list = field(default_factory=list)  # (frame time, its ckpt time)
    result_line: str = ""
    result: dict = None

    @property
    def seconds(self):
        """Submit to done, as the client saw it."""
        return self.done - self.submitted

    def step_seconds(self):
        """Time from each frame (or from accepted, for the first) to the
        next frame: one step plus the previous step's checkpoint."""
        marks = [self.accepted] + self.frame_times
        return [b - a for a, b in zip(marks, marks[1:])]


def strip_id(line, job_id):
    """The line with this job's id blanked, so two jobs' streams compare."""
    return line.replace('"id":%s' % json.dumps(job_id), '"id":""', 1)


class ServeClient:
    """One wild5g_serve child process."""

    def __init__(self, argv, clock=time.perf_counter):
        self._clock = clock
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL)
        self.events = EventStream(self.proc.stdout, clock)

    def send(self, request):
        self.proc.stdin.write((json.dumps(request) + "\n").encode())
        self.proc.stdin.flush()

    def wait_for(self, kind, timeout_s):
        """Skips events until one of `kind` arrives; None if it does not."""
        deadline = self._clock() + timeout_s
        while True:
            event = self.events.next(max(0.0, deadline - self._clock()))
            if event is None or event.kind == kind:
                return event

    def run_job(self, request, timeout_s, on_ckpt=None):
        """Submits `request` and follows its events to `done` (and `result`
        for a finished job). Never raises on protocol trouble."""
        job_id = request["id"]
        outcome = JobOutcome(job_id)
        outcome.submitted = self._clock()
        deadline = outcome.submitted + timeout_s
        try:
            self.send(request)
        except OSError as exc:
            outcome.problem = "cannot send to the service: %s" % exc
            return outcome
        last_frame = None
        while True:
            event = self.events.next(max(0.0, deadline - self._clock()))
            if event is None:
                outcome.problem = "no event in time (EOF or silence)"
                return outcome
            body = event.body
            if body.get("id") not in (None, job_id):
                continue
            if event.kind == "error":
                outcome.problem = "service error: %s" % body.get("message")
                return outcome
            if event.kind == "accepted":
                outcome.start_step = int(body.get("start_step", -1))
                outcome.accepted = event.received
            elif event.kind == "frame":
                last_frame = event.received
                outcome.frames.append(event.line)
                outcome.frame_times.append(event.received)
                outcome.stream.append(event.line)
            elif event.kind == "ckpt":
                outcome.stream.append(event.line)
                if last_frame is not None:
                    outcome.ckpt_gaps.append((last_frame, event.received))
                if on_ckpt is not None:
                    on_ckpt(body)
            elif event.kind == "done":
                outcome.status = body.get("status", "")
                outcome.done = event.received
                if outcome.status != "completed":
                    outcome.problem = "job ended %s" % outcome.status
                    return outcome
            elif event.kind == "result":
                outcome.result_line = event.line
                outcome.result = body.get("document")
                outcome.ok = outcome.status == "completed"
                if not outcome.ok:
                    outcome.problem = "result before done"
                return outcome

    def peak_rss_kb(self):
        """The child's peak resident set (VmHWM), 0 when unreadable."""
        try:
            with open("/proc/%d/status" % self.proc.pid, encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    def close(self, timeout_s=20.0):
        """Asks the service to drain, then waits; kills it if it hangs.
        Returns True when it said bye and exited 0."""
        said_bye = False
        try:
            self.send({"op": "shutdown"})
            self.proc.stdin.close()
            said_bye = self.wait_for("bye", timeout_s) is not None
        except OSError:
            pass
        try:
            code = self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.events.join(timeout_s)
        self.proc.stdout.close()
        return said_bye and code == 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.close()
        return False


def link_or_copy(source, target):
    """Keeps the file now at `source` under `target`. A hard link is taken in
    one system call, before the service renames its next snapshot over
    `source`."""
    if os.path.exists(target):
        os.remove(target)
    try:
        os.link(source, target)
    except OSError:
        shutil.copyfile(source, target)
