"""Chrome trace-event spans: reading, merging and per-layer self time.

Every span is a complete ("ph": "X") event whose args carry its own id and
its parent's id (-1 at the top), so nesting never depends on rounding of
the timestamps.
"""

import json
from collections import OrderedDict


def load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["traceEvents"]


def self_times(events):
    """Maps each span id to its duration minus the durations of its direct
    children (all in the events' unit, microseconds)."""
    child_total = {}
    for event in events:
        parent = event["args"]["parent"]
        if parent >= 0:
            child_total[parent] = child_total.get(parent, 0.0) + event["dur"]
    return {
        event["args"]["id"]: event["dur"] - child_total.get(event["args"]["id"], 0.0)
        for event in events
    }


def layer_table(events):
    """Per (process, span name): call count, total and self microseconds, in
    first-seen order."""
    selves = self_times(events)
    table = OrderedDict()
    for event in events:
        row = table.setdefault((event["pid"], event["name"]),
                               {"count": 0, "total_us": 0.0, "self_us": 0.0})
        row["count"] += 1
        row["total_us"] += event["dur"]
        row["self_us"] += selves[event["args"]["id"]]
    return table


def mean_us(events, name, use_self=False):
    """Mean duration (or self time) of spans called `name`; 0.0 when there
    are none."""
    selves = self_times(events) if use_self else None
    values = [selves[e["args"]["id"]] if use_self else e["dur"]
              for e in events if e["name"] == name]
    return sum(values) / len(values) if values else 0.0


def merge(events, extra, pid):
    """Appends `extra` spans (ids local to `extra`) after `events`,
    renumbering ids and parents so they stay unique, under process `pid`."""
    offset = 1 + max((e["args"]["id"] for e in events), default=-1)
    merged = list(events)
    for event in extra:
        copy = dict(event)
        args = dict(copy["args"])
        args["id"] += offset
        if args["parent"] >= 0:
            args["parent"] += offset
        copy["args"] = args
        copy["pid"] = pid
        merged.append(copy)
    return merged


def write(path, events):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"displayTimeUnit": "ms", "traceEvents": events}, handle)


class Recorder:
    """Spans recorded by the Python side (the service client) from clock
    readings taken as events arrived, in the event shape the C++ runner writes.
    Timestamps count from `origin`."""

    def __init__(self, origin):
        self._origin = origin
        self.events = []
        self._open = []

    def open(self, name, request, start):
        span_id = len(self.events)
        self.events.append({
            "name": name, "cat": name.split(".")[0], "ph": "X", "pid": 2, "tid": 1,
            "ts": (start - self._origin) * 1e6, "dur": 0.0,
            "args": {"id": span_id, "parent": self._open[-1] if self._open else -1,
                     "request": request},
        })
        self._open.append(span_id)
        return span_id

    def close(self, span_id, end):
        if not self._open or self._open[-1] != span_id:
            raise ValueError("spans closed out of order")
        self._open.pop()
        event = self.events[span_id]
        event["dur"] = (end - self._origin) * 1e6 - event["ts"]

    def add(self, name, start, end, request=-1):
        """Records a closed span nested in the innermost open one."""
        self.close(self.open(name, request, start), end)
