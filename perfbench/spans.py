"""Span bookkeeping and name rules shared by run.py and its tests.

A span is a dict with `id`, `parent`, `name`, `run`, `start` and `end`
(nanoseconds since the Unix epoch). Ids are unique within one list;
parent 0 means a top-level span.
"""

import re
from collections import defaultdict

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def valid_name(name):
    """Metric names: letters, digits, `_`, `.` and `-`, at most 64."""
    return bool(NAME.fullmatch(name)) and len(name) <= 64 and name[0].isalnum()


def union_ns(intervals):
    """Total length covered by (start, end) intervals, overlaps counted once."""
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Seconds of self time per span name: each span's duration minus the
    union of its children's intervals (clipped to the span), so children
    that overlap on two worker threads are not subtracted twice."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    out = defaultdict(float)
    for s in spans:
        covered = union_ns(
            (max(c["start"], s["start"]), min(c["end"], s["end"])) for c in children[s["id"]]
        )
        out[s["name"]] += (s["end"] - s["start"] - covered) / 1e9
    return out


def durations(spans, name):
    """Inclusive durations in seconds of every span called `name`."""
    return [(s["end"] - s["start"]) / 1e9 for s in spans if s["name"] == name]


def from_rows(rows, offset):
    """Spans from the helper's `[id, parent, name, run, start, end]` rows,
    with span and run ids shifted by `offset` so several sources can share
    one list."""
    return [
        {
            "id": i + offset,
            "parent": p + offset if p else 0,
            "name": n,
            "run": r + offset if r else 0,
            "start": a,
            "end": b,
        }
        for i, p, n, r, a, b in rows
    ]
