"""In-memory spans around the benchmark's calls into the program.

A span is (id, name, start, end, parent).  Spans are kept in memory and
written once, at the end of a traced run, as Chrome trace-event JSON
that Perfetto (ui.perfetto.dev) and chrome://tracing open directly.
Timestamps come from ``time.monotonic_ns``, which is one system-wide
clock on Linux, so spans recorded in child processes line up with the
parent's on one timeline.

A disabled recorder hands out a shared no-op context and stores
nothing: untraced runs take no spans.
"""

from __future__ import annotations

import contextlib
import json
import os
import time

__all__ = ["Spans", "write_chrome_trace"]

_NO_SPAN = contextlib.nullcontext()


class Spans:
    """Records nested spans for one process."""

    def __init__(self, enabled: bool, root_parent: str | None = None):
        self.enabled = enabled
        self.records: list[dict] = []
        self._stack: list[str | None] = [root_parent]
        self._pid = os.getpid()

    def span(self, name: str):
        """Context manager timing one call; a no-op when disabled."""
        if not self.enabled:
            return _NO_SPAN
        return self._record(name)

    @contextlib.contextmanager
    def _record(self, name: str):
        span_id = f"{self._pid}:{len(self.records)}"
        record = {"id": span_id, "name": name, "parent": self._stack[-1],
                  "pid": self._pid, "start_ns": time.monotonic_ns()}
        self.records.append(record)
        self._stack.append(span_id)
        try:
            yield span_id
        finally:
            self._stack.pop()
            record["end_ns"] = time.monotonic_ns()


def write_chrome_trace(path: str, records: list[dict]) -> None:
    """Write *records* (from any number of processes) as trace events."""
    origin = min((r["start_ns"] for r in records), default=0)
    events = [
        {
            "name": r["name"],
            "ph": "X",
            "ts": (r["start_ns"] - origin) / 1e3,
            "dur": (r["end_ns"] - r["start_ns"]) / 1e3,
            "pid": r["pid"],
            "tid": r["pid"],
            "args": {"id": r["id"], "parent": r["parent"]},
        }
        for r in records
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
