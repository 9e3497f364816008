"""In-memory span recorder for the traced benchmark run.

Spans are recorded around the benchmark's own calls into ``regionrec``;
nothing inside the program is instrumented.  Each span has a name, start and
end (seconds since the tracer was made), the id of its parent span, the
sample it belongs to, and optional counters.  Spans stay in memory and are
written as JSON lines only when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class _NullSpan:
    """Reusable no-op context for the untraced run."""

    def __enter__(self):
        return {}

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    enabled = False
    sample = None

    def span(self, name: str, **counters):
        return _NULL_SPAN


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self.sample = None  # id of the sample new spans belong to
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, **counters):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "sample": self.sample,
            **counters,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter() - self._t0
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._t0
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def duration_ms(record: dict) -> float:
    return (record["end"] - record["start"]) * 1000.0
