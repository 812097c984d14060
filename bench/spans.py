"""In-memory spans around the benchmark's calls into okkit's layers.

A span records its name, start, end, the index of the span that was open
when it started (its parent), and an optional sample id.  Spans stay in
a list until the pass ends; ``self_seconds`` is a span's duration minus
the time its direct children cover.  ``Off`` has the same interface and
records nothing, so untraced passes run the same code without spans.
"""

import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, sample=None):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "sample": sample}
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_seconds(self):
        """Self time of every span, in recording order."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def export(self):
        """The spans with their self time, ready for JSON."""
        return [dict(s, self=own) for s, own in zip(self.spans, self.self_seconds())]


class Off:
    def span(self, name, sample=None):
        return nullcontext({})

    def export(self):
        return []
