"""In-memory spans around the benchmark's calls into sboxkit.

A span has a name, start, end, parent span and run id.  The first dotted
component of a span name is its layer (`metrics.compute_lat` belongs to
`metrics`); a layer's self time is its spans' durations minus the time
their child spans cover.  Spans are kept in memory and written out once,
when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or None]
        self._open = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str, since: int = 0) -> list[float]:
        return [end - start for n, start, end, _ in self.spans[since:] if n == name]

    def self_times(self, since: int = 0) -> dict[str, float]:
        """Self time per layer over the spans recorded from index `since` on."""
        covered = defaultdict(float)
        for _, start, end, parent in self.spans[since:]:
            if parent is not None:
                covered[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans[since:], start=since):
            out[name.split(".", 1)[0]] += end - start - covered[i]
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"run": self.run_id, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


class NullTracer:
    """Drop-in for Tracer in untraced runs: every span is a no-op."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null
