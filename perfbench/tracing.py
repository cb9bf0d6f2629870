"""In-memory spans around the benchmark's calls into the program.

A span has a name, start, end, parent span and request id.  Spans are
kept in memory and written out once, after the timed loop.  A span's self
time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import collections
import itertools
import json
import os
import time


class Tracer:
    def __init__(self) -> None:
        self._span_ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        self.spans: list[tuple] = []
        self.slice_ends: list[int] = []

    def new_request(self) -> int:
        return next(self._request_ids)

    def open(self, name: str, request: int, parent: int | None = None) -> list:
        return [next(self._span_ids), parent, request, name, time.perf_counter()]

    def close(self, span: list) -> int:
        end = time.perf_counter()
        span_id, parent, request, name, start = span
        # list.append is atomic, so client threads can share one tracer.
        self.spans.append((span_id, parent, request, name, start, end))
        return span_id

    def call(self, name: str, request: int, parent: int | None, fn, *args):
        """``fn(*args)`` inside a span; returns its result."""
        span = self.open(name, request, parent)
        result = fn(*args)
        self.close(span)
        return result

    def end_slice(self) -> None:
        """Mark the spans recorded so far as one slice of the timed loop."""
        self.slice_ends.append(len(self.spans))

    def self_seconds(self, factors: list[float]) -> dict[str, list[float]]:
        """Self time of every span, grouped by span name.

        Spans of slice ``k`` are scaled by ``factors[k]``, the host-speed
        factor of that slice.
        """
        children = collections.defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                children[parent] += end - start
        by_name = collections.defaultdict(list)
        first = 0
        for last, factor in zip(self.slice_ends, factors):
            for span_id, _, _, name, start, end in self.spans[first:last]:
                by_name[name].append(factor * (end - start - children[span_id]))
            first = last
        return by_name

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, request, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "request": request,
                         "name": name, "start": start, "end": end}
                    )
                    + "\n"
                )
