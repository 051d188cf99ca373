"""Spans and counters recorded around the benchmark's calls into zwcalc.

A span is ``(name, item, parent, start, end)``: the layer call's name
(``<module>.<function>``), the item it belongs to (-1 during set-up), the
index of the enclosing span (the item span, or -1) and ``perf_counter``
readings.  Spans stay in memory and are written out once, after the run.
Calls are wrapped from outside the package, so layer spans never nest in
each other; a layer's self time is its span's duration and an item span's
self time is the benchmark's own work between the layer calls.

A disabled tracer adds one Python call per layer call and records nothing.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter
from typing import Any, Callable

ITEM_SPAN = "bench.item"


class Tracer:
    def __init__(self, enabled: bool, error_type: type[BaseException]) -> None:
        self.enabled = enabled
        self.error_type = error_type
        self.spans: list[tuple[str, int, int, float, float]] = []
        self.counts: Counter[str] = Counter()
        self._item = -1
        self._parent = -1

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn``; when enabled, record a span and count a raised error."""
        if not self.enabled:
            return fn(*args, **kwargs)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except self.error_type:
            self.counts[name.split(".", 1)[0] + ".failed"] += 1
            raise
        finally:
            self.spans.append((name, self._item, self._parent, start, perf_counter()))

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counts[name] += amount

    def begin_item(self, item: int) -> None:
        if self.enabled:
            self._item = item
            self._parent = len(self.spans)
            self.spans.append((ITEM_SPAN, item, -1, perf_counter(), 0.0))

    def end_item(self) -> None:
        if self.enabled:
            name, item, parent, start, _ = self.spans[self._parent]
            self.spans[self._parent] = (name, item, parent, start, perf_counter())
            self._item = -1
            self._parent = -1

    def self_times(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """Per span name: summed self time, call count and longest duration."""
        self_s: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        longest: dict[str, float] = {}
        for name, _item, parent, start, end in self.spans:
            duration = end - start
            self_s[name] += duration
            calls[name] += 1
            longest[name] = max(longest.get(name, 0.0), duration)
            if parent >= 0:
                self_s[self.spans[parent][0]] -= duration
        return dict(self_s), dict(calls), longest

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        origin = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, item, parent, start, end) in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": name,
                    "item": item,
                    "parent": parent,
                    "start_s": round(start - origin, 9),
                    "end_s": round(end - origin, 9),
                }
                out.write(json.dumps(record) + "\n")
