"""In-memory spans recorded by the benchmark around its calls into etnorm.

A span is [name, trace id, parent index, start, end]; the spans of one
line (or one eval pass) share a trace id. Spans stay in memory and are
written out once, at the end of the run, with each layer's self time.
"""

from __future__ import annotations

import json
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._trace = 0

    def new_trace(self) -> None:
        self._trace += 1

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self._trace, parent, time.perf_counter(), 0.0])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self) -> None:
        self.spans[self._stack.pop()][4] = time.perf_counter()

    def call(self, name: str, fn, *args):
        self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end()

    def duration(self, index: int) -> float:
        _, _, _, start, end = self.spans[index]
        return end - start

    def self_times(self) -> dict[str, tuple[int, float]]:
        """layer -> (span count, self seconds); the layer is the span name
        up to the first dot, and self time excludes child spans."""
        children = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out: dict[str, tuple[int, float]] = {}
        for i, (name, _, _, start, end) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            count, total = out.get(layer, (0, 0.0))
            out[layer] = (count + 1, total + (end - start) - children[i])
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, trace, parent, start, end) in enumerate(self.spans):
                handle.write(json.dumps({"id": i, "trace": trace, "parent": parent, "name": name,
                                         "start": start, "end": end}) + "\n")
            summary = {layer: {"spans": n, "self_s": s} for layer, (n, s) in self.self_times().items()}
            handle.write(json.dumps({"self_times": summary}) + "\n")
