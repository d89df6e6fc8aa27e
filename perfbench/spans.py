"""In-memory span recorder for the traced benchmark run.

A span is one job of a pass, or one call into a public function of the
package: its name, start, end, the span that was open when it began (its
parent), and the pass it belongs to.  Spans stay in memory and are written
out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: str


class Recorder:
    """Records nested spans against a monotonic clock."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.pass_id = "setup"
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.pass_id))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._open.pop()

    def wrap(self, fn, name_of):
        """`fn` with a span around every call; `name_of(args, kwargs)`
        names the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name_of(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def instrument(self, module, names: dict) -> None:
        """Replace each named function of `module` by its traced version.

        `names` maps a function name to a span name or to a callable that
        derives the span name from the call's arguments.  Calls made through
        the module's globals, including calls between its own functions, then
        pass through the wrapper.
        """
        for fn_name, span_name in names.items():
            name_of = span_name if callable(span_name) else (
                lambda _a, _k, s=span_name: s)
            setattr(module, fn_name,
                    self.wrap(getattr(module, fn_name), name_of))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _covered(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list:
    """Per span: its duration minus the part of it that its children cover.
    Children may overlap one another; overlapped time is subtracted once."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        (s.end - s.start) - _covered(children[i], s.start, s.end)
        for i, s in enumerate(spans)
    ]
