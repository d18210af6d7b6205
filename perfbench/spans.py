"""In-memory spans around the benchmark's calls into riskctl.

A span's name is ``<layer>.<function>[.<detail>]``; the layer is the
text before the first dot.  Spans nest through a stack, so a layer's
self time is its spans' durations minus the time their child spans
cover.  Nothing here reaches inside riskctl: spans sit at the call
boundary in the benchmark's own code.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter_ns
from typing import Any, Callable


class NullTracer:
    """Tracing off: ``call`` is a plain call."""

    def call(self, name: str, fn: Callable, *args, **kwargs) -> Any:
        return fn(*args, **kwargs)


class Span:
    __slots__ = ("name", "start", "end", "parent", "error", "attrs", "child_ns")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.start = self.end = 0
        self.parent = parent
        self.error = False
        self.attrs: dict[str, float] = {}
        self.child_ns = 0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def ns(self) -> int:
        return self.end - self.start


class Tracer:
    """Records one span per ``call``.

    ``extractors`` maps a span name to ``f(args, kwargs, result) -> dict``
    of counts derived from the call (states, horizon, bytes); they run
    only while tracing, after the span has ended.
    """

    def __init__(self, extractors: dict[str, Callable] | None = None):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._extractors = extractors or {}

    def call(self, name: str, fn: Callable, *args, **kwargs) -> Any:
        index = len(self.spans)
        span = Span(name, self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        self._stack.append(index)
        span.start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.error = True
            raise
        finally:
            span.end = perf_counter_ns()
            self._stack.pop()
            if span.parent >= 0:
                self.spans[span.parent].child_ns += span.ns
        extract = self._extractors.get(name)
        if extract is not None:
            span.attrs.update(extract(args, kwargs, result))
        return result

    # -- aggregation -------------------------------------------------------

    def named(self, prefix: str) -> list[Span]:
        """Spans called ``prefix`` or ``prefix.<detail>``, failed ones included."""
        return [s for s in self.spans if s.name == prefix or s.name.startswith(prefix + ".")]

    def last(self, name: str) -> Span:
        return next(s for s in reversed(self.spans) if s.name == name)

    def median_us(self, prefix: str) -> float | None:
        spans = self.named(prefix)
        return statistics.median(s.ns / 1e3 for s in spans) if spans else None

    def median_of(self, prefix: str, fn: Callable[[Span], float], key: str = "") -> float | None:
        """Median of ``fn(span)`` over the spans that carry attribute ``key``."""
        values = [fn(s) for s in self.named(prefix) if not key or key in s.attrs]
        return statistics.median(values) if values else None

    def errors_by_layer(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for s in self.spans:
            if s.error:
                out[s.layer] += 1
        return out

    def self_share(self, root_prefix: str) -> dict[str, float]:
        """Each layer's self time as a share of the spans named ``root_prefix*``.

        Only spans under those roots count, so probes made outside the
        workload's ops do not dilute the shares.
        """
        inside = [False] * len(self.spans)
        total = 0
        by_layer: dict[str, int] = defaultdict(int)
        for i, s in enumerate(self.spans):
            if s.parent < 0:
                inside[i] = s.name.startswith(root_prefix)
                if inside[i]:
                    total += s.ns
            else:
                inside[i] = inside[s.parent]
            if inside[i]:
                by_layer[s.layer] += s.ns - s.child_ns
        return {layer: ns / total for layer, ns in by_layer.items()} if total else {}
