"""In-memory span recording around the package's public functions.

The tracer wraps functions from outside the package: each wrapped call
records a span (name, start, end, parent span, operation id, error flag and
optional counters).  Because `gaussclone.cli` and `gaussclone.simulate`
import functions by name, installing a wrapper re-binds the function in
every loaded `gaussclone` module that holds the same object.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    error: bool = False
    counters: dict = field(default_factory=dict)


class Tracer:
    """Collects spans for calls made while it is installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, counters: dict | None = None):
        """Record the enclosed block as a span; an exception marks it failed."""
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent=parent, op=self.op,
                    counters=counters or {})
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        except BaseException:
            span.error = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name_of, counters_of=None):
        """Return `fn` wrapped so each call records a span.

        `name_of(args, kwargs)` gives the span name and `counters_of`, when
        given, the counters recorded with it.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counters = counters_of(args, kwargs) if counters_of else None
            with self.span(name_of(args, kwargs), counters):
                return fn(*args, **kwargs)

        return traced

    def install(self, targets):
        """Wrap each (module, function name, name_of, counters_of) target.

        A function the module does not define is skipped, so the benchmark
        keeps running when a later version removes it; its counts read 0.
        """
        for module_name, func_name, name_of, counters_of in targets:
            module = sys.modules[module_name]
            original = getattr(module, func_name, None)
            if original is None:
                continue
            wrapped = self.wrap(original, name_of, counters_of)
            for loaded in list(sys.modules.values()):
                loaded_name = getattr(loaded, "__name__", "")
                if loaded_name != "gaussclone" and not loaded_name.startswith("gaussclone."):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, attr, wrapped)
                        self._restore.append((loaded, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total self time and summed counters."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span, self_s in zip(self.spans, self.self_times()):
            entry = out[span.name]
            entry["calls"] += 1
            entry["self_s"] += self_s
            for key, value in span.counters.items():
                entry[key] += value
        return out

    def failing_layer(self, op: int) -> str | None:
        """Layer of the innermost span of operation `op` that raised."""
        failing = [s for s in self.spans if s.op == op and s.error]
        if not failing:
            return None
        return failing[-1].name.split(".", 1)[0]

    def to_json(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "op": s.op,
                "error": s.error,
                **({"counters": s.counters} if s.counters else {}),
            }
            for s in self.spans
        ]

