"""In-memory spans around calls into projeval's modules, taken from outside.

A `Tracer` replaces a function attribute of a module with a timing wrapper,
so every call that looks the name up through that module records a span:
`wrap(harness, "random_chain", "instances.random_chain")` times exactly the
calls the harness makes into the instances layer. Spans are appended to a
list and written out only when the benchmark ends; `restore()` puts every
original function back.

A span is (parent, root, name, start, end); its id is its index. The root
is the outermost span of the operation, so spans of one operation share it.
"""

from __future__ import annotations

import csv
import sys
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list = []

    def _enter(self) -> tuple[int, int, int]:
        sid = len(self.spans)
        self.spans.append(None)
        stack = self._stack
        parent = stack[-1] if stack else -1
        root = stack[0] if stack else sid
        stack.append(sid)
        return sid, parent, root

    def _leave(self, sid, parent, root, name, t0, t1):
        self._stack.pop()
        self.spans[sid] = (parent, root, name, t0, t1)

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        """Time every call of `owner.attr`; `hook(root, args, result)` may count."""
        fn = getattr(owner, attr, None)
        if fn is None:
            print(f"trace: {owner.__name__}.{attr} not found, not traced",
                  file=sys.stderr)
            return
        enter, leave = self._enter, self._leave

        def traced(*args, **kwargs):
            sid, parent, root = enter()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(sid, parent, root, name, t0, perf_counter())
            if hook is not None:
                hook(root, args, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, fn))

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "root", "name", "start_s", "end_s"])
            for sid, (parent, root, name, t0, t1) in enumerate(self.spans):
                writer.writerow([sid, parent, root, name, f"{t0:.9f}", f"{t1:.9f}"])


class _Span:
    __slots__ = ("tracer", "name", "ids", "t0")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.ids = self.tracer._enter()
        self.t0 = perf_counter()
        return self.ids[0]

    def __exit__(self, *exc):
        t1 = perf_counter()
        sid, parent, root = self.ids
        self.tracer._leave(sid, parent, root, self.name, self.t0, t1)
        return False


class SpanStats:
    """Per-name totals over a finished span list.

    `busy(*names)` does not count a span nested in another of the named
    spans, so a layer calling itself is not counted twice; `self_time(name)`
    is a span's duration minus that of its direct children.
    """

    def __init__(self, spans: list):
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        for parent, _, _, t0, t1 in spans:
            if parent >= 0:
                self.child_time[parent] += t1 - t0

    def count(self, *names: str) -> int:
        wanted = set(names)
        return sum(1 for s in self.spans if s[2] in wanted)

    def total(self, *names: str) -> float:
        wanted = set(names)
        return sum(t1 - t0 for _, _, name, t0, t1 in self.spans if name in wanted)

    def busy(self, *names: str) -> float:
        """Time in the named spans, not counting one nested in another of them."""
        wanted = set(names)
        total = 0.0
        for parent, _, name, t0, t1 in self.spans:
            if name in wanted and (parent < 0 or self.spans[parent][2] not in wanted):
                total += t1 - t0
        return total

    def self_time(self, name: str) -> float:
        return sum(t1 - t0 - self.child_time[sid]
                   for sid, (_, _, n, t0, t1) in enumerate(self.spans) if n == name)
