"""In-memory span recorder for the traced benchmark run.

A span records one call the benchmark makes into a layer of the package:
its name, start and end (``time.perf_counter`` seconds), the span it ran
inside, and any counts the call returned.  All spans of one process share a
run id.  Nothing is written until :meth:`Tracer.write` is called at the end
of the run, so recording costs one object per span and no I/O.

While the tracer is disabled (untraced runs, and the untraced passes of a
traced run) ``span`` hands back a shared no-op object, so the timed code is
the same either way.
"""
from __future__ import annotations

import json
import time
from pathlib import Path


class Span:
    __slots__ = ("tracer", "id", "parent", "name", "start", "end", "attrs")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.id = len(tracer.spans)
        self.parent = tracer.stack[-1].id if tracer.stack else None
        self.start = 0.0
        self.end = 0.0

    def __enter__(self) -> "Span":
        tracer = self.tracer
        tracer.spans.append(self)
        tracer.stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self.tracer.stack.pop()

    def set(self, **attrs) -> None:
        self.attrs.update(attrs)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _NoSpan:
    """Stand-in returned when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set(self, **attrs) -> None:
        return None


_NO_SPAN = _NoSpan()


class Tracer:
    """Collects spans for one run; while ``enabled`` is false nothing is recorded."""

    def __init__(self, run_id: str, enabled: bool) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[Span] = []
        self.stack: list[Span] = []

    def span(self, name: str, **attrs):
        if not self.enabled:
            return _NO_SPAN
        return Span(self, name, attrs)

    def children(self) -> dict[int | None, list[Span]]:
        out: dict[int | None, list[Span]] = {}
        for sp in self.spans:
            out.setdefault(sp.parent, []).append(sp)
        return out

    def self_time(self, span: Span, children=None) -> float:
        """The span's duration minus the time its direct children cover."""
        kids = (children or self.children()).get(span.id, [])
        return span.duration - sum(kid.duration for kid in kids)

    def descendants(self, root: Span) -> list[Span]:
        kids = self.children()
        out: list[Span] = []
        todo = list(kids.get(root.id, []))
        while todo:
            sp = todo.pop()
            out.append(sp)
            todo.extend(kids.get(sp.id, []))
        out.sort(key=lambda sp: sp.id)
        return out

    def write(self, path: Path) -> None:
        """One JSON object per span, in start order."""
        kids = self.children()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": sp.id,
                            "parent": sp.parent,
                            "name": sp.name,
                            "start": sp.start,
                            "end": sp.end,
                            "self": self.self_time(sp, kids),
                            "attrs": sp.attrs,
                        }
                    )
                    + "\n"
                )
