"""Span recorder for the traced benchmark run.

Spans are recorded around the benchmark's own calls into each layer of the
program (scenario generation, graph construction, routing, service,
protocols).  Each span carries a name, start and end times, the span that
was open when it started, and an optional query id shared by the spans of
one query.  Counts are recorded at the same boundaries.  Everything stays
in memory until :meth:`Tracer.write` is called at the end of the run.

With tracing off, :meth:`Tracer.span` returns one shared no-op context
manager, so the untraced run pays a method call per boundary and nothing
else.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import nullcontext
from pathlib import Path
from typing import Any

_NULL = nullcontext()


class _Span:
    __slots__ = ("_tracer", "_name", "_qid", "_index")

    def __init__(self, tracer: "Tracer", name: str, qid: int | None) -> None:
        self._tracer = tracer
        self._name = name
        self._qid = qid
        self._index = -1

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        parent = tracer._stack[-1] if tracer._stack else None
        self._index = len(tracer.spans)
        tracer.spans.append(
            {
                "id": self._index,
                "name": self._name,
                "start": time.perf_counter(),
                "end": None,
                "parent": parent,
                "qid": self._qid,
            }
        )
        tracer._stack.append(self._index)
        return self

    def __exit__(self, *exc: object) -> None:
        tracer = self._tracer
        tracer.spans[self._index]["end"] = time.perf_counter()
        tracer._stack.pop()


class Tracer:
    """In-memory spans and counts; a no-op when ``enabled`` is false."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict[str, Any]] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def span(self, name: str, qid: int | None = None):
        """Context manager timing one call into a layer."""
        if not self.enabled:
            return _NULL
        return _Span(self, name, qid)

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the named counter."""
        if self.enabled:
            self.counts[name] += value

    # -- analysis --------------------------------------------------------------
    def self_times(self) -> dict[str, list[float]]:
        """Span name -> self time of each span, in seconds.

        A span's self time is its duration minus the part of its interval
        that its child spans cover (overlapping children counted once).
        """
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for sp in self.spans:
            if sp["parent"] is not None:
                children[sp["parent"]].append((sp["start"], sp["end"]))
        out: dict[str, list[float]] = defaultdict(list)
        for sp in self.spans:
            covered = 0.0
            cursor = sp["start"]
            for start, end in sorted(children.get(sp["id"], ())):
                start = max(start, cursor)
                if end > start:
                    covered += end - start
                    cursor = end
            out[sp["name"]].append(sp["end"] - sp["start"] - covered)
        return dict(out)

    def write(self, path: Path) -> None:
        """Write every span, then the counts, as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp, sort_keys=True) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}, sort_keys=True) + "\n")
