"""Spans around the public functions of each layer, from outside the program.

`Tracer.wrap` returns a wrapper that records one span per call: (id, name,
start, end, parent, question id, info). The parent is the innermost open
span of the same thread, and the question id is set by the outermost span
of each question. `Patches` swaps wrappers into the module namespaces that
look the functions up at call time and puts the originals back afterwards.

Spans stay in memory and are written out once, when the run ends. A span's
self time is its duration minus the part of it that its child spans cover;
the self times of all spans under one question add up to that question's
duration, which `layer_self_times` relies on.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, NamedTuple


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    qid: str | None
    info: Any


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    def wrap(self, name: str, fn: Callable,
             info: Callable[[tuple, dict, Any], Any] | None = None,
             qid_of: Callable[[tuple, dict], str] | None = None) -> Callable:
        local = self._local
        spans = self.spans
        ids = self._ids

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            outer_qid = getattr(local, "qid", None)
            if qid_of is not None:
                local.qid = qid_of(args, kwargs)
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                detail = info(args, kwargs, result) if info and result is not None else None
                spans.append(Span(sid, name, start, end, parent,
                                  getattr(local, "qid", None), detail))
                local.qid = outer_qid

        traced.__wrapped__ = fn
        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.sid, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "question": s.qid}) + "\n")


class Patches:
    """Module attributes replaced for a while, then restored in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the union of child intervals, per span id."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out: dict[int, float] = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.sid] = s.end - s.start - covered
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Summed self time per layer (the span name's first component)."""
    selfs = self_times(spans)
    totals: dict[str, float] = {}
    for s in spans:
        layer = s.name.split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + selfs[s.sid]
    return totals
