"""Span recording for the traced runs.

A span is (name, start, end, parent, request id).  The recorder keeps
spans in flat arrays while the program runs and pickles them when it
ends; :func:`self_times` turns them into per-name totals afterwards.
A span's self time is its duration minus the part of that interval
its child spans cover.
"""

from __future__ import annotations

import pickle
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterable, List, Sequence, Tuple


class Recorder:
    """In-memory span store.  Single-threaded: spans nest by call
    order, so the open span on top of the stack is the parent."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.req = array("i")
        self.request = -1
        #: counters recorded beside the spans (e.g. engine statistics)
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.req.append(self.request)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        opened, closed = self._open, self._close

        def traced(*args, **kwargs):
            sid = opened(name)
            try:
                return fn(*args, **kwargs)
            finally:
                closed(sid)

        traced.__wrapped__ = fn
        return traced

    def spans(self) -> List[Tuple[str, float, float, int, int]]:
        return [(self.names[n], s, e, p, r) for n, s, e, p, r in
                zip(self.name, self.start, self.end, self.parent,
                    self.req)]

    def dump(self, path: str) -> None:
        with open(path, "wb") as handle:
            pickle.dump({"names": self.names, "name": self.name,
                         "start": self.start, "end": self.end,
                         "parent": self.parent, "req": self.req,
                         "counts": self.counts},
                        handle, protocol=pickle.HIGHEST_PROTOCOL)


def load(path: str) -> Tuple[List[Tuple[str, float, float, int, int]],
                             Dict[str, float]]:
    """Spans and counters written by :meth:`Recorder.dump` (a file this
    benchmark's own child process wrote)."""
    with open(path, "rb") as handle:
        data = pickle.load(handle)
    names = data["names"]
    spans = [(names[n], s, e, p, r) for n, s, e, p, r in
             zip(data["name"], data["start"], data["end"], data["parent"],
                 data["req"])]
    return spans, data["counts"]


def covered(intervals: Iterable[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Tuple[str, float, float, int, int]]
               ) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``total`` seconds and ``self``
    seconds (duration minus the coverage of its children)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: Dict[str, Dict[str, float]] = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        duration = end - start
        kids = children.get(index)
        own = duration - (covered(kids, start, end) if kids else 0.0)
        cell = out.get(name)
        if cell is None:
            cell = out[name] = {"calls": 0, "total": 0.0, "self": 0.0}
        cell["calls"] += 1
        cell["total"] += duration
        cell["self"] += own
    return out
