"""Host-speed gauges: the benchmark's times are scaled to a reference
host speed.

On a shared host each vCPU runs the same code at one of two speeds,
about 1.6 times apart, and flips between them every few seconds as
other tenants come and go; how often it is slow drifts over minutes.
Medians within a run of 20 seconds cannot average that out.  So every
workload pins the harness and the program to one vCPU (:func:`pin`),
reads a gauge on it just before and just after each timed job (an
invocation, an analysis, a served request), and multiplies the job's
time by the gauge's reference time over the mean of the two readings
(:func:`factors`).  A vCPU running slow moves the reading and the job
alike and cancels out; a change to the program cannot move the
reading, so it moves the scaled figure in full.

Each gauge is this file's own code and never imports the program, and
each resembles the job it scales:

* :func:`unit_reading`, in process, for analyses and served requests:
  :func:`unit` allocates small objects, hashes tuples into a memo
  dict, sorts and formats strings and round-trips JSON, the
  interpreter's work inside the analyzer.  Pinned next to warm
  in-process analyses, their times grew as this reading to the power
  0.75 to 1.1 across the two speeds.
* :func:`process_reading`, for CLI invocations and every ``setup_s``:
  a fresh interpreter that imports some of the standard library and
  runs :func:`unit` once, as a fresh CLI process spends about half its
  time starting.  Pinned, a one-shot CLI run grew as the in-process
  reading to the power 0.54 only, and over nine runs the spread of
  the scaled time of a pass of six CLI invocations was 0.03 with this
  gauge against 0.08 with the in-process one and 0.15 unscaled.

    python3 perfbench/speed.py unit     # what process_reading runs
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import subprocess
import sys
import time
from typing import List, Sequence

#: What one :func:`unit` takes at the reference speed.
REF_UNIT_S = 0.010
#: What one :func:`process` takes at the reference speed.
REF_PROCESS_S = 0.150
#: Units per in-process reading; a reading is their median.
UNITS = 3


class _Node:
    __slots__ = ("key", "kids")

    def __init__(self, key: int, kids: tuple) -> None:
        self.key = key
        self.kids = kids


def _build(depth: int, key: int) -> _Node:
    if depth == 0:
        return _Node(key, ())
    return _Node(key, tuple(_build(depth - 1, key * 3 + i)
                            for i in range(3)))


def _walk(node: _Node, memo: dict) -> int:
    found = memo.get(node.key)
    if found is None:
        found = hash((node.key, tuple(_walk(k, memo) for k in node.kids)))
        memo[node.key % 4099] = found
    return found


def unit() -> float:
    """Run the fixed unit of work once; returns its seconds."""
    start = time.perf_counter()
    _walk(_build(7, 1), {})
    rows = sorted(("%05d" % (k * 7919 % 10007), k) for k in range(4000))
    json.loads(json.dumps({"rows": rows}))
    return time.perf_counter() - start


def unit_reading(units: int = UNITS) -> float:
    """In-process reading: the median seconds of ``units`` units.  The
    cyclic garbage collector is off meanwhile: in a process holding
    the analyzer's heap, a collection the unit's allocations set off
    took longer than the unit, and the unit frees all it allocates."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(unit() for _ in range(units))
    finally:
        if enabled:
            gc.enable()


def process_reading() -> float:
    """Fresh-process reading: the wall seconds of ``python3 speed.py
    unit``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, os.path.abspath(__file__), "unit"],
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                   check=True, timeout=60)
    return time.perf_counter() - start


def smoothed(readings: Sequence[float]) -> List[float]:
    """Each reading replaced by the median of itself and its two
    neighbours, so one disturbed reading does not rescale the jobs
    beside it (single readings up to 2.5 times the others' were seen)."""
    return [statistics.median(readings[max(0, i - 1):i + 2])
            for i in range(len(readings))]


def factors(readings: Sequence[float], ref: float) -> List[float]:
    """Scale factors for the jobs timed between consecutive readings:
    ``ref`` over the mean of the smoothed readings on either side."""
    smooth = smoothed(readings)
    return [ref / ((a + b) / 2.0) for a, b in zip(smooth, smooth[1:])]


def pin(pids: Sequence[int] = ()) -> int:
    """Pin this process, every process it starts from now on and every
    thread of the running processes ``pids`` to the lowest-numbered
    vCPU this process may run on; returns that vCPU."""
    cpu = min(os.sched_getaffinity(0))
    for pid in pids:
        for tid in os.listdir("/proc/%d/task" % pid):
            try:
                os.sched_setaffinity(int(tid), {cpu})
            except ProcessLookupError:  # the thread has just ended
                pass
    os.sched_setaffinity(0, {cpu})
    return cpu


class Gauge:
    """Readings of one gauge, taken between timed jobs (never during
    one).  ``scale(before, after)`` turns a job's seconds measured
    between two readings into seconds at the reference speed."""

    def __init__(self, kind: str = "unit") -> None:
        self.read_once = unit_reading if kind == "unit" else process_reading
        self.ref = REF_UNIT_S if kind == "unit" else REF_PROCESS_S
        self.readings: List[float] = []

    def read(self) -> float:
        value = self.read_once()
        self.readings.append(value)
        return value

    def scale(self, before: float, after: float) -> float:
        return self.ref / ((before + after) / 2.0)

    def median_ms(self) -> float:
        return statistics.median(self.readings) * 1e3


def _standard_library_startup() -> None:
    import argparse  # noqa: F401
    import dataclasses  # noqa: F401
    import decimal  # noqa: F401
    import email.parser  # noqa: F401
    import logging  # noqa: F401
    import typing  # noqa: F401


if __name__ == "__main__":
    if sys.argv[1:] != ["unit"]:
        sys.exit("usage: speed.py unit")
    _standard_library_startup()
    unit()
