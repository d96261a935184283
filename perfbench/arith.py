"""The benchmark's own arithmetic: percentiles, summaries and the
open-loop latency bookkeeping.  Pure functions, no I/O, so
``perfbench/tests`` can pin every rule down."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: beyond it; below that the tail is a handful of points, not a
#: percentile.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    the closest ranks of the sorted sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi or ordered[lo] == ordered[hi]:
        return float(ordered[lo])
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the ``q``-th
    percentile: the whole part of count * (100 - q) / 100."""
    return math.floor(count * (100.0 - q) / 100.0 + 1e-9)


def supported(count: int, q: float, beyond: int = MIN_BEYOND) -> bool:
    """True when a sample of ``count`` leaves at least ``beyond``
    samples past the ``q``-th percentile."""
    return count > 0 and samples_beyond(count, q) >= beyond


def highest_supported(count: int,
                      candidates: Sequence[float] = (99.9, 99, 95, 90,
                                                     75, 50),
                      beyond: int = MIN_BEYOND) -> Optional[float]:
    """The highest candidate percentile the sample supports, or None."""
    for q in candidates:
        if supported(count, q, beyond):
            return q
    return None


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def geomean(values: Sequence[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return float("nan")
    return math.exp(sum(math.log(v) for v in values) / len(values))


# -- open loop ---------------------------------------------------------------

class Sample:
    """One open-loop request.  ``due`` is when the schedule says it is
    sent, ``picked`` when a connection became free and took it,
    ``sent`` when it went on the wire and ``done`` when its answer was
    read; all on one monotonic clock."""

    __slots__ = ("due", "picked", "sent", "done", "ok")

    def __init__(self, due: float, picked: float, sent: float,
                 done: float, ok: bool) -> None:
        self.due = due
        self.picked = picked
        self.sent = sent
        self.done = done
        self.ok = ok

    @property
    def latency(self) -> float:
        """Timed from the due time, so a stall also charges the
        requests queued behind it."""
        return self.done - self.due

    @property
    def lag(self) -> float:
        """How late the generator itself sent: the delay past the later
        of the due time and the moment a connection was free."""
        return max(0.0, self.sent - max(self.due, self.picked))


def backlog_max(samples: Sequence[Sample]) -> int:
    """Most requests that were due but not yet sent at any instant."""
    events: List[Tuple[float, int]] = []
    for s in samples:
        events.append((s.due, 1))
        events.append((s.sent, -1))
    # Sends sort before arrivals at the same instant: a request sent
    # exactly when due never waited.
    events.sort(key=lambda e: (e[0], e[1]))
    depth = peak = 0
    for _, step in events:
        depth += step
        peak = max(peak, depth)
    return peak


def backlog_grew(samples: Sequence[Sample], limit_ms: float) -> bool:
    """True when requests queued up for good: the median wait between
    due and send over the step's last quarter exceeds ``limit_ms``.
    A single slow request delays a few behind it, which the median
    ignores; a rate above capacity delays every later one more."""
    ordered = sorted(samples, key=lambda s: s.due)
    tail = ordered[len(ordered) * 3 // 4:] or ordered
    return median([(s.sent - s.due) * 1e3 for s in tail]) > limit_ms


def summarize_step(samples: Sequence[Sample], limit_ms: float,
                   q: float = 90.0) -> Dict[str, float]:
    """Latency summary of one open-loop step.  A failed request counts
    as missing the limit.  ``drained`` says the backlog did not grow
    (:func:`backlog_grew`)."""
    latencies = [s.latency * 1e3 if s.ok else math.inf for s in samples]
    finite = [x for x in latencies if math.isfinite(x)]
    p_q = percentile(latencies, q) if finite else math.inf
    return {
        "count": len(samples),
        "failed": sum(1 for s in samples if not s.ok),
        "p50_ms": percentile(latencies, 50),
        "p%g_ms" % q: p_q,
        "lag_ms": max(s.lag for s in samples) * 1e3,
        "backlog_max": backlog_max(samples),
        "drained": not backlog_grew(samples, limit_ms),
    }
