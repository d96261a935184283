"""Open-loop request generator over the service's newline-delimited
JSON protocol (stdlib sockets only, so the harness never imports the
program).

Each connection is driven by its own process (``python loadgen.py JOB
OUT``), so reading one large response never delays the other
connection's send or receive.  Request ``i`` of a schedule goes to
connection ``i % connections``; a request whose due time passes while
its connection is busy waits, and that wait is part of its latency.
A request is done when the last byte of its answer is read; the
answers are decoded and checked once the whole schedule has run, so
the check neither adds to a latency nor takes CPU from the program
while it is measured.  All processes share the system-wide monotonic
clock, so due times are absolute ``time.perf_counter()`` values.

With ``"gauge": true`` in its job the generator also reads the
in-process host-speed gauge (speed.py) while its connection idles, at
most every ``GAUGE_EVERY`` seconds: in an open loop only when the next
request is not due for ``GAUGE_ROOM`` seconds, so a reading never
delays a send; in a closed loop (``"closed": true``, every request due
at once) between two requests, where no request is timed.  Each row
then carries the factor that scales its times to the reference speed,
from the readings just before and just after it."""

from __future__ import annotations

import bisect
import hashlib
import json
import socket
import sys
import time
from typing import List, Optional, Sequence, Tuple

import speed

#: Least time between two gauge readings, and the idle time a reading
#: needs before the next request is due (a reading takes 20 to 35 ms).
GAUGE_EVERY = 0.25
GAUGE_ROOM = 0.05


class Conn:
    """One blocking nd-JSON connection."""

    def __init__(self, host: str, port: int, timeout: float = 120.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")
        self.next_id = 0

    def exchange(self, op: str, **fields) -> bytes:
        """Send one request; returns its response line undecoded."""
        self.next_id += 1
        message = dict(fields, id=self.next_id, op=op)
        self.sock.sendall((json.dumps(message) + "\n").encode())
        line = self.rfile.readline()
        if not line.endswith(b"\n"):
            raise ConnectionError("connection closed mid-response")
        return line

    def request(self, op: str, **fields) -> Tuple[dict, int]:
        """Send one request; returns the decoded response and its size
        in bytes on the wire."""
        line = self.exchange(op, **fields)
        return json.loads(line), len(line)

    def close(self) -> None:
        try:
            self.rfile.close()
        finally:
            self.sock.close()


#: Result fields that differ from one correct answer to the next.
VOLATILE = ("cached", "coalesced", "seconds")


def canonical(result: dict) -> bytes:
    """``result`` without its per-request fields (and without the
    payload's measured ``cpu_time``) as canonical JSON: the same bytes
    for every correct answer to one request."""
    body = {k: v for k, v in result.items() if k not in VOLATILE}
    payload = body.get("payload")
    if isinstance(payload, dict) and isinstance(payload.get("stats"), dict):
        body["payload"] = dict(payload, stats={
            k: v for k, v in payload["stats"].items() if k != "cpu_time"})
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


def judge(item: dict, response: dict) -> Tuple[bool, dict, int]:
    """Returns (correct, result, canonical size).  ``item["expect"]``
    holds result fields the answer must carry; ``item["digest"]``, once
    the untimed warm-up has recorded and verified it, is the SHA-256 of
    the whole canonical answer, payload included."""
    if not response.get("ok"):
        return False, {}, 0
    result = response["result"]
    body = canonical(result)
    ok = all(result.get(k) == v for k, v in item["expect"].items())
    if item.get("digest") is not None:
        ok = ok and hashlib.sha256(body).hexdigest() == item["digest"]
    return ok, result, len(body)


def answer(conn: Conn, item: dict) -> Tuple[bool, dict, int]:
    """One ``analyze`` or ``check`` request, judged."""
    response, _ = conn.request(item["op"], **item["fields"])
    return judge(item, response)


def drive(address: Tuple[str, int], items: Sequence[dict],
          gauge: bool = False, closed: bool = False) -> List[list]:
    """Send ``items`` (each with an absolute ``due`` time) over one
    connection; returns one row per item: [index, due, picked, sent,
    done, ok, cached, server seconds, scale]."""
    rows, lines = [], []
    readings: List[Tuple[float, float]] = []
    conn: Optional[Conn] = None
    if gauge:
        readings.append((time.perf_counter(), speed.unit_reading(2)))
    try:
        for item in items:
            now = time.perf_counter()
            if (gauge and now - readings[-1][0] > GAUGE_EVERY
                    and (closed or item["due"] - now > GAUGE_ROOM)):
                readings.append((now, speed.unit_reading(2)))
            picked = time.perf_counter()
            if item["due"] > picked:
                time.sleep(item["due"] - picked)
            sent = time.perf_counter()
            line = b""
            try:
                if conn is None:
                    conn = Conn(*address)
                line = conn.exchange(item["op"], **item["fields"])
            except (OSError, ConnectionError):
                if conn is not None:
                    conn.close()
                conn = None
            rows.append([item["index"], item["due"], picked, sent,
                         time.perf_counter()])
            lines.append(line)
    finally:
        if conn is not None:
            conn.close()
    if gauge:
        readings.append((time.perf_counter(), speed.unit_reading(2)))
        readings = list(zip([t for t, _ in readings],
                            speed.smoothed([r for _, r in readings])))
    for row, item, line in zip(rows, items, lines):
        try:
            response = json.loads(line) if line else {}
        except ValueError:
            response = {}
        ok, result, _ = judge(item, response)
        row.extend([ok, bool(result.get("cached")),
                    float(result.get("seconds", 0.0)),
                    scale_at(readings, row[3], row[4]) if gauge else 1.0])
    return rows


def scale_at(readings: Sequence[Tuple[float, float]], start: float,
             end: float) -> float:
    """The factor for a request sent at ``start`` and answered at
    ``end``: the reference unit time over the mean of the last
    (smoothed) reading before it and the first one after it.  No
    reading falls between a request's due time and its send, so the
    same readings bracket its latency from the due time."""
    times = [t for t, _ in readings]
    before = readings[max(0, bisect.bisect_right(times, start) - 1)][1]
    after = readings[min(len(readings) - 1,
                         bisect.bisect_left(times, end))][1]
    return speed.REF_UNIT_S / ((before + after) / 2.0)


def main(argv) -> int:
    job_path, out_path = argv
    with open(job_path) as handle:
        job = json.load(handle)
    rows = drive(tuple(job["address"]), job["items"],
                 job.get("gauge", False), job.get("closed", False))
    with open(out_path, "w") as handle:
        json.dump(rows, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
