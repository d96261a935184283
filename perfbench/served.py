"""Workload ``served``: ``repro router --spawn 2`` with a shared
``--cache-dir``, driven by an open-loop generator over one
connection.  Every request is a hit: a Zipf-ranked read of a
pre-warmed pad variant (``analyze`` on the 15 corpus programs, ``check``
on CHK variants), each program once per block.  Hits stress transport,
serialize, router and cache, and cost in proportion to payload size.
The engine runs only while the hot set is warmed, which is not timed:
the ``resident`` workload measures that work.

Every answer is checked in full: the warm-up's analyze payloads are
fingerprinted by ``oracle.py verify`` (not by the shard), and every
later answer must hash to the canonical bytes the warm-up recorded for
its key (:func:`loadgen.canonical`).

Each round runs an open-loop step at ``RATE_RPS``, whose latencies
give ``p50_ms`` and ``p90_ms``, and a scan that reads every key of the
hot set twice, back to back over one connection: the sum of its round
trips is ``wall_s`` and its requests per second of that sum
``max_rate_rps``, the rate the fleet sustains (any open loop faster
than that grows a backlog without bound).  On
one vCPU a second connection adds nothing: a closed loop over two
connections, counted while both were busy, ran at a median of 188
requests per second over five runs, where the scan runs at 184 to 187.
One untimed round runs first: the p50 of the first round after the
warm-up was 1.7 times that of the rounds after it.

The fleets start and the hot set is filled on every vCPU (untimed);
then the harness, the fleet and the generator are pinned to one vCPU,
and every time is scaled by the in-process host-speed gauge (speed.py)
read on it: the generator reads it while its connection idles (in the
scan, between two requests) and scales each request by the readings
around it.  Unpinned and unscaled, a round's p50 moved by 0.23 of its
median from round to round with every program together, as the two
vCPUs' speeds flipped.  ``setup_s``, three processes starting, is
scaled by the fresh-process gauge.  (A timed cold pass through the
router varied with the random placement of programs on shards by a
third between runs.)

Writes (``invalidate`` then re-``analyze``) are not in the mix: even
at one block in four, where a shard's recompute landed decided each
step's p90, which then swung two- to threefold between runs."""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import arith
import speed
from arith import Sample
from common import (BENCH_DIR, BenchError, Child, expected, fresh_dir,
                    python, reap_orphans, run_child)
from inputs import (VARIANTS, pad_source, served_block, served_schedule,
                    shuffled)
from loadgen import Conn, answer, canonical, judge
from oracle import CHECKED, CORPUS
from spans import Recorder, self_times

#: Fleets spawned (one after another) for ``setup_s``, the median.
SETUP_REPEATS = 3
#: The open loop's fixed arrival rate (requests per second); the
#: fleet sustains near 190.  At 40 and 60 requests per second a request
#: often waited behind one of the slowest answers, which made p50 vary
#: three to four times as much from step to step.
RATE_RPS = 20.0
#: The p90 latency limit the open loop is judged by.
LIMIT_MS = 300.0
#: Timed rounds.  The open loop's p50 and p90 are taken over its
#: samples from all rounds together; ``wall_s`` and ``max_rate_rps``
#: are the median of the per-round scans.
ROUNDS = 4
#: Blocks of 16 requests per open-loop step and round for each of
#: ``--seconds``: 20 seconds give 6 blocks, so 96 requests per round
#: and 384 in all, which leaves 38 samples beyond p90.
BLOCKS_PER_SECOND = 0.3
#: The open loop uses one connection, so one request is in flight at a
#: time, as the rate is far below what the fleet sustains.
CONNECTIONS = 1
#: Connections that fill the hot set (untimed).
WARM_CONNECTIONS = 2
#: Reads of the whole hot set in one scan.
SCAN_PASSES = 2
#: Round trips per probe in the traced run.
PROBE_REPEATS = 40


class Fleet:
    """A router with two spawned shards."""

    def __init__(self, workdir: Path, index: int) -> None:
        cache = workdir / ("cache-%d" % index)
        start = time.perf_counter()
        self.child = Child(
            [python(), "-m", "repro", "router", "--port", "0",
             "--spawn", "2", "--cache-dir", str(cache),
             "--shard-log-dir", str(workdir / ("shard-logs-%d" % index))],
            stderr_path=workdir / "router.log")
        while True:
            line = self.child.proc.stdout.readline()
            if not line:
                self.child.reap(30.0)
                raise BenchError("router did not come up; see %s"
                                 % (workdir / "router.log"))
            if "listening on" in line:
                break
        self.setup_s = time.perf_counter() - start
        address = line.split("listening on", 1)[1].split()[0]
        host, _, port = address.rpartition(":")
        self.address = (host, int(port))
        self.shard_pids = []
        try:
            for shard in self.call("router-info")["ring"]:
                host, _, port = shard.rpartition(":")
                conn = Conn(host, int(port))
                try:
                    self.shard_pids.append(
                        conn.request("ping")[0]["result"]["pid"])
                finally:
                    conn.close()
        except BaseException:
            self.kill()
            raise

    def call(self, op: str, **fields) -> dict:
        conn = Conn(*self.address)
        try:
            return conn.request(op, **fields)[0]["result"]
        finally:
            conn.close()

    def stop(self) -> int:
        """Shut the fleet down; returns the peak RSS in KiB over the
        router and its shards."""
        try:
            self.call("shutdown")
        except BaseException:
            self.kill()
            raise
        self.child.reap(60.0)
        return max(self.child.maxrss_kb, reap_orphans(self.shard_pids))

    def kill(self) -> None:
        """Error path: SIGKILL the router and every known shard."""
        for pid in self.shard_pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.child.kill()
        reap_orphans(self.shard_pids)


class Keys:
    """The hot set: ``VARIANTS`` seeded pad variants of every program,
    each with the request that reads it and the answer fields it must
    carry."""

    def __init__(self, info: dict, seed: int, exp: dict) -> None:
        self.items: Dict[Tuple[str, int], dict] = {}
        for name in list(CORPUS) + [CHECKED]:
            program = info["corpus"][name]
            if name == CHECKED:
                op = "check"
                expect = {"check_fingerprint": exp["check"]["fingerprint"],
                          "passed": False}
            else:
                op = "analyze"
                expect = {"fingerprint": exp["tables"][name + "/full"]}
            for variant in range(VARIANTS):
                source = pad_source(program["source"], seed, name,
                                    1000 + variant)
                self.items[(name, variant)] = {
                    "op": op, "expect": expect,
                    "fields": {"source": source,
                               "query": program["query"],
                               "input_types": program["input_types"]}}



def closed_pass(address, keys: Keys, items, connections: int,
                rec: Optional[Recorder] = None, sink=None
                ) -> Tuple[float, int, List[str]]:
    """Every item once, back to back over ``connections`` connections;
    returns (wall seconds, canonical result bytes, failures).  ``sink``
    is called with (key, result) for every correct answer."""
    lock = threading.Lock()
    todo = list(enumerate(items))
    failures: List[str] = []
    result_bytes = [0]

    def drive() -> None:
        conn = Conn(*address)
        try:
            while True:
                with lock:
                    if not todo:
                        return
                    index, key = todo.pop(0)
                if rec is not None:
                    rec.request = index
                    with rec.span("client.request"):
                        ok, result, size = answer(conn, keys.items[key])
                else:
                    ok, result, size = answer(conn, keys.items[key])
                if ok and sink is not None:
                    sink(key, result)
                with lock:
                    result_bytes[0] += size
                    if not ok:
                        failures.append("%s/%s: wrong or failed answer"
                                        % key)
        finally:
            conn.close()

    threads = [threading.Thread(target=drive) for _ in range(connections)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start, result_bytes[0], failures


def open_loop(address, keys: Keys, schedule: List[dict], workdir: Path,
              connections: int = CONNECTIONS, gauge: bool = False,
              closed: bool = False) -> List[list]:
    """Run ``schedule`` through one generator process per connection
    (perfbench/loadgen.py, which reads the host-speed gauge when
    ``gauge`` is set; ``closed`` says every request is due at once);
    returns its rows, each with the program name appended, in schedule
    order."""
    origin = time.perf_counter() + 0.5
    children = []
    for c in range(connections):
        part = []
        for index in range(c, len(schedule), connections):
            entry = schedule[index]
            item = keys.items[(entry["program"], entry["variant"])]
            part.append(dict(item, index=index,
                             due=origin + entry["due"]))
        job = workdir / ("load-%d.json" % c)
        out = workdir / ("load-%d.out" % c)
        job.write_text(json.dumps({"address": list(address),
                                   "items": part, "gauge": gauge,
                                   "closed": closed}))
        children.append((Child([python(), str(BENCH_DIR / "loadgen.py"),
                                str(job), str(out)],
                               stdout=subprocess.DEVNULL,
                               stderr_path=workdir / "loadgen.log"), out))
    rows = []
    for child, out in children:
        if child.reap(600.0) != 0:
            raise BenchError("load generator failed; see %s"
                             % (workdir / "loadgen.log"))
        rows.extend(json.loads(out.read_text()))
    rows.sort()
    for row in rows:
        row.append(schedule[row[0]]["program"])
    return rows


def samples_of(rows: List[list]) -> List[Sample]:
    return [Sample(r[1], r[2], r[3], r[4], r[5]) for r in rows]


def blocks_for(seconds: float) -> int:
    return max(1, round(BLOCKS_PER_SECOND * seconds))


def schedule_for(seed: int, label: str, rate: float, blocks: int
                 ) -> List[dict]:
    return served_schedule(seed, label, rate, blocks,
                           served_block(CORPUS, CHECKED))


def step(fleet: Fleet, keys: Keys, seed: int, rate: float, seconds: float,
         workdir: Path, round_: int = 0) -> List[list]:
    """One open-loop step at ``rate``; each row carries its scale
    factor."""
    schedule = schedule_for(seed, "rate-%g/%d" % (rate, round_), rate,
                            blocks_for(seconds))
    return open_loop(fleet.address, keys, schedule, workdir, gauge=True)


def scan(fleet: Fleet, keys: Keys, seed: int, workdir: Path,
         round_: int) -> Tuple[float, List[list]]:
    """Every key of the hot set ``SCAN_PASSES`` times, in a seeded
    order, back to back over one connection; returns (the requests'
    summed round-trip times at the reference speed, rows)."""
    order = shuffled(seed, "scan/%d" % round_,
                     list(keys.items) * SCAN_PASSES)
    schedule = [{"due": 0.0, "program": name, "variant": variant}
                for name, variant in order]
    rows = open_loop(fleet.address, keys, schedule, workdir, 1,
                     gauge=True, closed=True)
    return sum((r[4] - r[3]) * r[8] for r in rows), rows


def spawn_fleets(workdir: Path, keys: Keys, count: int,
                 gauge: speed.Gauge
                 ) -> Tuple[List[float], int, List[str], Fleet]:
    """Spawn ``count`` fleets one after another, each timed to ready
    (scaled seconds); the last one is kept and its hot set warmed
    (untimed).  Returns (set-up times, requests, failures, kept
    fleet)."""
    setups = []
    before = gauge.read()
    for index in range(count):
        fleet = Fleet(workdir, index)
        if index < count - 1:
            fleet.kill()
        after = gauge.read()
        setups.append(fleet.setup_s * gauge.scale(before, after))
        before = after
    try:
        failures = warm(fleet, keys, workdir)
    except BaseException:
        fleet.kill()
        raise
    return setups, len(keys.items), failures, fleet


def warm(fleet: Fleet, keys: Keys, workdir: Path) -> List[str]:
    """Read every key of the hot set once (untimed: these are the
    misses that fill the cache).  Each analyze payload is fingerprinted
    by an ``oracle.py verify`` child and each check answer must name
    exactly the known violation; only then is the digest of the
    canonical answer recorded in ``keys`` for the timed reads to match.
    Returns the failures."""
    folder = workdir / "warm"
    folder.mkdir()
    exp = expected()
    digests: Dict[Tuple[str, int], str] = {}
    files: Dict[Tuple[str, int], Path] = {}
    failures: List[str] = []

    def sink(key, result) -> None:
        digests[key] = hashlib.sha256(canonical(result)).hexdigest()
        if "payload" in result:
            files[key] = folder / ("%s-%d.json" % key)
            files[key].write_text(json.dumps({"result": result["payload"]}))
        else:
            violated = [v["assertion"] for v in result.get("verdicts", [])
                        if v.get("status") == "violated"]
            if violated != exp["check"]["violated"]:
                failures.append("%s/%s: violated %r" % (key + (violated,)))
                del digests[key]

    _, _, bad = closed_pass(fleet.address, keys, list(keys.items),
                            WARM_CONNECTIONS, sink=sink)
    failures.extend(bad)
    order = list(files)
    code, text, _, _ = run_child(
        [python(), str(BENCH_DIR / "oracle.py"), "verify"]
        + [str(files[key]) for key in order],
        stderr_path=workdir / "oracle.log")
    if code != 0:
        raise BenchError("payload check exited %d; see %s"
                         % (code, workdir / "oracle.log"))
    for key, row in zip(order, json.loads(text)):
        if row.get("fingerprint") != keys.items[key]["expect"]["fingerprint"]:
            failures.append("%s/%s: payload fingerprint differs" % key)
            del digests[key]
    for key, item in keys.items.items():
        # A key without a verified answer keeps an impossible digest,
        # so none of its timed reads can pass.
        item["digest"] = digests.get(key, "unverified")
    shutil.rmtree(folder, ignore_errors=True)
    return failures


def count_failures(rows: List[list], failures: List[str]) -> None:
    failures.extend("%s: request failed or wrong answer" % r[-1]
                    for r in rows if not r[5])


def scaled_ms(row: list) -> float:
    """An open-loop request's latency from its due time, in
    milliseconds at the reference speed; a failed request misses every
    limit."""
    return (row[4] - row[1]) * row[8] * 1e3 if row[5] else math.inf


def run(info: dict, seed: int, seconds: float, trace: bool) -> dict:
    exp = expected()
    workdir = fresh_dir("served")
    keys = Keys(info, seed, exp)
    gauge = speed.Gauge("process")
    setups, attempted, failures, fleet = spawn_fleets(
        workdir, keys, 1 if trace else SETUP_REPEATS, gauge)
    try:
        speed.pin([fleet.child.proc.pid] + fleet.shard_pids)
        if trace:
            out = traced(fleet, keys, seed, seconds, workdir, failures)
            out["attempted"] += attempted
            return out
        step(fleet, keys, seed, RATE_RPS, 4.0, workdir, -1)  # untimed
        scan(fleet, keys, seed, workdir, -1)
        rounds = []
        for round_ in range(ROUNDS):
            opened = step(fleet, keys, seed, RATE_RPS, seconds, workdir,
                          round_)
            wall, scanned = scan(fleet, keys, seed, workdir, round_)
            rounds.append({"open": opened, "wall": wall,
                           "rate": len(scanned) / wall,
                           "rows": opened + scanned})
    finally:
        rss = fleet.stop()
    for r in rounds:
        attempted += len(r["rows"])
        count_failures(r["rows"], failures)
    latencies = [scaled_ms(row) for r in rounds for row in r["open"]]
    metrics = {
        "setup_s": arith.median(setups),
        "wall_s": arith.median([r["wall"] for r in rounds]),
        "peak_rss_mb": rss / 1024.0,
        "p50_ms": arith.percentile(latencies, 50),
        "p90_ms": arith.percentile(latencies, 90),
        "max_rate_rps": arith.median([r["rate"] for r in rounds]),
    }
    notes = {"rounds": ROUNDS, "samples": len(latencies),
             "unscaled_p50_ms": arith.percentile(
                 [(row[4] - row[1]) * 1e3 for r in rounds
                  for row in r["open"]], 50),
             "setup_gauge_reading_ms": gauge.median_ms(),
             "highest_supported_percentile":
                 arith.highest_supported(len(latencies))}
    for i, r in enumerate(rounds):
        one = arith.summarize_step(samples_of(r["open"]), LIMIT_MS)
        notes["round_%d" % i] = (
            "p50=%.2f p90=%.2f backlog=%d lag=%.2fms within=%s | "
            "scan %.3fs, %.1f/s" % (
                one["p50_ms"], one["p90_ms"], one["backlog_max"],
                one["lag_ms"], one["p90_ms"] <= LIMIT_MS and one["drained"],
                r["wall"], r["rate"]))
    by_program: Dict[str, List[float]] = {}
    for r in rounds:
        for row in r["open"]:
            by_program.setdefault(row[-1], []).append(scaled_ms(row))
    rows = {name: {"p50_ms": arith.median(values)}
            for name, values in by_program.items()}
    return {"metrics": metrics, "attempted": attempted,
            "failed": len(failures), "failures": failures, "rows": rows,
            "notes": notes}


def traced(fleet: Fleet, keys: Keys, seed: int, seconds: float,
           workdir: Path, failures: List[str]) -> dict:
    """Client-side spans around warm closed passes (twice, for the
    determinism check), the open-loop step for the service counters, and
    direct probes of a shard."""
    hot = list(keys.items)
    plain_wall, _, bad = closed_pass(fleet.address, keys, hot, 1)
    failures.extend(bad)
    sizes, walls, selfs = [], [], []
    for _ in range(2):
        rec = Recorder()
        wall, size, bad = closed_pass(fleet.address, keys, hot, 1, rec)
        failures.extend(bad)
        sizes.append(size)
        walls.append(wall)
        selfs.append(self_times(rec.spans()))
    attempted = 3 * len(hot)
    if sizes[0] != sizes[1]:
        failures.append("determinism: serialize.payload_bytes %d != %d"
                        % tuple(sizes))
    rows = step(fleet, keys, seed, RATE_RPS, seconds, workdir)
    attempted += len(rows)
    count_failures(rows, failures)
    summary = arith.summarize_step(samples_of(rows), LIMIT_MS)
    m, wrong = probes(fleet, keys)
    attempted += 2 * PROBE_REPEATS
    if wrong:
        failures.append("probes: %d wrong answers" % wrong)
    info = fleet.call("router-info")
    stats = fleet.call("stats")
    m.update({
        "serialize.payload_bytes": sizes[0],
        "cache.hit_share": sum(1 for r in rows if r[6]) / len(rows),
        "server.compute_ms": arith.median([r[7] for r in rows]) * 1e3,
        "server.refused": counter(stats, "merged", "rejected"),
        "server.coalesced": counter(stats, "merged", "coalesced"),
        "router.forward_retries": counter(info, "forward_retries"),
        "router.failovers": counter(info, "failovers"),
        "router.replications": counter(info, "replications"),
        "harness.generator_lag_ms": arith.percentile(
            [s.lag * 1e3 for s in samples_of(rows)], 90),
        "harness.backlog_max": summary["backlog_max"],
        "harness.tracing_overhead": walls[0] / plain_wall,
        "harness.traced_wall_s": walls[0],
        "harness.unattributed_s": walls[0] - sum(
            c["self"] for c in selfs[0].values()),
    })
    return {"metrics": m, "attempted": attempted, "failed": len(failures),
            "failures": failures, "rows": {}, "notes": {}}


def counter(reply: dict, *path: str) -> int:
    """A counter from a router reply; its absence fails the run rather
    than reading as 0."""
    value = reply
    for field in path:
        if not isinstance(value, dict) or field not in value:
            raise BenchError("router reply has no %s" % "/".join(path))
        value = value[field]
    return value


def probes(fleet: Fleet, keys: Keys, repeats: int = PROBE_REPEATS
           ) -> Tuple[Dict[str, float], int]:
    """Ping round trip straight to a shard, and one warm QU request
    straight to its home shard against the same request through the
    router.  Each answer is judged after its round trip is timed;
    returns the timings and the number of wrong answers."""
    item = keys.items[("QU", 0)]
    target = fleet.call("route", **item["fields"])["target"]
    host, _, port = target.rpartition(":")
    via = Conn(*fleet.address)
    direct = Conn(host, int(port))
    try:
        ping, routed, straight = [], [], []
        wrong = 0
        for _ in range(repeats):
            start = time.perf_counter()
            direct.request("ping")
            ping.append(time.perf_counter() - start)
            for conn, times in ((via, routed), (direct, straight)):
                start = time.perf_counter()
                response, _ = conn.request(item["op"], **item["fields"])
                times.append(time.perf_counter() - start)
                wrong += not judge(item, response)[0]
    finally:
        direct.close()
        via.close()
    return {"transport.ping_ms": arith.median(ping) * 1e3,
            "server.direct_ms": arith.median(straight) * 1e3,
            "router.hop_ms": (arith.median(routed)
                              - arith.median(straight)) * 1e3}, wrong
