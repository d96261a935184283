"""Workload ``resident``: long-lived analyzer processes call
``repro.analyze`` on seeded pad variants of the 15 corpus programs,
each under Table 3's three or-width configurations and the §9
baseline domain, after one untimed warm-up round.  Memos stay warm,
so fixpoint scheduling and the pattern domain dominate; the baseline
rows use no type graphs at all.

Analyses get slower as their process ages (the same three analyses
repeated in one process took 1.7 times as long after seven minutes),
so every process has the same life: started, one untimed warm-up pass,
then ``LIFETIME_PASSES`` timed passes, then stopped; a run lives
``LIVES_PER_SECOND`` such lives for each of ``--seconds``.  The
harness and the workers are pinned to one vCPU, and in a timed pass
each job sits between two in-process readings of the host-speed gauge
(speed.py) that scale its time; a pass's time is the sum of its jobs'
times."""

from __future__ import annotations

import json
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Tuple

import arith
import layers
import speed
import spans
from common import BENCH_DIR, Child, expected, fresh_dir, python
from inputs import CONFIGS, pad_source, resident_jobs
from oracle import CORPUS

#: Processes started (one after another) for ``setup_s``, the median.
SETUP_REPEATS = 7
#: Timed passes in the life of one process, after its warm-up pass.
LIFETIME_PASSES = 3
#: Lives per second of ``--seconds`` (20 seconds give one, which takes
#: 25 to 30 seconds here).  The count is fixed by ``--seconds`` alone, so
#: every run's medians and percentiles are taken over the same number
#: of samples.
LIVES_PER_SECOND = 0.05


class Worker:
    """One resident analyzer process (perfbench/worker.py)."""

    def __init__(self, log_path: Path) -> None:
        start = time.perf_counter()
        self.child = Child([python(), str(BENCH_DIR / "worker.py")],
                           stdin=subprocess.PIPE, stderr_path=log_path)
        ready = self.child.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if not ready or not json.loads(ready).get("ready"):
            self.child.kill()
            raise RuntimeError("resident worker did not start; see %s"
                               % log_path)

    def call(self, command: dict) -> dict:
        proc = self.child.proc
        proc.stdin.write(json.dumps(command) + "\n")
        proc.stdin.flush()
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError("resident worker exited")
        return json.loads(line)

    def close(self) -> int:
        """Stop the process; returns its peak RSS in KiB."""
        try:
            self.child.proc.stdin.write('{"op": "exit"}\n')
            self.child.proc.stdin.flush()
        except BrokenPipeError:
            pass
        self.child.reap(30.0)
        return self.child.maxrss_kb


def job_specs(info: dict, seed: int, round_: int
              ) -> Tuple[List[Tuple[str, str]], List[dict]]:
    pairs = resident_jobs(CORPUS)
    specs = []
    for name, config in pairs:
        program = info["corpus"][name]
        options = CONFIGS[config]
        specs.append({
            "source": pad_source(program["source"], seed, name, round_),
            "query": program["query"],
            "input_types": program["input_types"],
            "or_width": options.get("or_width"),
            "baseline": options.get("baseline", False)})
    return pairs, specs


def check(pairs, results, exp) -> List[str]:
    failures = []
    for (name, config), result in zip(pairs, results):
        want = exp["tables"]["%s/%s" % (name, config)]
        if result.get("fingerprint") != want:
            failures.append("%s/%s: table fingerprint %s"
                            % (name, config, result.get("fingerprint")))
    return failures


def run(info: dict, seed: int, seconds: float, trace: bool) -> dict:
    exp = expected()
    workdir = fresh_dir("resident")
    log_path = workdir / "worker.log"
    tally = {"attempted": 0, "failed": 0}
    failures: List[str] = []

    def one(worker: Worker, round_: int, gauge: bool = False):
        pairs, specs = job_specs(info, seed, round_)
        start = time.perf_counter()
        results = worker.call({"op": "jobs", "jobs": specs,
                               "gauge": gauge})["results"]
        wall = time.perf_counter() - start
        bad = check(pairs, results, exp)
        tally["attempted"] += len(results)
        tally["failed"] += len(bad)
        failures.extend(bad)
        return {"pairs": pairs, "results": results, "wall": wall}

    if trace:
        return traced_run(workdir, one, tally, failures)

    speed.pin()
    gauge = speed.Gauge("process")
    setups: List[float] = []
    passes: List[dict] = []
    rss = 0
    worker = None
    try:
        before = gauge.read()
        for _ in range(SETUP_REPEATS):
            if worker is not None:
                rss = max(rss, worker.close())
            worker = Worker(log_path)
            after = gauge.read()
            setups.append(worker.setup_s * gauge.scale(before, after))
            before = after
        round_ = 0
        for _ in range(max(1, round(LIVES_PER_SECOND * seconds))):
            if worker is None:
                worker = Worker(log_path)
            one(worker, round_)  # untimed warm-up
            round_ += 1
            for _ in range(LIFETIME_PASSES):
                passes.append(one(worker, round_, gauge=True))
                round_ += 1
            rss = max(rss, worker.close())
            worker = None
    finally:
        if worker is not None:
            rss = max(rss, worker.close())
    latencies = [r["seconds"] * r["scale"] for p in passes
                 for r in p["results"]]
    walls = [sum(r["seconds"] * r["scale"] for r in p["results"])
             for p in passes]
    jobs = len(passes[0]["results"])
    metrics = {
        "setup_s": arith.median(setups),
        "wall_s": arith.median(walls),
        "peak_rss_mb": rss / 1024.0,
        "p50_ms": arith.percentile(latencies, 50) * 1e3,
        "p90_ms": arith.percentile(latencies, 90) * 1e3,
        "max_rate_rps": jobs / arith.median(walls),
    }
    return {"metrics": metrics, "attempted": tally["attempted"],
            "failed": tally["failed"], "failures": failures,
            "rows": per_program(passes),
            "notes": {"passes": len(passes), "samples": len(latencies),
                      "jobs_per_pass": jobs,
                      "unscaled_wall_s": arith.median(
                          [sum(r["seconds"] for r in p["results"])
                           for p in passes]),
                      "gauge_reading_ms": gauge.median_ms(),
                      "highest_supported_percentile":
                          arith.highest_supported(len(latencies))}}


def per_program(passes) -> Dict[str, dict]:
    """Median over passes of each program's scaled time summed over its
    four configurations."""
    totals: Dict[str, List[float]] = {}
    for p in passes:
        sums: Dict[str, float] = {}
        for (name, _), result in zip(p["pairs"], p["results"]):
            sums[name] = (sums.get(name, 0.0)
                          + result["seconds"] * result["scale"])
        for name, value in sums.items():
            totals.setdefault(name, []).append(value)
    return {name: {"wall_s": arith.median(values)}
            for name, values in totals.items()}


def traced_run(workdir: Path, one, tally, failures) -> dict:
    """An untraced process and two traced ones, one after the other,
    each warming up on round 0 and measuring round 1.  The traced
    counts must agree exactly."""
    walls = []
    per_run = []
    for traced in (False, True, True):
        worker = Worker(workdir / "worker.log")
        try:
            one(worker, 0)
            if traced:
                worker.call({"op": "trace"})
            wall = one(worker, 1)["wall"]
            if traced:
                path = workdir / ("spans-%d" % len(per_run))
                worker.call({"op": "dump", "path": str(path)})
        finally:
            worker.close()
        walls.append(wall)
        if traced:
            span_list, counts = spans.load(str(path))
            selfs = spans.self_times(span_list)
            m = layers.from_spans(selfs, counts)
            m["harness.traced_wall_s"] = wall
            m["harness.unattributed_s"] = wall - layers.attributed(selfs)
            per_run.append(m)
    mismatches = [name for name in layers.DETERMINISTIC
                  if per_run[0].get(name) != per_run[1].get(name)]
    for name in mismatches:
        failures.append("determinism: %s %s != %s" % (
            name, per_run[0].get(name), per_run[1].get(name)))
    metrics = per_run[0]
    metrics["harness.tracing_overhead"] = walls[1] / walls[0]
    return {"metrics": metrics, "attempted": tally["attempted"],
            "failed": tally["failed"] + len(mismatches),
            "failures": failures, "rows": {}, "notes": {}}
