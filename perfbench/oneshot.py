"""Workload ``oneshot``: a fresh ``python -m repro FILE QUERY --json``
process per corpus program plus ``python -m repro check`` on CHK,
each on a seeded pad variant written to a file, one process at a
time.  C memos and intern tables start cold every time, so import,
type-graph kernels, parse and serialize dominate; the service layer is
never used.

Each pass runs every invocation once.  The harness and the program are
pinned to one vCPU, and each invocation sits between two readings of
the fresh-process gauge (speed.py) that scale its time; a pass's time
is the sum of its invocations' times."""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional

import arith
import layers
import spans
import speed
from common import (BENCH_DIR, Child, child_env, expected, fresh_dir, log,
                    python, run_child)
from inputs import pad_source, shuffled
from oracle import CHECKED, CORPUS

#: Fresh processes timed for ``setup_s`` in each run.
SETUP_REPEATS = 5
#: Passes per second of ``--seconds`` (20 seconds give 3): a pass takes
#: six to ten seconds here, gauge readings included.  The count is fixed
#: by ``--seconds`` alone, so every run's medians and percentiles are
#: taken over the same number of samples.
PASSES_PER_SECOND = 0.15


class Invocation:
    def __init__(self, name: str, path: Path, query, input_types) -> None:
        self.name = name
        self.path = path
        self.query = query
        self.input_types = input_types

    def args(self) -> List[str]:
        out = ["check"] if self.name == CHECKED else []
        out += [str(self.path), "%s/%d" % tuple(self.query)]
        if self.input_types:
            out += ["--input", ",".join(self.input_types)]
        return out + ["--json"]


def write_inputs(info: dict, seed: int, round_: int, workdir: Path
                 ) -> List[Invocation]:
    out = []
    for name in shuffled(seed, "oneshot/%d" % round_,
                         list(CORPUS) + [CHECKED]):
        program = info["corpus"][name]
        path = workdir / ("%s-r%d.pl" % (name, round_))
        path.write_text(pad_source(program["source"], seed, name, round_))
        out.append(Invocation(name, path, program["query"],
                              program["input_types"]))
    return out


def run_pass(invocations: List[Invocation], workdir: Path, tag: str,
             gauge: Optional[speed.Gauge] = None, trace: bool = False
             ) -> dict:
    """Run every invocation in turn, one process at a time; returns one
    row per process (with its scale factor when ``gauge`` is given) and
    the time of the pass, the sum of the rows' latencies."""
    env = child_env()
    rows: List[dict] = []
    readings = [gauge.read()] if gauge else []
    for index, inv in enumerate(invocations):
        name = "%s-%d" % (tag, index)
        out_path = workdir / (name + ".json")
        span_path = workdir / (name + ".spans")
        if trace:
            argv = [python(), str(BENCH_DIR / "boot.py"), str(span_path),
                    str(index), "--"] + inv.args()
        else:
            argv = [python(), "-m", "repro"] + inv.args()
        began = time.perf_counter()
        with open(out_path, "w") as stdout:
            child = Child(argv, stdout=stdout, env=env,
                          stderr_path=workdir / "cli.log")
        code = child.reap(120.0)
        row = {"name": inv.name, "out": out_path,
               "spans": span_path if trace else None, "code": code,
               "latency": time.perf_counter() - began,
               "rss_kb": child.maxrss_kb, "scale": 1.0}
        if gauge:
            readings.append(gauge.read())
        rows.append(row)
    if gauge:
        for row, factor in zip(rows, speed.factors(readings, gauge.ref)):
            row["scale"] = factor
    return {"rows": rows, "wall": sum(r["latency"] for r in rows)}


def verify(result: dict, exp: dict) -> List[str]:
    """Fingerprint every output; returns failure descriptions (one per
    failed invocation) and annotates rows with the verified facts."""
    rows = result["rows"]
    code, out, _, _ = run_child(
        [python(), str(BENCH_DIR / "oracle.py"), "verify"]
        + [str(r["out"]) for r in rows], timeout=120.0)
    if code != 0:
        return ["verifier failed (exit %d)" % code] * len(rows)
    facts = json.loads(out)
    failures = []
    for row, fact in zip(rows, facts):
        row["facts"] = fact
        name = row["name"]
        if "error" in fact:
            failures.append("%s: %s" % (name, fact["error"]))
        elif name == CHECKED:
            if row["code"] != 1:
                failures.append("%s: exit %d, expected 1"
                                % (name, row["code"]))
            elif (fact["fingerprint"] != exp["check"]["fingerprint"]
                  or fact["violated"] != exp["check"]["violated"]):
                failures.append("%s: verdicts differ from the known "
                                "tag/1 violation" % name)
        elif row["code"] != 0:
            failures.append("%s: exit %d" % (name, row["code"]))
        elif fact["fingerprint"] != exp["tables"][name + "/full"]:
            failures.append("%s: table fingerprint mismatch" % name)
    return failures


def setup_times(gauge: speed.Gauge, repeats: int = SETUP_REPEATS
                ) -> List[float]:
    """A fresh process importing the CLI's modules and resolving the
    kernel tier, timed ``repeats`` times; scaled seconds."""
    code = ("import repro.__main__\n"
            "from repro.typegraph import arena\n"
            "arena.kernel()\n")
    times = []
    before = gauge.read()
    for _ in range(repeats):
        rc, _, seconds, _ = run_child([python(), "-c", code])
        if rc != 0:
            raise RuntimeError("import of the CLI failed (exit %d)" % rc)
        after = gauge.read()
        times.append(seconds * gauge.scale(before, after))
        before = after
    return times


def run(info: dict, seed: int, seconds: float, trace: bool) -> dict:
    exp = expected()
    workdir = fresh_dir("oneshot")
    speed.pin()
    gauge = speed.Gauge("process")
    setups = setup_times(gauge)
    attempted = failed = 0
    failures: List[str] = []
    round_ = 0

    def one(traced: bool = False) -> dict:
        nonlocal round_, attempted, failed
        invocations = write_inputs(info, seed, round_, workdir)
        result = run_pass(invocations, workdir, "r%d" % round_,
                          None if traced else gauge, trace=traced)
        round_ += 1
        bad = verify(result, exp)
        attempted += len(result["rows"])
        failed += len(bad)
        failures.extend(bad)
        return result

    if trace:
        return traced_run(info, seed, one, setups, failures,
                          lambda: (attempted, failed))

    passes = [one() for _ in range(max(1, round(PASSES_PER_SECOND
                                                 * seconds)))]
    latencies = [r["latency"] * r["scale"] for p in passes
                 for r in p["rows"]]
    walls = [sum(r["latency"] * r["scale"] for r in p["rows"])
             for p in passes]
    jobs = len(passes[0]["rows"])
    rss = max(r["rss_kb"] for p in passes for r in p["rows"])
    metrics = {
        "setup_s": arith.median(setups),
        "wall_s": arith.median(walls),
        "peak_rss_mb": rss / 1024.0,
        "p50_ms": arith.percentile(latencies, 50) * 1e3,
        "p90_ms": arith.percentile(latencies, 90) * 1e3,
        "max_rate_rps": jobs / arith.median(walls),
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "failures": failures, "rows": per_program(passes),
            "notes": {"passes": len(passes), "samples": len(latencies),
                      "unscaled_wall_s": arith.median(
                          [p["wall"] for p in passes]),
                      "gauge_reading_ms": gauge.median_ms(),
                      "highest_supported_percentile":
                          arith.highest_supported(len(latencies))}}


def per_program(passes: List[dict]) -> Dict[str, dict]:
    by_name: Dict[str, List[float]] = {}
    for p in passes:
        for r in p["rows"]:
            by_name.setdefault(r["name"], []).append(
                r["latency"] * r["scale"])
    return {name: {"wall_s": arith.median(values)}
            for name, values in by_name.items()}


def traced_run(info, seed, one, setups, failures, tally) -> dict:
    """One untraced pass, then two traced passes whose counts must
    agree exactly."""
    plain = one()
    traced = [one(traced=True), one(traced=True)]
    per_pass = []
    for result in traced:
        selfs, counts = [], []
        for row in result["rows"]:
            if row["spans"] is None or not Path(row["spans"]).exists():
                continue
            span_list, span_counts = spans.load(str(row["spans"]))
            selfs.append(spans.self_times(span_list))
            counts.append(span_counts)
        merged = layers.merge_selfs(selfs)
        m = layers.from_spans(merged, layers.merge_counts(counts))
        m["serialize.payload_bytes"] = sum(
            r.get("facts", {}).get("payload_bytes", 0)
            for r in result["rows"])
        m["harness.traced_wall_s"] = result["wall"]
        m["harness.unattributed_s"] = (result["wall"]
                                       - layers.attributed(merged))
        per_pass.append(m)
    mismatches = [name for name in layers.DETERMINISTIC
                  if per_pass[0].get(name) != per_pass[1].get(name)]
    for name in mismatches:
        failures.append("determinism: %s %s != %s" % (
            name, per_pass[0].get(name), per_pass[1].get(name)))
    metrics = per_pass[0]
    metrics["harness.tracing_overhead"] = (traced[0]["wall"]
                                           / plain["wall"])
    metrics["typegraph.kernel_build_s"] = kernel_build_seconds()
    attempted, failed = tally()
    return {"metrics": metrics, "attempted": attempted,
            "failed": failed + len(mismatches), "failures": failures,
            "rows": {}, "notes": {"setup_s": arith.median(setups)}}


def kernel_build_seconds() -> float:
    """Compile the native kernel into a throw-away cache directory.
    The child pins the python tier so that importing the package does
    not already build the kernel while resolving the tier."""
    import shutil
    throwaway = fresh_dir("kbuild")
    code = ("import time, sys\n"
            "from repro.typegraph import _native\n"
            "start = time.perf_counter()\n"
            "_native._build(_native._source_path())\n"
            "print(time.perf_counter() - start)\n")
    try:
        rc, out, _, _ = run_child(
            [python(), "-c", code], timeout=600.0,
            env=child_env({"REPRO_KERNEL_CACHE": str(throwaway),
                           "REPRO_ARENA_KERNEL": "python"}))
    finally:
        shutil.rmtree(throwaway, ignore_errors=True)
    if rc != 0:
        log("kernel build failed (exit %d)" % rc)
        return 0.0
    return float(out.strip().splitlines()[-1])
