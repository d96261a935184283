#!/usr/bin/env python3
"""The analyzer's benchmark: one workload per run, end-to-end metrics
untraced, per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload oneshot --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload served --seed 2 --trace 1 \\
        --out served.json
    python3 perfbench/run.py --compare base.json head.json

A run prints every metric with its unit, the per-program rows and the
provenance (commit, kernel tier, Python, nproc), and ends with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  It
exits non-zero without that line when the program cannot be run.
Times are seconds at a reference host speed (perfbench/speed.py); the
notes also print the unscaled figures.
``--compare`` prints the ratio head/base of every metric and the
geometric mean of the per-program ratios, and refuses to compare runs
made on different kernel tiers.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import arith  # noqa: E402
import layers  # noqa: E402
from common import (BENCH_DIR, ROOT, WORK, BenchError,  # noqa: E402
                    become_subreaper, log, prepare, python, run_child)

WORKLOADS = ("oneshot", "resident", "served")

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("max_rate_rps", "1/s"),
]


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    info = prepare()
    if name == "oneshot":
        import oneshot as module
    elif name == "resident":
        import resident as module
    else:
        import served as module
    out = module.run(info, seed, seconds, trace)
    # Outside every timed region: the interpreter-backed oracle.
    code, text, _, _ = run_child(
        [python(), str(BENCH_DIR / "oracle.py"), "soundness"])
    out["attempted"] += 1
    problems = (json.loads(text)["failures"] if code == 0
                else ["soundness check exited %d" % code])
    if problems:
        out["failed"] += 1
        out["failures"].extend("soundness: " + p for p in problems)
    return info, out


def print_report(name, seed, info, out, trace, units) -> None:
    print("workload %s  seed %d  %s" % (name, seed,
                                        "traced" if trace else "untraced"))
    print("provenance: commit %s  source %s  tier %s  python %s  nproc %s"
          % (info["commit"], info["source_digest"], info["tier"],
             info["python"], info["nproc"]))
    for metric, value in out["metrics"].items():
        print("  %-38s %14.6g %s" % (metric, value, units[metric]))
    print("  %-38s %14d of %d attempted" % ("failed", out["failed"],
                                             out["attempted"]))
    for key, value in sorted(out.get("notes", {}).items()):
        print("  note %s = %s" % (key, value))
    for program, row in sorted(out.get("rows", {}).items()):
        print("  row %-12s %s" % (program, "  ".join(
            "%s=%.6g" % kv for kv in sorted(row.items()))))
    for failure in out["failures"][:20]:
        print("  FAILED %s" % failure)


def compare(base_path: str, head_path: str) -> int:
    with open(base_path) as handle:
        base = json.load(handle)
    with open(head_path) as handle:
        head = json.load(handle)
    if base["provenance"]["tier"] != head["provenance"]["tier"]:
        print("refusing to compare: kernel tier %s vs %s"
              % (base["provenance"]["tier"], head["provenance"]["tier"]))
        return 2
    if base["workload"] != head["workload"]:
        print("refusing to compare: workload %s vs %s"
              % (base["workload"], head["workload"]))
        return 2
    print("%-38s %14s %14s %8s" % ("metric", "base", "head", "head/base"))
    for metric, cell in base["metrics"].items():
        other = head["metrics"].get(metric)
        if other is None:
            continue
        ratio = (other["value"] / cell["value"] if cell["value"]
                 else float("nan"))
        print("%-38s %14.6g %14.6g %8.3f %s" % (
            metric, cell["value"], other["value"], ratio, cell["unit"]))
    ratios = {}
    for program, row in base.get("rows", {}).items():
        other = head.get("rows", {}).get(program)
        if not other:
            continue
        for key, value in row.items():
            if key in other and value:
                ratios.setdefault(key, []).append(other[key] / value)
                print("row %-12s %-10s %12.6g %12.6g %8.3f" % (
                    program, key, value, other[key], other[key] / value))
    for key, values in sorted(ratios.items()):
        print("geomean head/base %s over %d programs: %.4f"
              % (key, len(values), arith.geomean(values)))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one run measures (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result here")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    parser.add_argument("--map", action="store_true",
                        help="print which end-to-end metric each layer "
                             "should move, on which workload")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.map:
        for layer, moves in layers.LAYER_MAP:
            print("%-12s -> %s" % (layer, moves))
        return 0
    if not args.workload:
        parser.error("--workload is required")
    if args.seconds is None:
        with open(ROOT / "BENCHMARK.json") as handle:
            args.seconds = float(json.load(handle)["run_seconds"])
    become_subreaper()
    trace = bool(args.trace)
    try:
        info, out = run_workload(args.workload, args.seed, args.seconds,
                                 trace)
    except BenchError as error:
        log("perfbench: %s" % error)
        return 2
    finally:
        for path in WORK.glob("*-%d" % os.getpid()):
            shutil.rmtree(path, ignore_errors=True)
    if trace:
        metrics = layers.complete(out["metrics"])
        units = layers.UNITS
    else:
        attempted = max(out["attempted"], 1)
        out["metrics"]["ok_share"] = 1.0 - out["failed"] / attempted
        metrics = {name: out["metrics"][name] for name, _ in END_TO_END}
        units = dict(END_TO_END)
    out["metrics"] = metrics
    print_report(args.workload, args.seed, info, out, trace, units)
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    if args.out:
        full = dict(result, workload=args.workload, seed=args.seed,
                    trace=trace, rows=out.get("rows", {}),
                    notes=out.get("notes", {}), failures=out["failures"],
                    provenance={k: v for k, v in info.items()
                                if k != "corpus"})
        with open(args.out, "w") as handle:
            json.dump(full, handle, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
