"""Resident analyzer process for the ``resident`` workload: one
long-lived process that calls ``repro.analyze`` on the jobs it is
sent, one JSON line per command on stdin, one JSON line per reply on
stdout.

    {"op": "jobs", "jobs": [{"source", "query", "input_types",
                             "or_width", "baseline"}, ...],
     "gauge": bool}              with "gauge", each job sits between two
                                 in-process readings of speed.py's gauge
                                 and its result carries the scale factor
    {"op": "trace"}              install the span wrappers
    {"op": "dump", "path": P}    write the recorded spans to P
    {"op": "exit"}
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    import speed
    from repro import AnalysisConfig, analyze
    from repro.service import serialize
    from repro.typegraph import arena
    tier = arena.kernel()
    reply = sys.stdout
    reply.write(json.dumps({"ready": True, "tier": tier}) + "\n")
    reply.flush()
    rec = counts = None
    for line in sys.stdin:
        command = json.loads(line)
        op = command["op"]
        if op == "exit":
            break
        if op == "trace":
            import hooks
            from spans import Recorder
            rec = Recorder()
            counts = hooks.install(rec)
            out = {"ok": True}
        elif op == "dump":
            import hooks
            rec.counts = dict(counts)
            rec.counts.update({"native." + k: v for k, v in
                               hooks.kernel_counters().items()})
            rec.dump(command["path"])
            out = {"ok": True}
        else:
            results = []
            gauge = speed.Gauge() if command.get("gauge") else None
            if gauge:
                gauge.read()
            for index, job in enumerate(command["jobs"]):
                if rec is not None:
                    rec.request = index
                start = time.perf_counter()
                try:
                    analysis = analyze(
                        job["source"], tuple(job["query"]),
                        input_types=job["input_types"],
                        config=AnalysisConfig(max_or_width=job["or_width"]),
                        baseline=job["baseline"])
                    fingerprint = serialize.result_fingerprint(
                        analysis.result)
                except Exception as error:  # reported as a failed job
                    fingerprint = "error: %r" % (error,)
                results.append({"fingerprint": fingerprint,
                                "seconds": time.perf_counter() - start,
                                "scale": 1.0})
                if gauge:
                    gauge.read()
            if gauge:
                for result, factor in zip(results, speed.factors(
                        gauge.readings, gauge.ref)):
                    result["scale"] = factor
            out = {"results": results}
        reply.write(json.dumps(out) + "\n")
        reply.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
