"""Program-side helpers the harness runs as child processes (they
import the analyzer, the harness process never does):

* ``prep``: resolve the kernel tier (building the native kernel into
  the benchmark's cache) and print the corpus and provenance;
* ``verify FILE...``: fingerprint the JSON outputs of one-shot CLI
  runs;
* ``soundness``: the interpreter-backed spot-check;
* ``record``: print the expected fingerprint of every
  program/configuration pair (how ``expected.json`` was made).
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import time
from pathlib import Path

CORPUS = ("KA", "QU", "PR", "PE", "CS", "DS", "PG", "RE", "BR", "PL",
          "AR", "AR1", "LDS", "LPE", "LPL")
CHECKED = "CHK"

#: Concrete goals replayed by the soundness spot-check (the QU, PE and
#: PL goals of the repository's soundness tests): every answer the SLD
#: interpreter computes must be a member of the inferred β_out.  The
#: PL goal has one answer; it stops there, because proving that no
#: second answer exists takes the interpreter seconds.
SOUNDNESS_GOALS = (
    ("QU", ("queens", 2), ("queens([1,2,3,4], X)",), 50),
    ("PE", ("peephole_opt", 2),
     ("peephole_opt([movreg(r(1),r(1)), proceed], X)",), 3),
    ("PL", ("transform", 3),
     ("transform([on(a,b),on(b,p),on(c,r)], [on(a,b),on(b,p),on(c,r)], X)",),
     1),
)


def source_digest() -> str:
    """Content hash of the program's source tree."""
    import repro
    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.suffix in (".py", ".c") and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def prep() -> dict:
    from repro.benchprogs import benchmark
    from repro.typegraph import arena
    start = time.perf_counter()
    tier = arena.kernel()
    corpus = {}
    for name in CORPUS + (CHECKED,):
        bp = benchmark(name)
        corpus[name] = {"source": bp.source, "query": list(bp.query),
                        "input_types": (list(bp.input_types)
                                        if bp.input_types else None)}
    return {"tier": tier, "kernel_status": arena.kernel_status(),
            "kernel_ready_s": time.perf_counter() - start,
            "python": platform.python_version(),
            "source_digest": source_digest(), "corpus": corpus}


def verify(paths) -> list:
    """Per CLI output file: its fingerprint, canonical payload size and
    the engine counters it reports."""
    from repro.service.serialize import check_fingerprint, payload_fingerprint
    rows = []
    for path in paths:
        try:
            with open(path) as handle:
                doc = json.load(handle)
        except (OSError, ValueError) as error:
            rows.append({"error": "unreadable output: %s" % error})
            continue
        if "check" in doc:
            violated = [v["assertion"] for v in doc["check"]["verdicts"]
                        if v["status"] == "violated"]
            rows.append({
                "fingerprint": check_fingerprint(doc["check"]),
                "violated": violated,
                "payload_bytes": len(json.dumps(
                    doc["check"], sort_keys=True, separators=(",", ":")))})
        else:
            # cpu_time is a measurement; without it the canonical size
            # of the payload is deterministic.
            result = dict(doc["result"])
            result["stats"] = {k: v for k, v in result["stats"].items()
                               if k != "cpu_time"}
            rows.append({
                "fingerprint": payload_fingerprint(doc["result"]),
                "payload_bytes": len(json.dumps(
                    result, sort_keys=True, separators=(",", ":")))})
    return rows


def soundness() -> dict:
    from repro import analyze
    from repro.benchprogs import benchmark
    from repro.domains.pattern import PAT_BOTTOM, value_of
    from repro.prolog import parse_program, parse_term
    from repro.prolog.interpreter import SolveLimits, Solver, resolve
    from repro.prolog.terms import Struct
    from repro.typegraph import member

    checked = 0
    failures = []
    for name, query, goals, max_solutions in SOUNDNESS_GOALS:
        program = parse_program(benchmark(name).source)
        analysis = analyze(program, query)
        out = analysis.output
        if out is PAT_BOTTOM:
            failures.append("%s: analysis claims no success" % name)
            continue
        grammars = [value_of(out, out.sv[k], analysis.domain, {})
                    for k in range(query[1])]
        solver = Solver(program, SolveLimits(max_solutions=max_solutions))
        answers = 0
        for text in goals:
            goal = parse_term(text)
            for bindings in solver.solve(goal):
                answers += 1
                args = goal.args if isinstance(goal, Struct) else ()
                for k, arg in enumerate(args):
                    checked += 1
                    if not member(resolve(arg, bindings), grammars[k]):
                        failures.append("%s: answer of %s outside β_out"
                                        % (name, text))
        if answers == 0:
            failures.append("%s: no concrete answers" % name)
    return {"checked": checked, "failures": failures}


def record() -> dict:
    """Fingerprints of every corpus program under every resident
    configuration, and of the CHK check."""
    from repro import AnalysisConfig, analyze
    from repro.assertions import check_analysis, harvest_assertions
    from repro.benchprogs import benchmark
    from repro.prolog.program import parse_program
    from repro.service.serialize import (check_fingerprint, encode_check,
                                         result_fingerprint)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from inputs import CONFIGS

    tables = {}
    for name in CORPUS:
        bp = benchmark(name)
        for config, options in CONFIGS.items():
            analysis = analyze(
                bp.source, bp.query, input_types=bp.input_types,
                config=AnalysisConfig(max_or_width=options.get("or_width")),
                baseline=options.get("baseline", False))
            tables["%s/%s" % (name, config)] = result_fingerprint(
                analysis.result)
    bp = benchmark(CHECKED)
    assertions = tuple(harvest_assertions(parse_program(bp.source)))
    analysis = analyze(bp.source, bp.query, input_types=bp.input_types,
                       config=AnalysisConfig(keep_deps=True,
                                             assertions=assertions))
    report, slices = check_analysis(analysis, assertions)
    check = encode_check(report, slices)
    violated = [v["assertion"] for v in check["verdicts"]
                if v["status"] == "violated"]
    return {"tables": tables,
            "check": {"fingerprint": check_fingerprint(check),
                      "violated": violated}}


def main(argv) -> int:
    command = argv[0] if argv else ""
    if command == "prep":
        out = prep()
    elif command == "verify":
        out = verify(argv[1:])
    elif command == "soundness":
        out = soundness()
    elif command == "record":
        out = record()
    else:
        print("usage: oracle.py prep|verify FILE...|soundness|record",
              file=sys.stderr)
        return 2
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
