"""Span wrappers around the analyzer's public entry points, installed
from the benchmark's own files inside the process that runs the
analyzer.  The program's source is not touched: each wrapper replaces
a module or class attribute, and every module that imported the same
function object by name gets the wrapped one too.

Layer of each span name (the part before the first dot):

* ``prolog``     parse_program, normalize_program
* ``fixpoint``   Engine.analyze
* ``domains``    subst_join/widen/le/eq as the engine calls them, and
                 unify/constrain/freeze/instantiate/fork on both
                 substitution builder classes
* ``typegraph``  the ``arena.NATIVE`` dispatch surface and the
                 TypeLeafDomain operations
* ``assertions`` check_analysis
* ``serialize``  encode_result, the content fingerprints and the
                 CLI's JSON output
"""

from __future__ import annotations

import sys
from typing import Dict

from spans import Recorder

#: ``arena.NATIVE`` functions the Python call sites dispatch through.
NATIVE_OPS = ("normalize_dense", "arena_le", "arena_union",
              "arena_intersect", "arena_functor", "arena_subgrammar",
              "g_split", "g_widen", "value_of", "subst_le", "subst_merge")

#: TypeLeafDomain methods, recorded as ``typegraph.op.leaf_<name>``.
LEAF_OPS = ("meet", "join", "widen", "le", "split", "from_functor",
            "le_tree")

BUILDER_OPS = ("unify", "constrain", "freeze", "instantiate", "fork")

#: Engine statistics summed over every Engine.analyze call.
STAT_FIELDS = ("procedure_iterations", "clause_iterations",
               "clause_iterations_skipped", "callsite_resumptions",
               "input_widenings", "entries_created", "opcache_hits",
               "opcache_misses", "arena_compiles")


def _replace_everywhere(original, replacement) -> None:
    """Point every ``repro.*`` module attribute bound to ``original``
    at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(rec: Recorder) -> Dict[str, float]:
    """Install every wrapper; returns the counter dict they feed."""
    import repro.analysis.analyzer  # noqa: F401  (loads the layers)
    import repro.assertions
    import repro.fixpoint.engine as engine
    import repro.prolog.normalize as normalize
    import repro.prolog.program as program
    import repro.service.serialize as serialize
    from repro.domains import leaf, pattern
    from repro.typegraph import arena

    counts: Dict[str, float] = {}

    def parse_counted(fn):
        traced = rec.wrap("prolog.parse", fn)

        def parse(*args, **kwargs):
            prog = traced(*args, **kwargs)
            counts["prolog.clauses"] = counts.get("prolog.clauses", 0) + sum(
                len(proc.clauses) for proc in prog.procedures.values())
            return prog
        return parse

    _replace_everywhere(program.parse_program,
                        parse_counted(program.parse_program))
    _replace_everywhere(normalize.normalize_program,
                        rec.wrap("prolog.normalize",
                                 normalize.normalize_program))

    traced_analyze = rec.wrap("fixpoint.analyze", engine.Engine.analyze)

    def analyze(self, *args, **kwargs):
        result = traced_analyze(self, *args, **kwargs)
        for field in STAT_FIELDS:
            key = "fixpoint." + field
            counts[key] = counts.get(key, 0) + getattr(self.stats, field)
        return result

    engine.Engine.analyze = analyze

    for op in ("join", "widen", "le", "eq"):
        attr = "subst_" + op
        setattr(engine, attr, rec.wrap("domains." + op,
                                       getattr(engine, attr)))

    builders = [pattern.SubstBuilder]
    if arena.kernel() == "native":
        from repro.typegraph import _native
        builders.append(_native.NativeSubstBuilder)
        for op in NATIVE_OPS:
            setattr(_native, op, rec.wrap("typegraph.op." + op,
                                          getattr(_native, op)))
        arena.profile_kernels(True)
    for cls in builders:
        for op in BUILDER_OPS:
            setattr(cls, op, rec.wrap("domains.builder." + op,
                                      getattr(cls, op)))
    for op in LEAF_OPS:
        setattr(leaf.TypeLeafDomain, op,
                rec.wrap("typegraph.op.leaf_" + op,
                         getattr(leaf.TypeLeafDomain, op)))

    _replace_everywhere(repro.assertions.check_analysis,
                        rec.wrap("assertions.check",
                                 repro.assertions.check_analysis))
    _replace_everywhere(serialize.encode_result,
                        rec.wrap("serialize.encode",
                                 serialize.encode_result))
    for fn in ("result_fingerprint", "payload_fingerprint",
               "check_fingerprint", "program_hash"):
        original = getattr(serialize, fn)
        _replace_everywhere(original,
                            rec.wrap("serialize.fingerprint", original))
    return counts


def wrap_json_output(rec: Recorder, module) -> None:
    """Record ``module``'s ``json.dumps`` calls (the CLI's ``--json``
    output) as ``serialize.dump`` spans."""
    import json
    import types
    proxy = types.SimpleNamespace(**vars(json))
    proxy.dumps = rec.wrap("serialize.dump", json.dumps)
    module.json = proxy


def kernel_counters() -> Dict[str, float]:
    """Cross-check totals from the C tier's own per-op counters."""
    from repro.typegraph import arena
    counters = arena.kernel_counters()
    return {"calls": sum(c["calls"] for c in counters.values()),
            "seconds": sum(c["seconds"] for c in counters.values())}
