"""Per-layer metrics of the traced runs: names, units, and how span
self times and recorded counters turn into them.

Every workload reports every metric; a layer the workload never
reaches reads 0 (no router on ``oneshot``, no engine spans inside the
``served`` shards, whose figures come from the service's own
counters instead)."""

from __future__ import annotations

from typing import Dict, List, Tuple

#: ``arena.NATIVE`` ops reported one by one: the ones the Python side
#: calls on the default path (the others run inside the C tier and
#: are covered by ``typegraph.native_counter_*``); every op in
#: hooks.NATIVE_OPS still counts towards ``typegraph.kernel_*``.
OPS = ("normalize_dense", "subst_le", "subst_merge")

PER_LAYER: List[Tuple[str, str]] = [
    ("startup.import_s", "s"),
    ("prolog.parse_s", "s"),
    ("prolog.normalize_s", "s"),
    ("prolog.clauses", "count"),
    ("fixpoint.self_s", "s"),
    ("fixpoint.procedure_iterations", "count"),
    ("fixpoint.clause_iterations", "count"),
    ("fixpoint.clause_iterations_skipped", "count"),
    ("fixpoint.callsite_resumptions", "count"),
    ("fixpoint.input_widenings", "count"),
    ("fixpoint.entries_created", "count"),
    ("fixpoint.skip_ratio", "share"),
    ("domains.builder_s", "s"),
    ("domains.builder_calls", "count"),
    ("domains.join_s", "s"),
    ("domains.join_calls", "count"),
    ("domains.widen_s", "s"),
    ("domains.widen_calls", "count"),
    ("domains.le_s", "s"),
    ("domains.le_calls", "count"),
    ("domains.eq_s", "s"),
    ("domains.eq_calls", "count"),
    ("domains.opcache_hit_rate", "share"),
    ("typegraph.kernel_s", "s"),
    ("typegraph.kernel_calls", "count"),
    ("typegraph.arena_compiles", "count"),
    ("typegraph.kernel_build_s", "s"),
    ("typegraph.native_counter_calls", "count"),
    ("typegraph.native_counter_s", "s"),
] + [("typegraph.op.%s.%s" % (op, what), unit)
     for op in OPS for what, unit in (("calls", "count"),
                                      ("seconds", "s"))] + [
    ("assertions.check_s", "s"),
    ("serialize.encode_s", "s"),
    ("serialize.fingerprint_s", "s"),
    ("serialize.dump_s", "s"),
    ("serialize.payload_bytes", "bytes"),
    ("cache.hit_share", "share"),
    ("server.compute_ms", "ms"),
    ("server.direct_ms", "ms"),
    ("server.refused", "count"),
    ("server.coalesced", "count"),
    ("router.hop_ms", "ms"),
    ("router.forward_retries", "count"),
    ("router.failovers", "count"),
    ("router.replications", "count"),
    ("transport.ping_ms", "ms"),
    ("harness.generator_lag_ms", "ms"),
    ("harness.backlog_max", "count"),
    ("harness.tracing_overhead", "ratio"),
    ("harness.traced_wall_s", "s"),
    ("harness.unattributed_s", "s"),
]

UNITS: Dict[str, str] = dict(PER_LAYER)

#: Which end-to-end metric each layer's metrics should move, on which
#: workload, written down before any change is measured.
LAYER_MAP: List[Tuple[str, str]] = [
    ("prolog", "wall_s on oneshot; less on resident; nothing on served "
               "hits"),
    ("fixpoint", "wall_s on resident most"),
    ("domains", "wall_s on resident, its baseline rows included"),
    ("typegraph", "wall_s on oneshot; little on resident; nothing on its "
                  "baseline rows"),
    ("assertions", "wall_s on oneshot (the CHK row); the check share of "
                   "served latency"),
    ("serialize", "wall_s on oneshot (the --json path); p50_ms on "
                  "served"),
    ("cache/server", "p90_ms and max_rate_rps on served"),
    ("router", "p50_ms and max_rate_rps on served; nothing on oneshot "
               "or resident"),
    ("transport", "the floor under p50_ms on served"),
    ("startup", "setup_s and wall_s on oneshot"),
]

#: Counts that must repeat exactly across two traced runs.
DETERMINISTIC = tuple(
    name for name, unit in PER_LAYER
    if (unit == "count" and name.split(".")[0] in (
        "prolog", "fixpoint", "domains", "typegraph")
        and name != "typegraph.native_counter_calls")
    or name == "serialize.payload_bytes")


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def from_spans(selfs: Dict[str, Dict[str, float]],
               counts: Dict[str, float]) -> Dict[str, float]:
    """Engine-side per-layer metrics from merged span self times
    (:func:`spans.self_times`) and the counters the hooks recorded."""
    def self_of(prefix: str) -> float:
        return sum(c["self"] for n, c in selfs.items()
                   if n.startswith(prefix))

    def calls_of(prefix: str) -> int:
        return int(sum(c["calls"] for n, c in selfs.items()
                       if n.startswith(prefix)))

    m: Dict[str, float] = {
        "startup.import_s": self_of("startup."),
        "prolog.parse_s": self_of("prolog.parse"),
        "prolog.normalize_s": self_of("prolog.normalize"),
        "prolog.clauses": int(counts.get("prolog.clauses", 0)),
        "fixpoint.self_s": self_of("fixpoint."),
        "domains.builder_s": self_of("domains.builder."),
        "domains.builder_calls": calls_of("domains.builder."),
        "typegraph.kernel_s": self_of("typegraph."),
        "typegraph.kernel_calls": calls_of("typegraph."),
        "typegraph.arena_compiles": int(counts.get(
            "fixpoint.arena_compiles", 0)),
        "typegraph.native_counter_calls": int(counts.get(
            "native.calls", 0)),
        "typegraph.native_counter_s": counts.get("native.seconds", 0.0),
        "assertions.check_s": self_of("assertions."),
        "serialize.encode_s": self_of("serialize.encode"),
        "serialize.fingerprint_s": self_of("serialize.fingerprint"),
        "serialize.dump_s": self_of("serialize.dump"),
    }
    for op in ("join", "widen", "le", "eq"):
        m["domains.%s_s" % op] = self_of("domains.%s" % op)
        m["domains.%s_calls" % op] = calls_of("domains.%s" % op)
    for op in OPS:
        cell = selfs.get("typegraph.op." + op, {})
        m["typegraph.op.%s.calls" % op] = int(cell.get("calls", 0))
        m["typegraph.op.%s.seconds" % op] = cell.get("self", 0.0)
    for field in ("procedure_iterations", "clause_iterations",
                  "clause_iterations_skipped", "callsite_resumptions",
                  "input_widenings", "entries_created"):
        m["fixpoint." + field] = int(counts.get("fixpoint." + field, 0))
    executed = m["fixpoint.clause_iterations"]
    skipped = m["fixpoint.clause_iterations_skipped"]
    m["fixpoint.skip_ratio"] = (skipped / (executed + skipped)
                                if executed + skipped else 0.0)
    hits = counts.get("fixpoint.opcache_hits", 0)
    lookups = hits + counts.get("fixpoint.opcache_misses", 0)
    m["domains.opcache_hit_rate"] = hits / lookups if lookups else 0.0
    return m


def attributed(selfs: Dict[str, Dict[str, float]]) -> float:
    """Self time of every span that belongs to a layer (the ``cli``
    root span's own time is unattributed)."""
    return sum(c["self"] for n, c in selfs.items()
               if layer_of(n) != "cli")


def merge_selfs(parts) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for part in parts:
        for name, cell in part.items():
            into = out.setdefault(name, {"calls": 0, "total": 0.0,
                                         "self": 0.0})
            for key in into:
                into[key] += cell[key]
    return out


def merge_counts(parts) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for part in parts:
        for name, value in part.items():
            out[name] = out.get(name, 0) + value
    return out


def complete(metrics: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric, 0 where the workload has no figure."""
    return {name: metrics.get(name, 0) for name, _ in PER_LAYER}
