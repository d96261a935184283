"""Cross-tier equivalence suite for the arena execution tiers (PR 8).

The arena kernels run at one of three tiers — ``python`` (reference),
``numpy`` (word-parallel portable tier), ``native`` (lazily compiled C
extension) — selected by ``REPRO_ARENA_KERNEL`` or
``arena.configure(kernel=...)``.  The contract under test:

* **Same interned objects** — every grammar- and substitution-valued
  operation returns the *identical* canonical instance no matter which
  tier computed it (all tiers funnel through the same process-wide
  intern tables), so gids/sids, fingerprints, and serialized forms are
  tier-oblivious.
* **Round-trips** — compile → decompile reproduces the rules verbatim
  on every tier, and pickled grammars re-intern identically after a
  mid-process tier switch.
* **Graceful fallback** — when the toolchain (or numpy) is missing the
  tier machinery records a reason and silently degrades; analysis
  results do not change.
"""

import gc
import os
import pickle
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro import AnalysisConfig
from repro.domains import pattern
from repro.domains.leaf import TOP, TrivialLeafDomain, TypeLeafDomain
from repro.domains.pattern import (PAT_BOTTOM, SubstBuilder, make_builder,
                                   subst_join, subst_le, subst_widen)
from repro.typegraph import (FuncAlt, Grammar, arena, g_any, g_atom,
                             g_bottom, g_functor, g_int, g_int_literal,
                             g_intersect, g_list_of, g_union, g_widen,
                             normalize, opcache)

TIERS = arena.available_kernels()


@pytest.fixture(autouse=True)
def _tier_and_caches_restored():
    """Run without the op caches (so each tier really executes) and
    put the requested tier back afterwards."""
    was_requested = arena.kernel_status()["requested"]
    was_cache = opcache.enabled()
    opcache.configure(enabled=False)
    yield
    opcache.configure(enabled=was_cache)
    arena.configure(kernel=was_requested)


def per_tier(fn):
    """``{tier: fn()}`` with the tier actually switched per call."""
    out = {}
    for tier in TIERS:
        arena.configure(kernel=tier)
        assert arena.kernel() == tier
        out[tier] = fn()
    return out


def assert_identical(results):
    first = next(iter(results.values()))
    for tier, value in results.items():
        assert value is first, (
            "tier %r produced a distinct object: %r vs %r"
            % (tier, value, first))
    return first


# -- strategies (same shape as test_arena_properties's) ----------------------

_ATOMS = ("a", "b", "[]", "foo")
_FUNCTORS = (("f", 1), ("g", 2), (".", 2), ("s", 1))


def _grammars(depth):
    if depth == 0:
        return st.one_of(
            st.sampled_from([g_any(), g_int(), g_bottom()]),
            st.sampled_from(list(_ATOMS)).map(g_atom),
            st.integers(0, 3).map(g_int_literal),
        )
    sub = _grammars(depth - 1)
    return st.one_of(
        _grammars(0),
        st.builds(lambda name_arity, args:
                  g_functor(name_arity[0], args[:name_arity[1]]),
                  st.sampled_from(list(_FUNCTORS)),
                  st.lists(sub, min_size=2, max_size=2)),
        st.builds(g_union, sub, sub),
        st.builds(g_list_of, sub),
    )


grammars = _grammars(2)
widths = st.sampled_from([None, 1, 2, 5])


# -- grammar ops: same interned object on every tier -------------------------

@settings(max_examples=60, deadline=None)
@given(grammars, grammars, widths)
def test_union_same_interned_across_tiers(g1, g2, w):
    assert_identical(per_tier(lambda: g_union(g1, g2, w)))


@settings(max_examples=60, deadline=None)
@given(grammars, grammars, widths)
def test_intersect_same_interned_across_tiers(g1, g2, w):
    assert_identical(per_tier(lambda: g_intersect(g1, g2, w)))


@settings(max_examples=60, deadline=None)
@given(grammars, grammars)
def test_le_same_answer_across_tiers(g1, g2):
    from repro.typegraph import g_le
    answers = per_tier(lambda: g_le(g1, g2))
    assert len(set(answers.values())) == 1, answers


@settings(max_examples=40, deadline=None)
@given(grammars, grammars, widths, st.booleans())
def test_widen_same_interned_across_tiers(g_old, g_new, w, strict):
    assert_identical(per_tier(lambda: g_widen(g_old, g_new, w, strict)))


@settings(max_examples=40, deadline=None)
@given(grammars, st.sampled_from(list(_FUNCTORS)), grammars, widths)
def test_functor_same_interned_across_tiers(g1, name_arity, g2, w):
    name, arity = name_arity
    children = (g1, g2)[:arity]
    assert_identical(per_tier(lambda: g_functor(name, children, w)))


@settings(max_examples=40, deadline=None)
@given(grammars, grammars, widths)
def test_raw_normalize_same_interned_across_tiers(g1, g2, w):
    # a raw, messy grammar: two grammars glued side by side
    offset = len(g1.rules)
    rules = dict(g1.rules)
    for nt, alts in g2.rules.items():
        rules[nt + offset] = frozenset(
            FuncAlt(a.name, tuple(x + offset for x in a.args), a.is_int)
            if isinstance(a, FuncAlt) else a
            for a in alts)
    rules[len(rules)] = frozenset(
        [FuncAlt("glue", (g1.root, g2.root + offset))])
    root = len(rules) - 1
    assert_identical(per_tier(
        lambda: normalize(Grammar(dict(rules), root), w)))


# -- compile/decompile round-trips per tier ----------------------------------

@settings(max_examples=60, deadline=None)
@given(grammars)
def test_compile_decompile_round_trip_per_tier(g):
    for tier in TIERS:
        arena.configure(kernel=tier)
        compiled = arena.arena_of(g)
        assert arena.decompile(compiled).rules == g.rules, tier


# -- pattern layer: same interned substitutions on every tier ----------------
#
# Each script runs under both leaf domains with a native builder: Type
# (grammar leaves) and the principal-functor baseline (TOP leaves).

_TYPE_VALUES = [g_any(), g_atom("a"), g_atom("b"), g_int(),
                g_list_of(g_any()), g_union(g_atom("a"), g_atom("b"))]

_goals = st.lists(
    st.one_of(
        st.tuples(st.just("unify"), st.integers(0, 3), st.integers(0, 3)),
        st.tuples(st.just("build"),
                  st.integers(0, 3),
                  st.sampled_from(["f", "g", ".", "s"]),
                  st.lists(st.integers(0, 3), min_size=1, max_size=2)),
        st.tuples(st.just("constrain"), st.integers(0, 3),
                  st.sampled_from(range(len(_TYPE_VALUES)))),
    ),
    max_size=6)

_DOMAIN = TypeLeafDomain()
_TRIVIAL = TrivialLeafDomain()
_DOMAINS = (_DOMAIN, _TRIVIAL)


def _leaf_value(domain, index):
    """The ``index``-th constrain value of ``domain``: a grammar for
    Type, the only value TOP for the baseline."""
    return _TYPE_VALUES[index] if domain is _DOMAIN else TOP


def _build_subst(goals, domain=_DOMAIN):
    """Run a goal script on the *active tier's* builder."""
    builder = make_builder(domain)
    nodes = [builder.fresh_leaf() for _ in range(4)]
    for goal in goals:
        if goal[0] == "unify":
            if not builder.unify(nodes[goal[1]], nodes[goal[2]]):
                return PAT_BOTTOM
        elif goal[0] == "build":
            _, v, name, args = goal
            arity = 2 if name == "." else len(args)
            children = [nodes[a] for a in (args * 2)[:arity]]
            pattern = builder.make_pattern(name, False, children)
            if not builder.unify(nodes[v], pattern):
                return PAT_BOTTOM
        else:
            _, v, value_index = goal
            if not builder.constrain(nodes[v],
                                     _leaf_value(domain, value_index)):
                return PAT_BOTTOM
    frozen = builder.freeze(nodes)
    return frozen


@settings(max_examples=50, deadline=None)
@given(_goals)
def test_builder_freeze_same_interned_across_tiers(goals):
    for domain in _DOMAINS:
        assert_identical(per_tier(lambda: _build_subst(goals, domain)))


@settings(max_examples=40, deadline=None)
@given(_goals, _goals)
def test_subst_ops_same_across_tiers(goals1, goals2):
    for domain in _DOMAINS:
        s1 = assert_identical(per_tier(lambda: _build_subst(goals1, domain)))
        s2 = assert_identical(per_tier(lambda: _build_subst(goals2, domain)))
        if s1 is PAT_BOTTOM or s2 is PAT_BOTTOM:
            continue
        assert_identical(per_tier(lambda: subst_join(s1, s2, domain)))
        assert_identical(per_tier(lambda: subst_widen(s1, s2, domain)))
        for a, b in ((s1, s2), (s2, s1)):
            le = per_tier(lambda: subst_le(a, b, domain))
            assert len(set(le.values())) == 1, le
        for index in range(len(s1.nodes)):
            assert_identical(per_tier(
                lambda: pattern.value_of(s1, index, domain)))
        # instantiate + refreeze reproduces the substitution
        assert_identical(per_tier(lambda: _refreeze(s1, domain))) is s1


def _refreeze(subst, domain):
    builder = make_builder(domain)
    snapshot, roots = builder.fork(builder.instantiate(subst))
    return snapshot.freeze(roots)


def test_baseline_domain_gets_native_builder():
    if "native" not in TIERS:
        pytest.skip("native tier unavailable here")
    from repro.typegraph import _native
    arena.configure(kernel="native")
    for domain in (TrivialLeafDomain(), TypeLeafDomain()):
        assert isinstance(make_builder(domain), _native.NativeSubstBuilder)
    arena.configure(kernel="python")
    assert isinstance(make_builder(TrivialLeafDomain()), SubstBuilder)


# -- pickling across a tier switch -------------------------------------------

@settings(max_examples=40, deadline=None)
@given(grammars, grammars, widths)
def test_pickle_reinterns_identically_after_tier_switch(g1, g2, w):
    arena.configure(kernel=TIERS[-1])
    u = g_union(g1, g2, w)
    payload = pickle.dumps((g1, g2, u))
    arena.configure(kernel="python")
    r1, r2, ru = pickle.loads(payload)
    assert r1 is g1 and r2 is g2 and ru is u
    assert g_union(r1, r2, w) is u


# -- analysis fingerprints are tier-oblivious --------------------------------

def test_analysis_fingerprint_identical_across_tiers():
    from repro import analyze
    from repro.benchprogs import BENCHMARKS, benchmark
    from repro.service.serialize import result_fingerprint

    bp = benchmark("QU")
    prints = per_tier(lambda: result_fingerprint(
        analyze(bp.source, bp.query, input_types=bp.input_types).result))
    assert len(set(prints.values())) == 1, prints
    # the principal-functor baseline on every benchprog
    for name in sorted(BENCHMARKS):
        bp = benchmark(name)
        prints = per_tier(lambda: result_fingerprint(
            analyze(bp.source, bp.query, input_types=bp.input_types,
                    baseline=True).result))
        assert len(set(prints.values())) == 1, (name, prints)


# -- nothing outlives opcache.clear() ----------------------------------------

def test_clear_releases_every_substitution_on_every_tier():
    """After an analysis is dropped, ``opcache.clear()`` plus a
    collection frees every substitution it interned, on every tier
    (the native tier's per-substitution structs included)."""
    from repro import analyze
    from repro.benchprogs import benchmark

    bp = benchmark("QU")
    for tier in TIERS:
        arena.configure(kernel=tier)
        opcache.configure(enabled=True)
        first_sid = pattern._NEXT_SID
        for baseline in (False, True):
            analyze(bp.source, bp.query, input_types=bp.input_types,
                    baseline=baseline)
        opcache.clear()
        gc.collect()
        survivors = [s for s in pattern._SUBST_INTERN.values()
                     if s.sid >= first_sid]
        assert survivors == [], (tier, survivors)


def test_clear_releases_every_grammar_on_every_tier():
    """The same for grammars: only the module's atom and integer
    literal memos keep any of an analysis's grammars (the native tier's
    per-grammar arena structs included)."""
    from repro import analyze
    from repro.benchprogs import benchmark
    from repro.typegraph import grammar

    bp = benchmark("PG")
    for tier in TIERS:
        arena.configure(kernel=tier)
        opcache.configure(enabled=True)
        first_gid = grammar._NEXT_GID
        analyze(bp.source, bp.query, input_types=bp.input_types)
        opcache.clear()
        gc.collect()
        kept = {id(g) for memo in (grammar._ATOM_CACHE,
                                   grammar._INT_LITERAL_CACHE)
                for g in memo.values()}
        survivors = [g for g in grammar._INTERN.values()
                     if g.gid >= first_gid and id(g) not in kept]
        assert survivors == [], (tier, survivors)


def test_clear_during_a_native_walk_waits_for_the_walk():
    """A leaf join called back from the C merge walk may clear the
    memos; the substitution structs the walk is reading stay valid
    until it ends, and the result is unchanged."""
    if "native" not in TIERS:
        pytest.skip("native tier unavailable here")
    arena.configure(kernel="native")

    class ClearingJoin(TypeLeafDomain):
        def join(self, a, b):
            opcache.clear()
            return TypeLeafDomain.join(self, a, b)

    goals1 = [("build", 0, "f", [1, 2]), ("constrain", 1, 1),
              ("constrain", 2, 3), ("constrain", 3, 4)]
    goals2 = [("build", 0, "f", [2, 1]), ("constrain", 1, 2),
              ("constrain", 3, 5)]
    s1, s2 = _build_subst(goals1), _build_subst(goals2)
    expected = subst_join(s1, s2, _DOMAIN)
    for _ in range(20):
        assert subst_join(s1, s2, ClearingJoin()) is expected
        assert subst_le(s1, expected, _DOMAIN)


def test_finished_baseline_analysis_releases_its_domain():
    """The per-substitution collapse memo keys on the domain's id, so
    substitutions the op caches keep do not keep the domain alive."""
    from repro import analyze
    from repro.benchprogs import benchmark

    bp = benchmark("KA")
    for tier in TIERS:
        arena.configure(kernel=tier)
        opcache.configure(enabled=True)
        result = analyze(bp.source, bp.query, input_types=bp.input_types,
                         baseline=True)
        domain = weakref.ref(result.domain)
        del result
        gc.collect()
        assert domain() is None, tier


# -- the collector pause ------------------------------------------------------

_PAUSE_CONFIGS = {
    "full": {},
    "or5": {"config": AnalysisConfig(max_or_width=5)},
    "or2": {"config": AnalysisConfig(max_or_width=2)},
    "baseline": {"baseline": True},
}


@pytest.fixture
def gc_during_analysis(monkeypatch):
    """``gc.isenabled()`` as seen inside each ``Engine.analyze`` call."""
    from repro.fixpoint.engine import Engine

    seen = []
    original = Engine.analyze

    def analyze(self, *args, **kwargs):
        seen.append(gc.isenabled())
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Engine, "analyze", analyze)
    return seen


def test_analyze_restores_the_collector(gc_during_analysis):
    from repro import analyze
    from repro.fixpoint.engine import AnalysisBudgetExceeded

    if "native" not in TIERS:
        pytest.skip("native tier unavailable here")
    arena.configure(kernel="native")
    source = "app([], X, X).\napp([F|T], S, [F|R]) :- app(T, S, R).\n"
    assert gc.isenabled()
    analyze(source, ("app", 3))
    assert gc.isenabled()
    with pytest.raises(KeyError):
        analyze(source, ("nope", 1))
    assert gc.isenabled()
    with pytest.raises(AnalysisBudgetExceeded):
        analyze(source, ("app", 3),
                config=AnalysisConfig(max_procedure_iterations=1))
    assert gc.isenabled()
    assert gc_during_analysis == [False, False, False]


def test_analyze_leaves_a_disabled_collector_disabled(gc_during_analysis):
    from repro import analyze

    source = "p(a).\np(f(X)) :- p(X).\n"
    gc.disable()
    try:
        for tier in TIERS:
            arena.configure(kernel=tier)
            analyze(source, ("p", 1))
            assert not gc.isenabled(), tier
    finally:
        gc.enable()
    assert gc_during_analysis == [False] * len(TIERS)


def test_python_walks_keep_collecting(gc_during_analysis):
    """Tiers and domains whose analyses build cyclic graphs run with
    the collector on: the python and numpy tiers, and on the native
    tier the depth-k domain and a type database (Python callbacks)."""
    from repro import analyze
    from repro.domains.leaf import DepthBoundLeafDomain

    source = "p(a).\np(f(X)) :- p(X).\n"
    for tier in TIERS:
        if tier == "native":
            continue
        arena.configure(kernel=tier)
        for options in _PAUSE_CONFIGS.values():
            analyze(source, ("p", 1), **options)
    arena.configure(kernel=TIERS[-1])
    analyze(source, ("p", 1), domain=DepthBoundLeafDomain(1))
    analyze(source, ("p", 1),
            config=AnalysisConfig(type_database=[g_list_of(g_any())]))
    assert gc_during_analysis and all(gc_during_analysis)


def test_native_analyses_leave_no_cyclic_garbage():
    """What makes the pause safe: on the native tier no benchprog under
    any configuration leaves an object that only the cyclic collector
    could free."""
    from repro import analyze
    from repro.benchprogs import BENCHMARKS, benchmark

    if "native" not in TIERS:
        pytest.skip("native tier unavailable here")
    arena.configure(kernel="native")
    opcache.configure(enabled=True)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for name in sorted(BENCHMARKS):
            bp = benchmark(name)
            for options in _PAUSE_CONFIGS.values():
                analyze(bp.source, bp.query, input_types=bp.input_types,
                        **options)
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert garbage == []


def test_cyclic_builder_nodes_are_collected_after_the_pause(
        gc_during_analysis):
    """``X = f(X)`` ties the native builder's nodes into a cycle that
    only the collector can free; it frees them once the pause ends."""
    from repro import analyze

    if "native" not in TIERS:
        pytest.skip("native tier unavailable here")
    arena.configure(kernel="native")

    def knodes():
        return sum(1 for o in gc.get_objects()
                   if type(o).__name__ == "KNode")

    gc.collect()
    assert knodes() == 0
    result = analyze("p(X) :- X = f(X).\nq(Y) :- p(Y).\n", ("q", 1))
    assert result.output is PAT_BOTTOM
    assert gc_during_analysis == [False] and gc.isenabled()
    assert knodes() > 0
    gc.collect()
    assert knodes() == 0


# -- tier selection / status --------------------------------------------------

def test_configure_rejects_unknown_tier():
    with pytest.raises(ValueError):
        arena.configure(kernel="fortran")


def test_kernel_status_reports_active_tier():
    for tier in TIERS:
        arena.configure(kernel=tier)
        status = arena.kernel_status()
        assert status["requested"] == tier
        assert status["active"] == tier
        assert status["enabled"] in (True, False)


def test_python_tier_always_available():
    assert "python" in TIERS


# -- graceful fallback --------------------------------------------------------

def test_native_falls_back_without_toolchain(tmp_path, monkeypatch):
    """Requesting the native tier with no working compiler (and an
    empty build cache) degrades to the next tier and records why."""
    from repro.typegraph import _native

    monkeypatch.setenv("REPRO_KERNEL_CC", "/nonexistent-compiler")
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "empty"))
    _native._reset_for_tests()
    try:
        arena.configure(kernel="native")
        status = arena.kernel_status()
        assert status["requested"] == "native"
        assert status["active"] in ("numpy", "python")
        assert "native" in status["fallbacks"]
        assert "native tier unavailable" in status["fallbacks"]["native"]
        # the degraded tier still computes (and interns) correctly
        assert g_union(g_atom("a"), g_atom("b")) is \
            g_union(g_atom("b"), g_atom("a"))
    finally:
        monkeypatch.delenv("REPRO_KERNEL_CC")
        monkeypatch.delenv("REPRO_KERNEL_CACHE")
        _native._reset_for_tests()


def test_fallback_process_produces_identical_results(tmp_path):
    """A full analysis in a subprocess with no toolchain matches this
    process's fingerprint bit-for-bit."""
    from repro import analyze
    from repro.benchprogs import benchmark
    from repro.service.serialize import result_fingerprint

    bp = benchmark("QU")
    here = result_fingerprint(
        analyze(bp.source, bp.query, input_types=bp.input_types).result)

    env = dict(os.environ)
    env["REPRO_ARENA_KERNEL"] = "native"
    env["REPRO_KERNEL_CC"] = "/nonexistent-compiler"
    env["REPRO_KERNEL_CACHE"] = str(tmp_path / "empty")
    code = (
        "from repro.typegraph import arena\n"
        "status = arena.kernel_status()\n"
        "assert status['active'] in ('numpy', 'python'), status\n"
        "assert 'native' in status['fallbacks'], status\n"
        "from repro import analyze\n"
        "from repro.benchprogs import benchmark\n"
        "from repro.service.serialize import result_fingerprint\n"
        "bp = benchmark('QU')\n"
        "res = analyze(bp.source, bp.query, input_types=bp.input_types)\n"
        "print(result_fingerprint(res.result))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == here
