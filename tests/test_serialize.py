"""Tests for the canonical serialization and content-hashing layer."""

import json

import pytest

from repro import AnalysisConfig, analyze
from repro.benchprogs import BENCHMARKS, benchmark
from repro.domains.leaf import (TrivialLeafDomain, TypeLeafDomain,
                                domain_from_descriptor)
from repro.domains.pattern import PAT_BOTTOM, subst_eq, subst_top
from repro.service.serialize import (FORMAT_VERSION, canonical_json,
                                     config_hash, content_hash,
                                     decode_config, decode_grammar,
                                     decode_input_types, decode_result,
                                     decode_subst, encode_config,
                                     encode_grammar, encode_input_types,
                                     encode_result, encode_subst,
                                     grammar_content_hash,
                                     predicate_hashes, program_hash)
from repro.typegraph.grammar import (FuncAlt, Grammar, g_any, g_atom,
                                     g_bottom, g_int, g_int_literal)
from repro.typegraph.ops import g_list_of, g_union


def json_rt(obj):
    """Force a real trip through JSON text."""
    return json.loads(json.dumps(obj))


# -- grammars ----------------------------------------------------------------

@pytest.mark.parametrize("grammar", [
    g_any(), g_bottom(), g_int(), g_atom("a"), g_atom("[]"),
    g_int_literal(42), g_list_of(g_int()),
    g_union(g_atom("a"), g_int()),
    g_list_of(g_list_of(g_any())),
])
def test_grammar_roundtrip(grammar):
    assert decode_grammar(json_rt(encode_grammar(grammar))) == grammar


@pytest.mark.parametrize("grammar", [
    g_any(), g_atom("caf\u00e9"), g_list_of(g_int()),
    Grammar({0: frozenset([FuncAlt("f", (0,)), FuncAlt("a")])}, 0),
])
def test_grammar_content_hash_is_the_content_hash(grammar):
    digest = content_hash(encode_grammar(grammar))
    assert grammar_content_hash(grammar) == digest
    assert grammar_content_hash(grammar) == digest   # memo warm


def test_grammar_encoding_is_canonical():
    g1 = g_union(g_atom("a"), g_int())
    g2 = g_union(g_int(), g_atom("a"))
    assert canonical_json(encode_grammar(g1)) == \
        canonical_json(encode_grammar(g2))


# -- substitutions -----------------------------------------------------------

def test_subst_bottom_roundtrip(type_domain):
    assert decode_subst(json_rt(encode_subst(PAT_BOTTOM, type_domain)),
                        type_domain) is PAT_BOTTOM


def test_subst_top_roundtrip(type_domain):
    top = subst_top(3, type_domain)
    assert decode_subst(json_rt(encode_subst(top, type_domain)),
                        type_domain) == top


def test_subst_with_patterns_roundtrip(nreverse_source, type_domain):
    analysis = analyze(nreverse_source, ("nreverse", 2))
    for entry in analysis.result.entries:
        for subst in (entry.beta_in, entry.beta_out):
            data = json_rt(encode_subst(subst, analysis.domain))
            assert decode_subst(data, analysis.domain) == subst


def test_subst_trivial_domain_roundtrip(trivial_domain):
    top = subst_top(2, trivial_domain)
    assert decode_subst(json_rt(encode_subst(top, trivial_domain)),
                        trivial_domain) == top


# -- whole results -----------------------------------------------------------

def test_result_roundtrip(nreverse_source):
    analysis = analyze(nreverse_source, ("nreverse", 2))
    result = analysis.result
    decoded = decode_result(json_rt(encode_result(result)))
    assert len(decoded.entries) == len(result.entries)
    for original, restored in zip(result.entries, decoded.entries):
        assert restored.id == original.id
        assert restored.pred == original.pred
        assert restored.beta_in == original.beta_in
        assert restored.beta_out == original.beta_out
        assert restored.dependents == original.dependents
    assert decoded.root_entry.id == result.root_entry.id
    assert decoded.output == result.output
    assert decoded.unknown_predicates == result.unknown_predicates
    assert decoded.stats.procedure_iterations == \
        result.stats.procedure_iterations


def test_result_roundtrip_baseline(nreverse_source):
    analysis = analyze(nreverse_source, ("nreverse", 2), baseline=True)
    decoded = decode_result(json_rt(encode_result(analysis.result)))
    assert isinstance(decoded.domain, TrivialLeafDomain)
    assert subst_eq(decoded.output, analysis.result.output,
                    decoded.domain)


def test_result_rejects_unknown_version(nreverse_source):
    analysis = analyze(nreverse_source, ("nreverse", 2))
    payload = encode_result(analysis.result)
    payload["version"] = FORMAT_VERSION + 1
    with pytest.raises(ValueError):
        decode_result(payload)


# -- domain descriptors ------------------------------------------------------

def test_domain_descriptor_roundtrip():
    domain = TypeLeafDomain(max_or_width=5)
    rebuilt = domain_from_descriptor(json_rt(domain.descriptor()))
    assert isinstance(rebuilt, TypeLeafDomain)
    assert rebuilt.max_or_width == 5
    trivial = domain_from_descriptor(
        json_rt(TrivialLeafDomain().descriptor()))
    assert isinstance(trivial, TrivialLeafDomain)


def test_domain_descriptor_type_database():
    domain = TypeLeafDomain(type_database=[g_list_of(g_int())])
    rebuilt = domain_from_descriptor(json_rt(domain.descriptor()))
    assert rebuilt.type_database == [g_list_of(g_int())]


# -- configs and input types -------------------------------------------------

def test_config_roundtrip():
    config = AnalysisConfig(max_or_width=2, max_input_patterns=4,
                            widening_delay=1,
                            type_database=[g_list_of(g_any())])
    decoded = decode_config(json_rt(encode_config(config)))
    assert decoded == config


def test_config_hash_distinguishes():
    assert config_hash(AnalysisConfig()) == config_hash(None)
    assert config_hash(AnalysisConfig(max_or_width=5)) != \
        config_hash(AnalysisConfig())


def test_config_roundtrip_engine_knobs():
    config = AnalysisConfig(differential=False, scheduler="scc")
    decoded = decode_config(json_rt(encode_config(config)))
    assert decoded.differential is False
    assert decoded.scheduler == "scc"


def test_config_hash_engine_knob_semantics():
    # differential on/off computes bit-identical tables, so it must
    # not split the result cache; the scheduler may reach a different
    # (equally sound) table, so it must.
    assert config_hash(AnalysisConfig(differential=False)) == \
        config_hash(AnalysisConfig())
    assert config_hash(AnalysisConfig(scheduler="scc")) != \
        config_hash(AnalysisConfig())


def test_input_types_roundtrip():
    assert decode_input_types(encode_input_types(None)) is None
    specs = ["list", "any", g_list_of(g_int())]
    decoded = decode_input_types(json_rt(encode_input_types(specs)))
    assert decoded[:2] == ["list", "any"]
    assert decoded[2] == g_list_of(g_int())


# -- program hashing ---------------------------------------------------------

def test_program_hash_ignores_whitespace_and_comments(append_source):
    noisy = "% a comment\n" + append_source.replace("\n", "\n\n") + "   \n"
    assert program_hash(append_source) == program_hash(noisy)


def test_program_hash_sees_clause_changes(append_source):
    edited = append_source + "\nappend(x, y, z).\n"
    assert program_hash(append_source) != program_hash(edited)


def test_predicate_hashes_are_per_predicate(nreverse_source):
    hashes = predicate_hashes(nreverse_source)
    assert set(hashes) == {("append", 3), ("nreverse", 2)}
    edited = nreverse_source + "\nnreverse(x, x).\n"
    new_hashes = predicate_hashes(edited)
    assert new_hashes[("append", 3)] == hashes[("append", 3)]
    assert new_hashes[("nreverse", 2)] != hashes[("nreverse", 2)]


def test_content_hash_stable_across_key_order():
    assert content_hash({"a": 1, "b": 2}) == content_hash({"b": 2, "a": 1})


def test_payload_fingerprint_matches_result_fingerprint(nreverse_source):
    from repro.service.serialize import (payload_fingerprint,
                                         result_fingerprint)
    for baseline in (False, True):
        result = analyze(nreverse_source, ("nreverse", 2),
                         baseline=baseline).result
        payload = json_rt(encode_result(result))
        assert payload_fingerprint(payload) == result_fingerprint(result)


def _dict_fingerprint(result):
    """``result_fingerprint`` as a hash of per-entry dicts sorted by
    their canonical JSON (how it was first written): the oracle for
    the text-joining implementation."""
    domain = result.domain

    def tuple_of(entry):
        return {"pred": list(entry.pred),
                "beta_in": encode_subst(entry.beta_in, domain),
                "beta_out": encode_subst(entry.beta_out, domain),
                "seeded": entry.seeded}

    return content_hash({
        "domain": domain.descriptor(),
        "root": tuple_of(result.root_entry),
        "entries": sorted((tuple_of(e) for e in result.entries),
                          key=canonical_json),
        "unknown_predicates": [list(p) for p in result.unknown_predicates],
    })


def _assert_fingerprint_identity(result):
    from repro.service.serialize import (payload_fingerprint,
                                         result_fingerprint)
    fingerprint = result_fingerprint(result)
    assert fingerprint == payload_fingerprint(encode_result(result))
    assert fingerprint == _dict_fingerprint(result)
    assert result_fingerprint(result) == fingerprint   # memo warm


_FINGERPRINT_CONFIGS = {
    "full": {},
    "or5": {"config": AnalysisConfig(max_or_width=5)},
    "or2": {"config": AnalysisConfig(max_or_width=2)},
    "baseline": {"baseline": True},
}


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_result_fingerprint_matches_payload_and_dict_oracle(name):
    bp = benchmark(name)
    for options in _FINGERPRINT_CONFIGS.values():
        _assert_fingerprint_identity(analyze(
            bp.source, bp.query, input_types=bp.input_types,
            **options).result)


def test_result_fingerprint_identity_depth_k_and_seeded():
    from repro.domains.leaf import DepthBoundLeafDomain
    bp = benchmark("KA")
    _assert_fingerprint_identity(analyze(
        bp.source, bp.query, input_types=bp.input_types,
        domain=DepthBoundLeafDomain(1)).result)
    first = analyze(bp.source, bp.query, input_types=bp.input_types).result
    seeds = [(e.pred, e.beta_in, e.beta_out) for e in first.entries]
    seeded = analyze(bp.source, bp.query, input_types=bp.input_types,
                     seeds=seeds).result
    assert any(e.seeded for e in seeded.entries)
    _assert_fingerprint_identity(seeded)


def test_result_fingerprint_identity_escaped_names():
    source = ("p('caf\u00e9', X) :- q(X).\n"
              "q('a\"b\\\\c').\nq([1, '\u00fc'|_]).\n")
    for options in _FINGERPRINT_CONFIGS.values():
        _assert_fingerprint_identity(analyze(source, ("p", 2),
                                             **options).result)


def test_stats_roundtrip_disjunction_fallbacks():
    disj = " , ".join("(X%d = a ; X%d = b)" % (i, i) for i in range(8))
    head = ", ".join("X%d" % i for i in range(8))
    result = analyze("p(%s) :- %s.\n" % (head, disj), ("p", 8)).result
    assert result.stats.disjunction_fallbacks > 0
    decoded = decode_result(json_rt(encode_result(result)))
    assert (decoded.stats.disjunction_fallbacks
            == result.stats.disjunction_fallbacks)
