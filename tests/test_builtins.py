"""Unit tests for the abstract builtin table and its use by the
engine."""

import pytest

from repro import analyze
from repro.domains.leaf import TrivialLeafDomain, TypeLeafDomain
from repro.domains.pattern import PAT_BOTTOM, value_of
from repro.fixpoint.builtins import BUILTINS, is_builtin, tag_value
from repro.typegraph import (g_any, g_equiv, g_int, g_le, g_list_of,
                             parse_rules)


class TestTable:
    def test_core_builtins_present(self):
        for pred in [("is", 2), ("<", 2), ("=..", 2), ("functor", 3),
                     ("true", 0), ("fail", 0), ("!", 0), ("var", 1),
                     ("write", 1), ("\\+", 1)]:
            assert is_builtin(pred), pred

    def test_tag_arity_matches_pred_arity(self):
        for (name, arity), spec in BUILTINS.items():
            assert len(spec.tags) == arity, (name, arity)

    def test_only_fail_like_builtins_fail(self):
        failing = {pred for pred, spec in BUILTINS.items() if spec.fails}
        assert failing == {("fail", 0), ("false", 0), ("halt", 0)}


class TestTagValues:
    def test_type_domain_values(self):
        domain = TypeLeafDomain()
        assert g_equiv(tag_value(domain, "int"), g_int())
        assert g_equiv(tag_value(domain, "list"), g_list_of(g_any()))
        assert g_equiv(tag_value(domain, "codes"), g_list_of(g_int()))
        assert tag_value(domain, "any").is_any()

    def test_ordering_tag(self):
        domain = TypeLeafDomain()
        g = tag_value(domain, "ordering")
        assert g_equiv(g, parse_rules("T ::= < | = | >"))

    def test_trivial_domain_ignores_tags(self):
        domain = TrivialLeafDomain()
        from repro.domains.leaf import TOP
        assert tag_value(domain, "int") is TOP
        assert tag_value(domain, "list") is TOP

    def test_values_shared_across_domain_instances(self):
        """One memo entry per tag, whatever the number of domains: the
        memo neither grows per analysis nor depends on addresses."""
        from repro.fixpoint import builtins
        domains = [TypeLeafDomain(w) for w in (None, 2, 5)]
        for tag in ("int", "list", "codes", "ordering"):
            values = {id(tag_value(d, tag)) for d in domains}
            assert len(values) == 1, tag
        assert set(builtins._TAG_CACHE) <= {"int", "list", "codes",
                                            "ordering"}

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            tag_value(TypeLeafDomain(), "nonsense")


class TestAbstractSemantics:
    def out_type(self, src, query, arg):
        analysis = analyze(src, query)
        out = analysis.output
        assert out is not PAT_BOTTOM
        return value_of(out, out.sv[arg], analysis.domain, {})

    def test_is_produces_integer(self):
        g = self.out_type("p(X, Y) :- X is Y + 1.", ("p", 2), 0)
        assert g_le(g, g_int())

    def test_univ_produces_list(self):
        g = self.out_type("p(X, L) :- X =.. L.", ("p", 2), 1)
        assert g_le(g, g_list_of(g_any()))

    def test_name_produces_codes(self):
        g = self.out_type("p(X, L) :- name(X, L).", ("p", 2), 1)
        assert g_le(g, g_list_of(g_int()))

    def test_length_constrains_both(self):
        analysis = analyze("p(L, N) :- length(L, N).", ("p", 2))
        out = analysis.output
        g0 = value_of(out, out.sv[0], analysis.domain, {})
        g1 = value_of(out, out.sv[1], analysis.domain, {})
        assert g_le(g0, g_list_of(g_any()))
        assert g_le(g1, g_int())

    def test_comparison_is_identity(self):
        g = self.out_type("p(X) :- q(X), X < 3. q(1). q(f(a)).",
                          ("p", 1), 0)
        # identity transfer: the disjunction survives the test
        assert g_equiv(g, parse_rules("T ::= 1 | f(T1)\nT1 ::= a"))

    def test_is_refutes_structures(self):
        # X is bound to a structure, then required to be an integer
        analysis = analyze("p(X) :- X = f(a), X is 1 + 1.", ("p", 1))
        assert analysis.output is PAT_BOTTOM

    def test_compare_order_atoms(self):
        g = self.out_type("p(O) :- compare(O, a, b).", ("p", 1), 0)
        assert g_le(g, parse_rules("T ::= < | = | >"))

    def test_functor_third_argument_int(self):
        g = self.out_type("p(N) :- functor(f(a,b), _, N).", ("p", 1), 0)
        assert g_le(g, g_int())


class TestIsoAdditions:
    """PR 5: common ISO predicates real programs use must not fall
    into the unknown-predicate identity bucket."""

    NEW = [("sort", 2), ("msort", 2), ("keysort", 2),
           ("atom_length", 2), ("number_chars", 2), ("char_code", 2),
           ("succ", 2)]

    def test_present(self):
        for pred in self.NEW:
            assert is_builtin(pred), pred

    def test_no_unknown_predicate_reported(self):
        source = """
        p(L, S, N, Cs, C, M) :-
            msort(L, L1), sort(L1, S), keysort([a-1], _),
            atom_length(foo, N), number_chars(N, Cs),
            char_code(a, C), succ(N, M).
        """
        analysis = analyze(source, ("p", 6))
        assert analysis.result.unknown_predicates == []

    def test_sort_produces_lists(self):
        analysis = analyze("p(L, S) :- sort(L, S).", ("p", 2))
        out = analysis.output
        for arg in (0, 1):
            g = value_of(out, out.sv[arg], analysis.domain, {})
            assert g_le(g, g_list_of(g_any()))

    def test_succ_produces_integers(self):
        analysis = analyze("p(X, Y) :- succ(X, Y).", ("p", 2))
        out = analysis.output
        for arg in (0, 1):
            g = value_of(out, out.sv[arg], analysis.domain, {})
            assert g_le(g, g_int())

    def test_atom_length_second_int(self):
        analysis = analyze("p(N) :- atom_length(abc, N).", ("p", 1))
        out = analysis.output
        g = value_of(out, out.sv[0], analysis.domain, {})
        assert g_le(g, g_int())

    def test_defined_predicate_still_wins(self):
        # gen/succ-style programs *define* succ/2; the abstract table
        # must not shadow user definitions.
        source = """
        succ([], []).
        succ([X|Xs], [s(X)|R]) :- succ(Xs, R).
        p(X, Y) :- succ(X, Y).
        """
        analysis = analyze(source, ("p", 2))
        out = analysis.output
        g = value_of(out, out.sv[0], analysis.domain, {})
        assert g_le(g, g_list_of(g_any()))
