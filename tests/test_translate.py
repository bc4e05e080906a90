from __future__ import annotations

import pytest

from enrvar.algebra import (
    Algebra,
    ClassicalTheoryWithRelations,
    EnrichedSignature,
    EnrichedTheory,
    OpDecl,
    enumerate_algebras,
    ordinary_signature,
    satisfies_theory,
)
from enrvar.dsl import parse_theory
from enrvar.isoenum import model_families
from enrvar.relcore import LE, builtin_theory, terminal
from enrvar.syntax import (
    App,
    Arity,
    ChainRelation,
    Equation,
    ExplicitChain,
    IteratedChain,
    RelationAtom,
    SortSet,
    Var,
    canonical_context,
)
from enrvar.translate import (
    Correspondence,
    cpo_classical_to_enriched,
    cpo_enriched_to_classical,
    enriched_to_relational,
    identity_correspondence,
    infer_correspondence,
    materialize_chain,
    relational_to_enriched,
    verify_theory_equivalence,
)
from enrvar.cpo import IterationNotStabilized

from conftest import FIXTURES, poset

POS = builtin_theory("pos")
S = SortSet(("M",))
J0 = Arity.of(S, {})
J1 = Arity.of(S, {"M": 1})
J2 = Arity.of(S, {"M": 2})


def ordered_monoid():
    return parse_theory((FIXTURES / "ordered_monoid.thy").read_text()).theories[
        "ordered_monoid"
    ]


def two_chain_param():
    return poset(("lo", "hi"), [("lo", "hi")])


class TestEnrichedToRelational:
    def test_two_chain_parameter_gives_one_inequation(self):
        sig = EnrichedSignature(S, POS, (OpDecl("act", J1, "M", two_chain_param()),))
        T = EnrichedTheory(sig, ())
        P, _ = enriched_to_relational(T)
        # relation count equals the parameter's edge count (two loops + one step)
        assert len(P.relations) == 3
        step = [
            r
            for r in P.relations
            if r.args[0] != r.args[1]
        ]
        assert len(step) == 1
        assert step[0].args == (
            App("act@lo", (Var(0),)),
            App("act@hi", (Var(0),)),
        )

    def test_terminal_parameters_give_reflexive_atoms_only(self):
        T = EnrichedTheory(
            ordinary_signature(S, POS, [("f", J1, "M")]), ()
        )
        P, _ = enriched_to_relational(T)
        assert all(len(set(r.args)) == 1 for r in P.relations)
        assert len(P.relations) == 1

    def test_relation_count_is_total_parameter_edges(self):
        pm = two_chain_param()
        sig = EnrichedSignature(
            S,
            POS,
            (
                OpDecl("act", J1, "M", pm),
                OpDecl("mul", J2, "M", terminal(POS.signature)),
            ),
        )
        T = EnrichedTheory(sig, ())
        P, _ = enriched_to_relational(T)
        assert len(P.relations) == len(pm.edges) + len(terminal(POS.signature).edges)

    def test_equations_carry_over(self):
        P0 = ordered_monoid()
        T, _ = relational_to_enriched(P0)
        P, _ = enriched_to_relational(T)
        assert set(P0.equations) <= set(P.equations)


class TestRelationalToEnriched:
    def test_single_inequation_construction_trace(self):
        sig = ordinary_signature(S, POS, [("f", J1, "M")])
        x = Var(0)
        atom = RelationAtom(canonical_context(J1), LE, (x, App("f", (x,))), "M")
        P = ClassicalTheoryWithRelations(sig, (atom,), ())
        T, _ = relational_to_enriched(P)
        new_ops = [op for op in T.signature.ops if op.name not in ("f",)]
        assert len(new_ops) == 1
        param = new_ops[0].param
        # two terms, one step edge, loops added by the chase
        assert len(param.carrier) == 2
        assert len(param.edges) == 3
        assert len(T.equations) == 2

    def test_empty_relations_leave_theory_unchanged(self):
        sig = ordinary_signature(S, POS, [("f", J1, "M")])
        P = ClassicalTheoryWithRelations(sig, (), ())
        T, _ = relational_to_enriched(P)
        assert T.signature.ops == sig.ops
        assert T.equations == ()

    def test_new_equation_count_is_term_occurrences(self):
        P = ordered_monoid()
        T, _ = relational_to_enriched(P)
        # one relation with two distinct terms
        assert len(T.equations) == len(P.equations) + 2

    def test_antisymmetry_merges_parameter_terms(self):
        # x <= f(x) and f(x) <= x force a one-point parameter
        sig = ordinary_signature(S, POS, [("f", J1, "M")])
        x = Var(0)
        ctx = canonical_context(J1)
        atoms = (
            RelationAtom(ctx, LE, (x, App("f", (x,))), "M"),
            RelationAtom(ctx, LE, (App("f", (x,)), x), "M"),
        )
        P = ClassicalTheoryWithRelations(sig, atoms, ())
        T, _ = relational_to_enriched(P)
        new_op = [op for op in T.signature.ops if op.name != "f"][0]
        assert len(new_op.param.carrier) == 1
        # both pinning equations survive, now naming the same parameter point
        assert len(T.equations) == 2


class TestVerifyEquivalence:
    def test_identity_passes(self):
        T = ordered_monoid()
        report = verify_theory_equivalence(T, T, 2, identity_correspondence(T, T))
        assert report.ok

    def test_roundtrip_counts_match(self):
        P = ordered_monoid()
        T, corr = relational_to_enriched(P)
        report = verify_theory_equivalence(P, T, 2, corr)
        assert report.ok
        P2, corr2 = enriched_to_relational(T)
        report2 = verify_theory_equivalence(T, P2, 2, corr2)
        assert report2.ok

    def test_satisfaction_transport(self):
        P = ordered_monoid()
        T, corr = relational_to_enriched(P)
        for fam in model_families(POS, S, 2):
            for A in enumerate_algebras(P, fam):
                image = corr.forward(A)
                assert satisfies_theory(image, T)
                assert corr.backward(image).interp == A.interp
            for B in enumerate_algebras(T, fam):
                back = corr.backward(B)
                assert satisfies_theory(back, P)

    def test_detects_genuinely_different_theories(self):
        sig = ordinary_signature(S, POS, [("f", J1, "M")])
        x = Var(0)
        ctx = canonical_context(J1)
        up = ClassicalTheoryWithRelations(
            sig, (RelationAtom(ctx, LE, (x, App("f", (x,))), "M"),), ()
        )
        plain = ClassicalTheoryWithRelations(sig, (), ())
        report = verify_theory_equivalence(plain, up, 2, identity_correspondence(plain, up))
        assert not report.ok

    def test_infer_correspondence(self):
        P = ordered_monoid()
        T, _ = relational_to_enriched(P)
        assert infer_correspondence(P, T).label == "free-parameter expansion"
        P2, _ = enriched_to_relational(T)
        assert infer_correspondence(T, P2).label == "identity"


def unary_map_theory():
    """One operation f : M -> M over set: A^A algebras on a carrier A."""
    sig = ordinary_signature(S, builtin_theory("set"), [("f", J1, "M")])
    return ClassicalTheoryWithRelations(sig, (), ())


def pointed():
    return parse_theory((FIXTURES / "pointed.thy").read_text()).theories["pointed"]


class TestHomPairCap:
    @pytest.mark.parametrize("seed", [None, 0])
    def test_rows_check_at_most_the_limit(self, seed):
        T = unary_map_theory()
        report = verify_theory_equivalence(
            T, T, 2, identity_correspondence(T, T), hom_pair_limit=3, seed=seed
        )
        assert report.ok
        assert [r.count_left for r in report.rows] == [1, 1, 4]
        # the 4-algebra row has 16 pairs, more than the limit
        assert [r.hom_pairs_checked for r in report.rows] == [1, 1, 3]


class TestComparisonFailures:
    """Each way a carrier row can fail, reached through the verifier."""

    def test_algebra_counts_differ(self):
        T = unary_map_theory()
        x = Var(0)
        idem = ClassicalTheoryWithRelations(
            T.signature,
            (),
            (Equation(canonical_context(J1), App("f", (App("f", (x,)),)), App("f", (x,)), "M"),),
        )
        report = verify_theory_equivalence(T, idem, 2, identity_correspondence(T, idem))
        assert not report.ok
        assert [(r.count_left, r.count_right, r.detail) for r in report.rows] == [
            (1, 1, ""),
            (1, 1, ""),
            (4, 3, "algebra counts differ"),
        ]
        assert report.rows[-1].bijection == []
        assert report.rows[-1].hom_pairs_checked == 0

    def test_no_fresh_partner(self):
        T = unary_map_theory()

        def to_identity_map(A: Algebra) -> Algebra:
            X = A.carrier["M"]
            return Algebra(A.signature, A.carrier, {"f": {(v,): v for v in X.carrier}})

        report = verify_theory_equivalence(T, T, 2, Correspondence(to_identity_map))
        # on two elements algebra 0 is the first to reach the identity map,
        # and algebra 1 finds its partner taken
        row = report.rows[-1]
        assert not row.ok
        assert row.detail == "no fresh partner for algebra 1"
        assert len(row.bijection) == 1
        assert all(r.ok for r in report.rows[:-1])

    def test_image_outside_the_target_has_no_partner(self):
        T = unary_map_theory()
        x = Var(0)
        const = ClassicalTheoryWithRelations(
            T.signature,
            (),
            (Equation(canonical_context(J2), App("f", (x,)), App("f", (Var(1),)), "M"),),
        )
        involution = ClassicalTheoryWithRelations(
            T.signature,
            (),
            (Equation(canonical_context(J1), App("f", (App("f", (x,)),)), x, "M"),),
        )
        # two algebras each on two elements, but no constant map is an involution
        report = verify_theory_equivalence(
            const, involution, 2, identity_correspondence(const, involution)
        )
        assert [(r.count_left, r.count_right, r.detail) for r in report.rows] == [
            (1, 1, ""),
            (1, 1, ""),
            (2, 2, "no fresh partner for algebra 0"),
        ]

    def test_hom_structures_differ(self):
        T = pointed()

        def swap(A: Algebra) -> Algebra:
            # reverse the carrier in every table value: on two elements the
            # point moves to the other element, an algebra but not the same one
            X = A.carrier["A"]
            other = dict(zip(X.carrier, reversed(X.carrier)))
            interp = {k: {a: other[v] for a, v in t.items()} for k, t in A.interp.items()}
            return Algebra(A.signature, A.carrier, interp)

        report = verify_theory_equivalence(T, T, 2, Correspondence(swap))
        row = report.rows[-1]
        assert row.bijection == [(0, 1), (1, 0)]
        assert not row.ok
        assert row.detail == "hom structures differ at pair (0,0)"
        assert row.hom_pairs_checked == 0


class TestChainTranslations:
    def test_two_chain_parameter_gives_one_chain_relation(self):
        sig = EnrichedSignature(S, POS, (OpDecl("act", J1, "M", two_chain_param()),))
        T = EnrichedTheory(sig, ())
        P, _ = cpo_enriched_to_classical(T)
        assert len(P.chain_relations) == 1
        ch = P.chain_relations[0]
        assert isinstance(ch.chain, ExplicitChain)
        assert [str(t) for t in ch.chain.terms] == ["act@lo(v1)", "act@hi(v1)"]
        assert str(ch.limit) == "act@hi(v1)"

    def test_discrete_parameter_gives_singleton_chains(self):
        disc = poset(("p", "q"), [])
        sig = EnrichedSignature(S, POS, (OpDecl("act", J1, "M", disc),))
        P, _ = cpo_enriched_to_classical(EnrichedTheory(sig, ()))
        assert len(P.chain_relations) == 2
        assert all(len(c.chain.terms) == 1 for c in P.chain_relations)

    def test_chain_length_tracks_height(self):
        c3 = poset(("0", "1", "2"), [("0", "1"), ("1", "2"), ("0", "2")])
        sig = EnrichedSignature(S, POS, (OpDecl("act", J1, "M", c3),))
        P, _ = cpo_enriched_to_classical(EnrichedTheory(sig, ()))
        assert len(P.chain_relations) == 1
        assert len(P.chain_relations[0].chain.terms) == 3

    def test_classical_to_enriched_trace(self):
        sig = ordinary_signature(S, POS, [("f", J1, "M"), ("bot", J0, "M")])
        x = Var(0)
        ctx = canonical_context(J1)
        ch = ChainRelation(
            ctx,
            "M",
            ExplicitChain((App("bot"), App("f", (x,)))),
            App("f", (App("f", (x,)),)),
        )
        P = ClassicalTheoryWithRelations(sig, (), (), (ch,))
        T, _ = cpo_classical_to_enriched(P)
        new_op = [op for op in T.signature.ops if op.name.startswith("lub")][0]
        # three presentation terms; the completion merges the limit with the
        # chain's top (the sup of an eventually constant chain is its tail),
        # so the parameter has two points but all three pinning equations
        assert len(new_op.param.carrier) == 2
        assert len(T.equations) == 3
        pinned = {(str(e.lhs), str(e.rhs)) for e in T.equations}
        assert ("lub_M1_M@f(v1)(v1)", "f(f(v1))") in pinned

    def test_constant_chain_adds_only_poset_reflection(self):
        sig = ordinary_signature(S, POS, [("f", J1, "M")])
        x = Var(0)
        ctx = canonical_context(J1)
        fx = App("f", (x,))
        ch = ChainRelation(ctx, "M", ExplicitChain((fx, fx)), fx)
        P = ClassicalTheoryWithRelations(sig, (), (), (ch,))
        T, _ = cpo_classical_to_enriched(P)
        new_op = [op for op in T.signature.ops if op.name.startswith("lub")][0]
        assert len(new_op.param.carrier) == 1

    def test_iterated_chain_materialization(self):
        ctx = canonical_context(J1)
        x, hole = Var(0), Var(1)
        stabilizing = ChainRelation(
            ctx, "M", IteratedChain(App("bot"), App("f", (x,))), App("f", (x,))
        )
        # step ignores the hole: bot, f(x), f(x), ...
        assert [str(t) for t in materialize_chain(stabilizing)] == ["bot", "f(v1)"]
        growing = ChainRelation(
            ctx, "M", IteratedChain(x, App("f", (hole,))), x
        )
        with pytest.raises(IterationNotStabilized):
            materialize_chain(growing, stabilization_bound=16)

    def test_agrees_with_plain_translation_on_constant_chains(self):
        # chains constant at their limit carry the same algebras as no chains
        sig = ordinary_signature(S, POS, [("f", J1, "M")])
        x = Var(0)
        ctx = canonical_context(J1)
        fx = App("f", (x,))
        chain_theory = ClassicalTheoryWithRelations(
            sig, (), (), (ChainRelation(ctx, "M", ExplicitChain((fx,)), fx),)
        )
        plain_theory = ClassicalTheoryWithRelations(sig, (), ())
        for fam in model_families(POS, S, 2):
            a = enumerate_algebras(chain_theory, fam)
            b = enumerate_algebras(plain_theory, fam)
            assert len(a) == len(b)

    def test_cpo_roundtrip_algebra_counts(self):
        P = parse_theory((FIXTURES / "cpo_explicit.thy").read_text()).theories[
            "cpo_explicit"
        ]
        T, corr = cpo_classical_to_enriched(P)
        report = verify_theory_equivalence(P, T, 2, corr)
        assert report.ok
