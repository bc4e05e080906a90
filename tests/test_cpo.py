from __future__ import annotations

import itertools

import pytest

from enrvar.algebra import Algebra, ordinary_signature
from enrvar.cpo import (
    CpoPresentation,
    IterationNotStabilized,
    cover_holds,
    free_omega_cpo,
    is_presentation_morphism,
    poset_as_presentation,
    satisfies_chain_relation,
)
from enrvar.relcore import (
    LE,
    FinStructure,
    StructureError,
    builtin_theory,
    chase,
    enumerate_morphisms,
    is_model,
)
from enrvar.isoenum import models_up_to
from enrvar.syntax import (
    App,
    Arity,
    ChainRelation,
    Context,
    Equation,
    ExplicitChain,
    IteratedChain,
    SortSet,
    Var,
)

from conftest import poset
from oracles import naive_free_completion

POS = builtin_theory("pos")
PREORD = builtin_theory("preord")
SIG = POS.signature
S = SortSet(("M",))


def preorder_of(carrier, pairs):
    raw = FinStructure(
        SIG,
        tuple(carrier),
        frozenset({(LE, p) for p in pairs} | {(LE, (x, x)) for x in carrier}),
    )
    return chase(raw, PREORD).model


class TestFreeCompletion:
    def test_no_covers_is_poset_reflection(self):
        pre = preorder_of(("a", "b"), [("a", "b"), ("b", "a")])
        out, unit = free_omega_cpo(CpoPresentation(pre, ()))
        assert out.carrier == ("a",)
        assert unit == {"a": "a", "b": "a"}
        assert is_model(out, POS)

    def test_cover_forces_below_chain_top(self):
        pre = preorder_of(
            ("p", "u0", "u1", "u2"), [("u0", "u1"), ("u1", "u2")]
        )
        pres = CpoPresentation(pre, (("p", ("u0", "u1", "u2")),))
        out, unit = free_omega_cpo(pres)
        assert (LE, ("p", "u2")) in out.edges
        assert (LE, ("p", "u1")) not in out.edges

    def test_reflexive_cover_changes_nothing(self):
        pre = preorder_of(("p",), [])
        out, unit = free_omega_cpo(CpoPresentation(pre, (("p", ("p",)),)))
        assert out == pre

    def test_unit_preserves_covers_and_is_monotone(self):
        pre = preorder_of(("p", "u0", "u1"), [("u0", "u1")])
        pres = CpoPresentation(pre, (("p", ("u0", "u1")),))
        out, unit = free_omega_cpo(pres)
        assert is_model(out, POS)
        assert is_presentation_morphism(unit, pres, out)

    def test_cover_set_must_be_a_chain(self):
        pre = preorder_of(("p", "u", "v"), [])
        with pytest.raises(StructureError):
            CpoPresentation(pre, (("p", ("u", "v")),))

    def test_universal_property_small(self):
        # every cover-preserving monotone map factors uniquely through the unit
        pre = preorder_of(("p", "u0", "u1"), [("u0", "u1")])
        pres = CpoPresentation(pre, (("p", ("u0", "u1")),))
        out, unit = free_omega_cpo(pres)
        for X in models_up_to(POS, 4, min_size=1):
            maps = [
                f
                for f in enumerate_morphisms(pre, X)
                if is_presentation_morphism(f, pres, X)
            ]
            for f in maps:
                factorizations = [
                    g
                    for g in enumerate_morphisms(out, X)
                    if all(g[unit[x]] == f[x] for x in pre.carrier)
                ]
                assert len(factorizations) == 1

    def test_agrees_with_naive_completion(self):
        # every preorder on <= 4 elements, with no cover, every single cover
        # and every pair of covers
        for pre in models_up_to(PREORD, 4):
            chains = [
                c
                for r in range(1, len(pre.carrier) + 1)
                for c in itertools.combinations(pre.carrier, r)
                if all(
                    (LE, (u, v)) in pre.edges or (LE, (v, u)) in pre.edges
                    for u, v in itertools.combinations(c, 2)
                )
            ]
            covers = [(p, c) for p in pre.carrier for c in chains]
            for chosen in [()] + [(c,) for c in covers] + list(itertools.combinations(covers, 2)):
                P = CpoPresentation(pre, chosen)
                out, unit = free_omega_cpo(P)
                assert (out.carrier, out.edges, unit) == naive_free_completion(P)


class TestPresentationMorphisms:
    def test_identity(self):
        pre = preorder_of(("a", "b"), [("a", "b")])
        pres = CpoPresentation(pre, (("a", ("a", "b")),))
        assert is_presentation_morphism({x: x for x in pre.carrier}, pres, pres)

    def test_cover_violation_detected(self):
        pre = preorder_of(("p", "u0", "u1"), [("u0", "u1")])
        pres = CpoPresentation(pre, (("p", ("u0", "u1")),))
        target = poset(("x", "y", "top"), [("x", "top")])
        f = {"p": "y", "u0": "x", "u1": "top"}
        # monotone, but y is not below the chain's top
        assert all(
            (LE, (f[a], f[b])) in target.edges
            for rel, (a, b) in pre.edges
            if rel == LE
        )
        assert not is_presentation_morphism(f, pres, target)

    def test_poset_regarded_as_presentation(self):
        X = poset(("x", "y"), [("x", "y")])
        assert cover_holds(X, "x", ("x", "y"))
        assert not cover_holds(X, "y", ("x",))

    def test_chain_images_may_repeat_an_element(self):
        X = poset(("x", "y"), [("x", "y")])
        assert cover_holds(X, "x", ("y", "y"))
        assert not cover_holds(X, "y", ("x", "x"))
        assert not cover_holds(X, "z", ("x",)) and not cover_holds(X, "x", ("z",))
        pre = preorder_of(("p", "u0", "u1"), [("u0", "u1")])
        pres = CpoPresentation(pre, (("p", ("u0", "u1")),))
        assert is_presentation_morphism({"p": "x", "u0": "y", "u1": "y"}, pres, X)
        assert not is_presentation_morphism({"p": "y", "u0": "x", "u1": "x"}, pres, X)

    def test_partial_map_rejected(self):
        pres = CpoPresentation(preorder_of(("a", "b"), [("a", "b")]))
        with pytest.raises(StructureError, match="'b' unassigned"):
            is_presentation_morphism({"a": "x"}, pres, poset(("x",), []))

    def test_map_leaving_the_target_is_not_a_morphism(self):
        pres = CpoPresentation(preorder_of(("a", "b"), [("a", "b")]))
        assert not is_presentation_morphism({"a": "x", "b": "zzz"}, pres, poset(("x",), []))

    def test_partial_map_leaving_the_target_rejected(self):
        # totality is checked before any value is read
        pres = CpoPresentation(preorder_of(("a", "b", "c"), []))
        with pytest.raises(StructureError, match="'c' unassigned"):
            is_presentation_morphism({"a": "zzz", "b": "x"}, pres, poset(("x",), []))

    def test_agrees_with_edge_set_filter_on_every_map(self):
        # criterion 7's presentations on <= 3 elements into the posets on
        # <= 3 elements; the reference maps every edge and every cover by
        # edge-set lookups
        posets = models_up_to(POS, 3, min_size=1)
        presentations = []
        for P in models_up_to(PREORD, 3):
            chains = [
                combo
                for r in range(1, len(P.carrier) + 1)
                for combo in itertools.combinations(P.carrier, r)
                if all(_comparable(P, a, b) for a, b in itertools.combinations(combo, 2))
            ]
            singles = [(p, chain) for p in P.carrier for chain in chains]
            pairs = list(itertools.combinations(singles, 2))
            presentations.append(CpoPresentation(P, ()))
            presentations += [CpoPresentation(P, (cover,)) for cover in singles]
            presentations += [CpoPresentation(P, pair) for pair in pairs[:: max(1, len(pairs) // 40)]]
        held = total = 0
        for pres, Y in itertools.product(presentations, posets):
            X = pres.preorder
            for image in itertools.product(Y.carrier, repeat=len(X.carrier)):
                f = dict(zip(X.carrier, image))
                expected = all(
                    (LE, (f[a], f[b])) in Y.edges for _, (a, b) in X.edges
                ) and all(
                    any(
                        all((LE, (f[u], f[t])) in Y.edges for u in chain)
                        and (LE, (f[p], f[t])) in Y.edges
                        for t in chain
                    )
                    for p, chain in pres.covers
                )
                assert is_presentation_morphism(f, pres, Y) == expected
                held += expected
                total += 1
        assert total > 20_000 and held > 5_000


def _comparable(P, a, b):
    return (LE, (a, b)) in P.edges or (LE, (b, a)) in P.edges


def max_monoid_algebra():
    J2 = Arity.of(S, {"M": 2})
    J0 = Arity.of(S, {})
    sig = ordinary_signature(S, POS, [("mul", J2, "M"), ("e", J0, "M")])
    A = poset(("0", "1"), [("0", "1")])
    mul = {(a, b): max(a, b) for a in A.carrier for b in A.carrier}
    return Algebra(sig, {"M": A}, {"mul": mul, "e": {(): "0"}})


class TestChainSatisfaction:
    def test_constant_chain(self):
        A = max_monoid_algebra()
        ctx = Context((("x", "M"),))
        x = Var(0)
        rel = ChainRelation(ctx, "M", ExplicitChain((x, x)), x)
        assert satisfies_chain_relation(A, rel)

    def test_idempotent_square_chain(self):
        A = max_monoid_algebra()
        ctx = Context((("x", "M"),))
        x = Var(0)
        xx = App("mul", (x, x))
        rel = ChainRelation(ctx, "M", ExplicitChain((x, xx)), x)
        assert satisfies_chain_relation(A, rel)

    def test_limit_strictly_above_tail_fails(self):
        A = max_monoid_algebra()
        ctx = Context((("x", "M"),))
        x = Var(0)
        bot = App("e")
        one = App("mul", (x, x))
        rel = ChainRelation(ctx, "M", ExplicitChain((bot, bot)), one)
        assert not satisfies_chain_relation(A, rel)

    def test_decreasing_chain_fails(self):
        A = max_monoid_algebra()
        ctx = Context((("x", "M"),))
        x = Var(0)
        bot = App("e")
        rel = ChainRelation(ctx, "M", ExplicitChain((x, bot)), bot)
        assert not satisfies_chain_relation(A, rel)

    def test_iterated_chain_stabilizes_on_tables(self):
        A = max_monoid_algebra()
        ctx = Context((("x", "M"),))
        x = Var(0)
        hole = Var(1)
        # seed e, step mul(x, hole): e, x, x, ... limit x
        rel = ChainRelation(
            ctx, "M", IteratedChain(App("e"), App("mul", (x, hole))), x
        )
        assert satisfies_chain_relation(A, rel)

    def test_iteration_agrees_with_deep_unrolling(self):
        A = max_monoid_algebra()
        ctx = Context((("x", "M"),))
        x = Var(0)
        hole = Var(1)
        rel = ChainRelation(
            ctx, "M", IteratedChain(App("e"), App("mul", (x, hole))), x
        )
        # oracle: unfold far past the pigeonhole bound and compare tail tables
        from enrvar.algebra import interpret_term
        from enrvar.syntax import substitute, extended_context

        hole_ctx = extended_context(ctx, "M")
        term = App("e")
        for _ in range(40):
            term = substitute(
                App("mul", (x, hole)), hole_ctx, (Var(0), term)
            )
        tail = interpret_term(A, ctx, term)
        limit = interpret_term(A, ctx, x)
        assert (tail == limit) == satisfies_chain_relation(A, rel)
