from __future__ import annotations

import itertools
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from enrvar import relcore
from enrvar.budget import Budget, BudgetExceeded
from enrvar.relcore import (
    EQ,
    LE,
    FinStructure,
    HeytingAlgebra,
    HornFormula,
    HornTheory,
    NotClosed,
    RelSignature,
    SignatureMismatch,
    StructureError,
    builtin_theory,
    chase,
    count_morphisms,
    curry,
    enumerate_morphisms,
    evaluation_table,
    exponential,
    heyting_chain,
    is_model,
    is_pi_morphism,
    pairing,
    product,
    projection,
    reflexivity_formula,
    satisfies_formula,
    structure_to_json,
    terminal,
    uncurry,
)
from enrvar.dsl import parse_theory
from enrvar.isoenum import all_models, all_structures, models_up_to
from enrvar.monad import graph_presentation

from conftest import FIXTURES, poset, random_structure
from oracles import (
    brute_morphisms,
    exp_edge_holds,
    naive_chase,
    naive_models,
    naive_qcat_axioms,
    naive_satisfies_formula,
    naive_simp_axioms,
    naive_structures,
)
from test_monad import SATURATING

POS = builtin_theory("pos")
PREORD = builtin_theory("preord")
SIG = POS.signature

# A theory with the premise shapes no builtin has: a repeated variable inside
# one premise, a conclusion-only variable, a nullary relation, a ternary
# relation and an equality conclusion.
_MIXED_SIG = RelSignature((("R", 2), ("S", 2), ("U", 1), ("P", 0), ("Q", 3)))
MIXED = HornTheory(
    _MIXED_SIG,
    tuple(reflexivity_formula(rel, ar) for rel, ar in _MIXED_SIG.symbols)
    + (
        HornFormula(frozenset({("R", ("x", "x")), ("U", ("x",))}), ("S", ("x", "y"))),
        HornFormula(frozenset({("R", ("x", "y")), ("R", ("y", "x")), ("P", ())}), (EQ, ("x", "y"))),
        HornFormula(frozenset({("Q", ("x", "y", "y"))}), ("R", ("y", "x"))),
        HornFormula(frozenset({("R", ("x", "y")), ("S", ("y", "z"))}), ("Q", ("x", "y", "z"))),
    ),
    name="mixed",
)


def edge(a, b):
    return (LE, (a, b))


class TestPiMorphism:
    def test_identity(self, chain2):
        assert is_pi_morphism({x: x for x in chain2.carrier}, chain2, chain2)

    def test_edge_image_failure(self, chain2, discrete2):
        f = {"a": "a", "b": "b"}
        assert not is_pi_morphism(f, chain2, discrete2)

    def test_constant_maps_into_models(self, chain3, discrete2):
        # reflexive theories admit constant morphisms
        for y in discrete2.carrier:
            assert is_pi_morphism({x: y for x in chain3.carrier}, chain3, discrete2)

    def test_partial_map_rejected(self, chain2):
        with pytest.raises(StructureError, match="not total"):
            is_pi_morphism({"a": "a"}, chain2, chain2)

    def test_map_leaving_the_target_rejected(self, chain2):
        with pytest.raises(StructureError, match="'b' outside the target"):
            is_pi_morphism({"a": "a", "b": "zzz"}, chain2, chain2)

    def test_partial_map_leaving_the_target_rejected(self, chain3):
        with pytest.raises(StructureError):
            is_pi_morphism({"a": "zzz", "b": "a"}, chain3, chain3)

    def test_agrees_with_brute_filter_on_every_map(self):
        # every map between models on <= 3 elements, then every map between
        # random structures over _MIXED_SIG, whose nullary and ternary
        # relations no builtin has
        pairs = [
            (X, Y)
            for name in ("set", "preord", "pos", "simp(2)", "qchain(3)")
            for X, Y in itertools.product(models_up_to(builtin_theory(name), 3), repeat=2)
        ]
        rng = random.Random(16)
        pairs += [
            (random_structure(rng, _MIXED_SIG, 3), random_structure(rng, _MIXED_SIG, 3))
            for _ in range(300)
        ]
        held = 0
        for X, Y in pairs:
            homs = {tuple(f[x] for x in X.carrier) for f in brute_morphisms(X, Y)}
            for image in itertools.product(Y.carrier, repeat=len(X.carrier)):
                assert is_pi_morphism(dict(zip(X.carrier, image)), X, Y) == (image in homs)
            held += len(homs)
        assert held > 10_000


class TestSatisfiesFormula:
    def test_transitivity_on_chain(self, chain3):
        trans = HornFormula(
            frozenset({(LE, ("v1", "v2")), (LE, ("v2", "v3"))}), (LE, ("v1", "v3"))
        )
        assert satisfies_formula(chain3, trans)

    def test_antisymmetry_on_preorder_cycle(self):
        X = FinStructure(
            SIG,
            ("a", "b"),
            frozenset({edge("a", "a"), edge("b", "b"), edge("a", "b"), edge("b", "a")}),
        )
        antisym = HornFormula(
            frozenset({(LE, ("v1", "v2")), (LE, ("v2", "v1"))}), (EQ, ("v1", "v2"))
        )
        assert not satisfies_formula(X, antisym)

    def test_missing_loop_fails_reflexivity(self):
        X = FinStructure(SIG, ("a", "b"), frozenset({edge("a", "a"), edge("a", "b")}))
        assert not satisfies_formula(X, reflexivity_formula(LE, 2))

    def test_free_conclusion_variables_are_universal(self, chain2, discrete2):
        total = HornFormula(frozenset(), (LE, ("v1", "v2")))
        assert not satisfies_formula(chain2, total)
        one = terminal(SIG)
        assert satisfies_formula(one, total)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**9), st.integers(0, 10**9))
    def test_agrees_with_naive_oracle(self, seed, fseed):
        rng = random.Random(seed)
        sig = rng.choice(
            [SIG, builtin_theory("simp(2)").signature, RelSignature((("R", 1), ("S", 2)))]
        )
        X = random_structure(rng, sig)
        frng = random.Random(fseed)
        variables = [f"v{i}" for i in range(1, frng.randint(2, 4))]
        rels = list(sig.names)
        if not rels:
            return
        def random_edge(allow_eq=False):
            choices = rels + ([EQ] if allow_eq else [])
            r = frng.choice(choices)
            ar = 2 if r == EQ else sig.arity[r]
            return (r, tuple(frng.choice(variables) for _ in range(ar)))
        premises = frozenset(random_edge() for _ in range(frng.randint(0, 2)))
        phi = HornFormula(premises, random_edge(allow_eq=True))
        assert satisfies_formula(X, phi) == naive_satisfies_formula(X, phi)


class TestIsModel:
    def test_indiscrete_singleton_models_builtins(self):
        for T in (POS, PREORD, builtin_theory("simp(2)"), builtin_theory("qchain(3)")):
            assert is_model(terminal(T.signature), T)

    def test_chain_is_poset(self, chain2):
        assert is_model(chain2, POS)

    def test_nontransitive_fails_preord(self):
        X = FinStructure(
            SIG,
            ("a", "b", "c"),
            frozenset(
                {edge(x, x) for x in "abc"} | {edge("a", "b"), edge("b", "c")}
            ),
        )
        assert not is_model(X, PREORD)


class TestChase:
    def test_preord_adds_loops_and_transitive_edge(self):
        X = FinStructure(SIG, ("a", "b", "c"), frozenset({edge("a", "b"), edge("b", "c")}))
        model, unit = chase(X, PREORD)
        assert model.carrier == ("a", "b", "c")
        assert edge("a", "c") in model.edges
        assert all(edge(x, x) in model.edges for x in "abc")
        assert unit == {"a": "a", "b": "b", "c": "c"}

    def test_pos_merges_cycle(self):
        X = FinStructure(SIG, ("a", "b"), frozenset({edge("a", "b"), edge("b", "a")}))
        model, unit = chase(X, POS)
        assert model.carrier == ("a",)
        assert unit == {"a": "a", "b": "a"}

    def test_fixpoint_on_models(self, chain3):
        model, unit = chase(chain3, POS)
        assert model == chain3
        assert unit == {x: x for x in chain3.carrier}

    def test_idempotence(self):
        rng = random.Random(7)
        for _ in range(60):
            X = random_structure(rng, SIG, max_size=4)
            model, _ = chase(X, POS)
            model2, unit2 = chase(model, POS)
            assert model2 == model
            assert unit2 == {x: x for x in model.carrier}

    def test_agrees_with_naive_oracle(self):
        rng = random.Random(11)
        for T in (
            POS,
            PREORD,
            builtin_theory("simp(2)"),
            builtin_theory("qchain(2)"),
            builtin_theory("simp(3)"),
            MIXED,
        ):
            for _ in range(40):
                X = random_structure(rng, T.signature, max_size=3)
                model, unit = chase(X, T)
                nmodel, nunit = naive_chase(X, T)
                assert model == nmodel
                assert unit == nunit
        # the non-reflexive presentations that free_algebra chases, which
        # only the chase core accepts; their graph relations are ternary for
        # a binary operation, so merges reach inside wide relations
        for name in SATURATING:
            T = parse_theory((FIXTURES / f"{name}.thy").read_text()).theories[name]
            signature, axioms = graph_presentation(T)
            for _ in range(40):
                X = random_structure(rng, signature, max_size=4)
                model, unit = relcore._chase(X, signature, axioms)
                nmodel, nunit = naive_chase(X, SimpleNamespace(signature=signature, axioms=axioms))
                assert model == nmodel
                assert unit == nunit

    def test_universal_property_small(self):
        # composition with the unit bijects hom-sets
        rng = random.Random(3)
        targets = models_up_to(POS, 3)
        for _ in range(25):
            X = random_structure(rng, SIG, max_size=4)
            model, unit = chase(X, POS)
            for M in targets:
                direct = {
                    tuple(sorted((k, v) for k, v in f.items()))
                    for f in enumerate_morphisms(X, M)
                }
                through = {
                    tuple(sorted((x, g[unit[x]]) for x in X.carrier))
                    for g in enumerate_morphisms(model, M)
                }
                assert direct == through


class TestProduct:
    def test_empty_family_is_indiscrete_singleton(self):
        one = product([], SIG)
        assert len(one.carrier) == 1
        assert (LE, (one.carrier[0], one.carrier[0])) in one.edges

    def test_unit_law(self, chain2):
        P = product([chain2, terminal(SIG)])
        assert len(P.carrier) == len(chain2.carrier)
        f = {p: p[0] for p in P.carrier}
        assert is_pi_morphism(f, P, chain2)
        assert len(P.edges) == len(chain2.edges)

    def test_square_of_chain_is_diamond(self, chain2):
        P = product([chain2, chain2])
        assert len(P.carrier) == 4
        # componentwise order has nine comparable pairs
        assert len(P.edges) == 9
        assert is_model(P, POS)

    def test_projections_and_pairing_biject(self, chain2, chain3):
        P = product([chain2, chain3])
        for i, factor in enumerate((chain2, chain3)):
            assert is_pi_morphism(projection(P, i), P, factor)
        Z = poset(("z0", "z1"), [("z0", "z1")])
        fs = enumerate_morphisms(Z, chain2)
        gs = enumerate_morphisms(Z, chain3)
        paired = set()
        for f in fs:
            for g in gs:
                h = pairing([f, g], Z)
                assert is_pi_morphism(h, Z, P)
                paired.add(tuple(sorted(h.items())))
        assert len(paired) == len(fs) * len(gs)
        assert len(enumerate_morphisms(Z, P)) == len(paired)


class TestSameSignature:
    def test_equal_signatures_held_by_distinct_objects_agree(self, chain2):
        twin = RelSignature(tuple(SIG.symbols))
        assert twin == SIG and twin is not SIG
        X = FinStructure(twin, chain2.carrier, chain2.edges)
        assert relcore._same_signature(chain2, X, POS) == SIG
        assert count_morphisms(X, chain2) == 3
        assert product([X, chain2]).signature == SIG

    def test_different_signatures_raise(self, chain2):
        other = FinStructure(RelSignature((("R", 2),)), chain2.carrier, frozenset())
        for operands in ((chain2, other), (chain2, chain2, other), (other, chain2, chain2)):
            with pytest.raises(SignatureMismatch):
                relcore._same_signature(*operands)
        with pytest.raises(SignatureMismatch):
            count_morphisms(chain2, other)
        with pytest.raises(SignatureMismatch):
            product([chain2, other])


class TestEnumerateMorphisms:
    def test_terminal_target(self, chain3):
        assert len(enumerate_morphisms(chain3, terminal(SIG))) == 1

    def test_chain_to_chain(self, chain2):
        ms = enumerate_morphisms(chain2, chain2)
        assert len(ms) == 3
        assert ms == brute_morphisms(chain2, chain2)

    def test_discrete_source_is_unconstrained(self, discrete2, chain3):
        assert len(enumerate_morphisms(discrete2, chain3)) == len(chain3.carrier) ** 2

    def test_budget_used_is_pinned(self):
        # one unit per assignment: the 81 pairs of pos models on at most
        # three elements have 485 morphisms, found for 811 units
        models = models_up_to(POS, 3)
        bgt = Budget()
        found = sum(len(enumerate_morphisms(X, Y, bgt)) for X, Y in itertools.product(models, repeat=2))
        assert (len(models), found, bgt.used) == (9, 485, 811)

    def test_agrees_with_brute_filter(self):
        rng = random.Random(5)
        for T in (POS, builtin_theory("simp(2)"), builtin_theory("simp(3)")):
            for _ in range(30):
                X = random_structure(rng, T.signature, 3)
                Y = random_structure(rng, T.signature, 3)
                assert enumerate_morphisms(X, Y) == brute_morphisms(X, Y)
        # structures over the nullary, unary, binary (self-loops included)
        # and ternary relations of _MIXED_SIG: on <= 2 elements, every choice
        # of the lower-arity edges up to isomorphism with at most two ternary
        # edges, each the source once against targets rotating through the
        # same list; on <= 1 element, every pair
        lower = RelSignature(tuple(s for s in _MIXED_SIG.symbols if s[1] < 3))
        zoo = [
            FinStructure(_MIXED_SIG, B.carrier, B.edges | frozenset(q))
            for n in range(3)
            for B in all_structures(lower, n)
            for k in range(3)
            for q in itertools.combinations(
                [("Q", t) for t in itertools.product(B.carrier, repeat=3)], k
            )
        ]
        small = [X for X in zoo if len(X.carrier) <= 1]
        pairs = [(X, zoo[i * 7919 % len(zoo)]) for i, X in enumerate(zoo)]
        for X, Y in pairs + list(itertools.product(small, repeat=2)):
            expected = brute_morphisms(X, Y)
            assert enumerate_morphisms(X, Y) == expected
            assert count_morphisms(X, Y) == len(expected)


class TestExponential:
    def test_unit_exponent(self, chain3):
        E = exponential(terminal(SIG), chain3, POS)
        assert len(E.carrier) == len(chain3.carrier)
        pairs = {(f[0], g[0]) for rel, (f, g) in E.edges}
        assert pairs == {(a, b) for rel, (a, b) in chain3.edges}

    def test_equal_arguments_built_apart_hit_the_cache(self):
        X1, X2 = (poset(("a", "b"), [("a", "b")]) for _ in range(2))
        T1, T2 = builtin_theory("pos"), builtin_theory("pos")
        assert X1 is not X2 and T1 is not T2
        assert hash(X1) == hash(X2) and hash(T1) == hash(T2)
        exponential.cache_clear()
        E = exponential(X1, X1, T1)
        assert exponential(X2, X2, T2) is E
        assert exponential.cache_info().hits == 1

    def test_chain_squared_is_three_chain(self, chain2):
        E = exponential(chain2, chain2, POS)
        assert E.carrier == (("a", "a"), ("a", "b"), ("b", "b"))
        # const-bottom <= identity <= const-top
        assert len(E.edges) == 6
        assert is_model(E, POS)

    def test_carrier_is_hom_set(self):
        rng = random.Random(13)
        for T in (POS, PREORD, builtin_theory("simp(2)")):
            zoo = models_up_to(T, 2)
            for X, Y in itertools.product(zoo, repeat=2):
                E = exponential(X, Y, T)
                assert len(E.carrier) == len(enumerate_morphisms(X, Y))

    def test_edges_agree_with_brute_filter(self):
        for name in ("set", "preord", "pos", "simp(2)", "qchain(3)"):
            T = builtin_theory(name)
            zoo = models_up_to(T, 2)
            for X, Y in itertools.product(zoo, repeat=2):
                E = exponential(X, Y, T)
                assert list(E.carrier) == [
                    tuple(f[x] for x in X.carrier) for f in brute_morphisms(X, Y)
                ]
                assert E.edges == {
                    (rel, fs)
                    for rel, ar in T.signature.symbols
                    for fs in itertools.product(E.carrier, repeat=ar)
                    if exp_edge_holds(X, Y, rel, fs)
                }

    def test_map_edges_agree_with_exp_edge_holds(self):
        # _map_edges against exp_edge_holds at every sort, on 1-3 sorts of
        # structures over _MIXED_SIG on <= 2 elements (nullary, unary, binary
        # and ternary edges), each map a random pick of the sortwise
        # brute_morphisms; the targets are random, then dense enough for
        # several morphisms per sort
        rng = random.Random(7)
        held, failed = {}, {}
        for dense in (False, True):
            for _ in range(300):
                Xs, Ys = [], []
                for _ in range(rng.randint(1, 3)):
                    Xs.append(random_structure(rng, _MIXED_SIG, 2))
                    Ys.append(FinStructure(_MIXED_SIG, ("y0", "y1"), frozenset(
                        (rel, t)
                        for rel, ar in _MIXED_SIG.symbols
                        for t in itertools.product(("y0", "y1"), repeat=ar)
                        if rng.random() < 0.8
                    )) if dense else random_structure(rng, _MIXED_SIG, 2))
                homs = [
                    [tuple(f[x] for x in X.carrier) for f in brute_morphisms(X, Y)]
                    for X, Y in zip(Xs, Ys)
                ]
                fams = list(itertools.product(*homs))
                fams = [fams[i] for i in sorted(rng.sample(range(len(fams)), min(len(fams), rng.randint(0, 6))))]
                maps = [sum(fam, ()) for fam in fams]
                ids = [f"m{p}" for p in range(len(maps))]
                expected = []
                for rel, ar in _MIXED_SIG.symbols:
                    for t in itertools.product(range(len(maps)), repeat=ar):
                        holds = all(
                            exp_edge_holds(X, Y, rel, [fams[p][s] for p in t])
                            for s, (X, Y) in enumerate(zip(Xs, Ys))
                        )
                        tally = held if holds else failed
                        tally[ar] = tally.get(ar, 0) + 1
                        if holds:
                            expected.append((rel, tuple([ids[p] for p in t])))
                assert relcore._map_edges(Xs, Ys, maps, ids) == expected
        # every arity is seen holding and failing, unary edges aside, which
        # always hold between morphisms (a nullary one fails only where
        # there are none)
        assert all(held.get(ar, 0) > 200 for ar in range(4))
        assert all(failed.get(ar, 0) > 20 for ar in (0, 2, 3)) and 1 not in failed

    def test_row_test_agrees_with_exp_edge_holds(self):
        # the families of homs between models on <= 2 elements, then the
        # families of all maps between random structures over _MIXED_SIG
        cases = [
            (X, Y, T.signature, list(exponential(X, Y, T).carrier))
            for name in ("set", "preord", "pos", "simp(2)", "qchain(3)")
            for T in [builtin_theory(name)]
            for X, Y in itertools.product(models_up_to(T, 2), repeat=2)
        ]
        rng = random.Random(17)
        for _ in range(200):
            X, Y = random_structure(rng, _MIXED_SIG, 2), random_structure(rng, _MIXED_SIG, 2)
            cases.append((X, Y, _MIXED_SIG, list(itertools.product(Y.carrier, repeat=len(X.carrier)))))
        held = 0
        for X, Y, sig, maps in cases:
            for rel, ar in sig.symbols:
                for fs in itertools.product(maps, repeat=ar):
                    images = [[Y.index[y] for y in f] for f in fs]
                    expected = exp_edge_holds(X, Y, rel, fs)
                    assert relcore._preserves(X, Y, rel, images) == expected
                    held += expected
        assert held > 2_000

    def test_eval_is_a_morphism(self, chain2, chain3):
        E = exponential(chain2, chain3, POS)
        ev = evaluation_table(E, chain2)
        assert is_pi_morphism(ev, product([E, chain2]), chain3)

    def test_eval_is_a_morphism_across_the_zoos(self):
        for name in ("set", "preord", "pos", "simp(2)", "qchain(3)"):
            T = builtin_theory(name)
            zoo = models_up_to(T, 2)
            for X, Y in itertools.product(zoo, repeat=2):
                E = exponential(X, Y, T)
                ev = evaluation_table(E, X)
                assert is_pi_morphism(ev, product([E, X]), Y)

    def test_non_model_argument_rejected(self, chain2):
        broken = FinStructure(SIG, ("a",), frozenset())
        with pytest.raises(StructureError):
            exponential(broken, chain2, POS)

    def test_certification_catches_a_non_closed_theory(self):
        # a ternary twist axiom whose model class is not closed under the
        # edge-preservation construction; found by random search, frozen here
        sig = RelSignature((("R0", 3), ("R1", 1)))
        twist = HornFormula(
            frozenset({("R0", ("v3", "v3", "v2")), ("R1", ("v3",))}),
            ("R0", ("v2", "v2", "v3")),
        )
        T = HornTheory(
            sig, (reflexivity_formula("R0", 3), reflexivity_formula("R1", 1), twist)
        )
        def r0(*tups):
            return {("R0", t) for t in tups}
        loops = r0(("x0",) * 3, ("x1",) * 3) | {("R1", ("x0",)), ("R1", ("x1",))}
        X = FinStructure(sig, ("x0", "x1"), frozenset(loops | r0(("x0", "x1", "x0"))))
        Y = FinStructure(
            sig,
            ("x0", "x1"),
            frozenset(
                loops
                | r0(("x0", "x0", "x1"), ("x0", "x1", "x0"), ("x1", "x1", "x0"))
            ),
        )
        assert is_model(X, T) and is_model(Y, T)
        with pytest.raises(NotClosed):
            exponential(X, Y, T)


class TestCurry:
    def test_projection_curries_to_constant_identity(self, chain2):
        Z = poset(("z",), [])
        ZX = product([Z, chain2])
        f = {p: p[1] for p in ZX.carrier}
        g = curry(f, Z, chain2, chain2, POS)
        assert g == {"z": ("a", "b")}

    def test_curry_uncurry_roundtrip_exhaustive(self):
        zoo = models_up_to(POS, 2, min_size=1)
        for Z, X, Y in itertools.product(zoo, repeat=3):
            ZX = product([Z, X])
            for f in enumerate_morphisms(ZX, Y):
                g = curry(f, Z, X, Y, POS)
                assert uncurry(g, Z, X, Y, POS) == f

    def test_eval_curries_to_identity(self, chain2):
        E = exponential(chain2, chain2, POS)
        ev = evaluation_table(E, chain2)
        g = curry(ev, E, chain2, chain2, POS)
        assert g == {f: f for f in E.carrier}

    def test_certification_happens_once(self, monkeypatch, chain2, chain3):
        exponential.cache_clear()
        certified = []
        is_model = relcore.is_model

        def counting_is_model(X, T):
            certified.append(X)
            return is_model(X, T)

        monkeypatch.setattr(relcore, "is_model", counting_is_model)
        Z, X, Y = chain2, chain2, chain3
        E = exponential(X, Y, POS)
        fs = enumerate_morphisms(product([Z, X]), Y)
        assert fs
        for f in fs:
            assert uncurry(curry(f, Z, X, Y, POS), Z, X, Y, POS) == f
        assert certified == [X, Y, E]

    def test_curry_rejects_a_partial_map(self, chain2):
        Z = poset(("z",), [])
        f = {("z", "a"): "a"}
        with pytest.raises(StructureError):
            curry(f, Z, chain2, chain2, POS)

    def test_curry_rejects_a_map_breaking_an_edge(self, chain2):
        Z = poset(("z",), [])
        f = {("z", "a"): "b", ("z", "b"): "a"}
        with pytest.raises(StructureError):
            curry(f, Z, chain2, chain2, POS)

    def test_curry_rejects_a_non_model_source(self, chain2):
        # Z x chain2 has no edges, so f is a morphism, but its row (b, a)
        # is not monotone: Z lacks the `<=` loop that pairs with a <= b
        Z = FinStructure(SIG, ("z",), frozenset())
        f = {("z", "a"): "b", ("z", "b"): "a"}
        assert f in brute_morphisms(product([Z, chain2]), chain2)
        with pytest.raises(StructureError):
            curry(f, Z, chain2, chain2, POS)

    def test_transposes_reject_exactly_the_non_morphisms(self):
        zoo = models_up_to(POS, 2, min_size=1)
        for Z, X, Y in itertools.product(zoo, repeat=3):
            ZX = product([Z, X])
            homs = brute_morphisms(ZX, Y)
            for images in itertools.product(Y.carrier, repeat=len(ZX.carrier)):
                f = dict(zip(ZX.carrier, images))
                try:
                    curry(f, Z, X, Y, POS)
                    rejected = False
                except StructureError:
                    rejected = True
                assert rejected == (f not in homs)
            E = exponential(X, Y, POS)
            homs = brute_morphisms(Z, E)
            for images in itertools.product(E.carrier, repeat=len(Z.carrier)):
                g = dict(zip(Z.carrier, images))
                try:
                    uncurry(g, Z, X, Y, POS)
                    rejected = False
                except StructureError:
                    rejected = True
                assert rejected == (g not in homs)

    def test_uncurry_rejects_a_non_morphism(self, chain2):
        g = {"a": ("b", "b"), "b": ("a", "a")}
        with pytest.raises(StructureError):
            uncurry(g, chain2, chain2, chain2, POS)

    def test_transposes_reject_mixed_signatures(self, chain2):
        Z = FinStructure(RelSignature(), ("z",), frozenset())
        f = {("z", x): x for x in chain2.carrier}
        with pytest.raises(SignatureMismatch):
            curry(f, Z, chain2, chain2, POS)
        with pytest.raises(SignatureMismatch):
            uncurry({"z": ("a", "b")}, Z, chain2, chain2, POS)


class TestBuiltinTheories:
    def test_pos_axioms(self):
        assert POS.name == "pos"
        kinds = {ax.conclusion[0] for ax in POS.axioms}
        assert kinds == {LE, EQ}
        assert len(POS.axioms) == 3

    def test_set_is_empty(self):
        T = builtin_theory("set")
        assert T.signature.symbols == ()
        assert T.axioms == ()

    def test_simp2_has_reflexivity_and_function_axioms(self):
        T = builtin_theory("simp(2)")
        assert {n for n, _ in T.signature.symbols} == {"R1", "R2"}
        refl = [ax for ax in T.axioms if not ax.premises and len(set(ax.conclusion[1])) == 1]
        assert len(refl) >= 2
        # two deletions, one transposition and one duplication
        assert len(T.axioms) == 2 + 4

    @pytest.mark.parametrize("spec, count", [("simp(10)", 118), ("qchain(42)", 126)])
    def test_largest_builtins_under_the_cap_build(self, spec, count):
        assert len(builtin_theory(spec).axioms) == count <= relcore.MAX_BUILTIN_AXIOMS

    @pytest.mark.parametrize("spec", ["simp(11)", "qchain(43)"])
    def test_builtins_past_the_cap_are_refused(self, spec):
        with pytest.raises(StructureError, match="axioms"):
            builtin_theory(spec)

    def test_generating_presentations_have_the_same_models(self):
        """The generating axioms against every derived one (the oracles):
        is_model agrees on every structure up to a size, one per
        isomorphism class (a relabelling keeps both answers), and seeded
        random structures on 6-14 elements chase alike."""
        pairs = [(builtin_theory(f"simp({n})"), naive_simp_axioms(n), top) for n, top in ((1, 4), (2, 3), (3, 2))]
        pairs += [
            (builtin_theory(f"qchain({n})"), naive_qcat_axioms(heyting_chain(n)), top)
            for n, top in ((2, 3), (3, 2))
        ]
        pairs.append((builtin_theory("qcat", q=diamond("bxyt")), naive_qcat_axioms(diamond("bxyt")), 2))
        for T, naive, top in pairs:
            assert T.signature == naive.signature and len(T.axioms) < len(naive.axioms)
            for n in range(top + 1):
                for X in all_structures(T.signature, n):
                    assert is_model(X, T) == is_model(X, naive), (T.name, X)
        rng = random.Random(1415)
        for _ in range(200):
            T, naive, _ = rng.choice(pairs)
            carrier = tuple(f"x{i}" for i in range(rng.randint(6, 14)))
            edges = frozenset(
                (rel, tuple(rng.choice(carrier) for _ in range(ar)))
                for rel, ar in T.signature.symbols
                for _ in range(rng.randint(0, len(carrier)))
            )
            X = FinStructure(T.signature, carrier, edges)
            assert chase(X, T) == chase(X, naive), (T.name, X)

    def test_qcat_requires_lattice(self):
        with pytest.raises(StructureError):
            builtin_theory("qcat")

    def test_heyting_chain_structure(self):
        q = heyting_chain(3)
        assert q.top == "q2"
        assert q.leq("q0", "q2")
        assert q.meet_table[("q1", "q2")] == "q1"
        assert q.join_of(()) == "q0"

    def test_reflexivity_discipline_is_enforced(self):
        sig = RelSignature((("R", 2),))
        with pytest.raises(StructureError):
            HornTheory(sig, ())


class TestJson:
    def test_export_shape(self, chain2):
        doc = structure_to_json(chain2)
        assert doc["carrier"] == ["a", "b"]
        assert ["<=", ["a", "b"]] in doc["edges"]
        assert all(isinstance(x, str) for x in doc["carrier"])


def test_satisfies_formula_thousand_case_oracle():
    """Deterministic bulk agreement with the all-valuations oracle, over
    every kind of premise and conclusion the search kernel negates: unary,
    binary, loop, equality, nullary and wider."""
    rng = random.Random(987654)
    sigs = [
        SIG,
        builtin_theory("simp(2)").signature,
        builtin_theory("qchain(3)").signature,
        RelSignature((("R", 1), ("S", 2), ("T", 3))),
        _MIXED_SIG,
    ]
    cases = 0
    while cases < 1000:
        sig = rng.choice(sigs)
        X = random_structure(rng, sig)
        variables = [f"v{i}" for i in range(1, rng.randint(2, 4))]
        rels = list(sig.names)

        def random_edge(allow_eq=False):
            choices = rels + ([EQ] if allow_eq else [])
            r = rng.choice(choices)
            ar = 2 if r == EQ else sig.arity[r]
            return (r, tuple(rng.choice(variables) for _ in range(ar)))

        premises = frozenset(random_edge() for _ in range(rng.randint(0, 3)))
        phi = HornFormula(premises, random_edge(allow_eq=True))
        assert satisfies_formula(X, phi) == naive_satisfies_formula(X, phi)
        cases += 1


def test_chase_reflection_for_simplicial_models():
    """Hom-set bijection through the unit over the simplicial base: all
    structures on <= 3 elements, plus a deterministic sample at 4."""
    T = builtin_theory("simp(2)")
    targets = models_up_to(T, 3)
    small = [X for n in range(4) for X in all_structures(T.signature, n)]
    rng = random.Random(42)
    sampled = [random_structure(rng, T.signature, max_size=4) for _ in range(120)]
    for X in small + sampled:
        model, unit = chase(X, T)
        assert set(unit.values()) == set(model.carrier)
        for M in targets:
            assert len(enumerate_morphisms(X, M)) == len(enumerate_morphisms(model, M))


def diamond(order: str) -> HeytingAlgebra:
    """The four-element Boolean lattice b < x, y < t, listed in order."""
    sets = {"b": frozenset(), "x": frozenset({0}), "y": frozenset({1}), "t": frozenset({0, 1})}
    name = {v: k for k, v in sets.items()}
    meet = tuple((a, c, name[sets[a] & sets[c]]) for a in order for c in order)
    join = tuple((a, c, name[sets[a] | sets[c]]) for a in order for c in order)
    return HeytingAlgebra(tuple(order), meet, join, "t")


# (theory, largest carrier) pairs on which all_models is checked against
# naive_models, and (signature, largest carrier) pairs for all_structures
NAIVE_MODEL_CASES = [
    *[(builtin_theory(name), 4) for name in ("set", "preord", "pos", "simp(1)", "qchain(2)")],
    *[(builtin_theory(name), 3) for name in ("simp(2)", "qchain(3)")],
    (builtin_theory("simp(3)"), 2),
    (builtin_theory("qcat", q=diamond("bxyt")), 3),
    (builtin_theory("qcat", q=diamond("txyb")), 3),
]
NAIVE_STRUCTURE_CASES = [
    (SIG, 4),
    (builtin_theory("simp(2)").signature, 3),
    (RelSignature((("P", 0), ("U", 1), ("Q", 3))), 2),
]


class TestIsoEnum:
    def test_structure_counts(self):
        # digraphs with loops on n nodes, up to iso
        assert len(all_structures(SIG, 0)) == 1
        assert len(all_structures(SIG, 1)) == 2
        assert len(all_structures(SIG, 2)) == 10
        assert len(all_structures(SIG, 3)) == 104
        with pytest.raises(StructureError, match="too many edge slots"):
            all_structures(SIG, 5)

    def test_poset_counts(self):
        # unlabelled: OEIS A000112 and A001930; labelled: A001035 and A000798
        for T, unlabelled, labelled in (
            (POS, [1, 1, 2, 5, 16, 63], [1, 1, 3, 19, 219, 4231]),
            (PREORD, [1, 1, 3, 9, 33, 139], [1, 1, 4, 29, 355, 6942]),
        ):
            zoo = models_up_to(T, 5)
            assert [len([X for X in zoo if len(X.carrier) == n]) for n in range(6)] == unlabelled
            assert [len(all_models(T, n, up_to_iso=False)) for n in range(6)] == labelled

    @pytest.mark.parametrize("up_to_iso", [True, False])
    @pytest.mark.parametrize(
        "T, top", NAIVE_MODEL_CASES, ids=[T.name for T, _ in NAIVE_MODEL_CASES]
    )
    def test_models_agree_with_naive_models(self, T, top, up_to_iso):
        """The same structures in the same order: least keys, and for qcat
        the product order, over a lattice listed bottom-up and one not."""
        for n in range(top + 1):
            assert all_models(T, n, up_to_iso) == naive_models(T, n, up_to_iso), n

    @pytest.mark.parametrize("up_to_iso", [True, False])
    @pytest.mark.parametrize(
        "sig, top", NAIVE_STRUCTURE_CASES, ids=["<=", "simp(2)", "P,U,Q"]
    )
    def test_structures_agree_with_naive_structures(self, sig, top, up_to_iso):
        for n in range(top + 1):
            assert all_structures(sig, n, up_to_iso) == naive_structures(sig, n, up_to_iso), n

    def test_budget_bounds_model_search(self):
        with pytest.raises(BudgetExceeded):
            models_up_to(builtin_theory("qchain(3)"), 4, budget=1000)
        with pytest.raises(BudgetExceeded):
            models_up_to(POS, 8, budget=10_000)

    def test_one_budget_bounds_all_sizes(self):
        # pos on 5 elements alone takes 72,929 units; sizes 0-4 take 3,428 more
        with pytest.raises(BudgetExceeded):
            models_up_to(POS, 5, budget=72_929)
        assert len(models_up_to(POS, 5, budget=72_929 + 3_428)) == 88
