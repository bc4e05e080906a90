from __future__ import annotations

import itertools
import random

import pytest

from enrvar.algebra import (
    Algebra,
    ClassicalTheoryWithRelations,
    EnrichedSignature,
    EnrichedTheory,
    OpDecl,
    classical_symbol,
    context_power,
    enumerate_algebras,
    hom_family,
    hom_object,
    interpret_term,
    is_homomorphism,
    ordinary_signature,
    power,
    satisfies_equation,
    satisfies_relation,
    satisfies_theory,
    theory_parts,
    underlying_classical,
    validate_algebra,
)
from enrvar.relcore import (
    LE,
    FinStructure,
    builtin_theory,
    enumerate_morphisms,
    SignatureMismatch,
    StructureError,
    terminal,
)
from enrvar.dsl import parse_theory
from enrvar.isoenum import model_families, models_up_to
from enrvar.syntax import (
    App,
    Arity,
    Context,
    Equation,
    RelationAtom,
    SortSet,
    Var,
    canonical_context,
)

from conftest import FIXTURES, poset
from oracles import plain_enumerate_algebras

POS = builtin_theory("pos")
SET = builtin_theory("set")
S = SortSet(("M",))
J0 = Arity.of(S, {})
J1 = Arity.of(S, {"M": 1})
J2 = Arity.of(S, {"M": 2})


def chain(n):
    elems = tuple(str(i) for i in range(n))
    return poset(elems, [(str(i), str(j)) for i in range(n) for j in range(i + 1, n)])


def max_monoid(n=2):
    """join = max, unit = bottom, on the n-chain."""
    sig = ordinary_signature(S, POS, [("mul", J2, "M"), ("e", J0, "M")])
    A = chain(n)
    mul = {(a, b): max(a, b) for a in A.carrier for b in A.carrier}
    return Algebra(sig, {"M": A}, {"mul": mul, "e": {(): "0"}})


class TestPower:
    def test_empty_arity_is_terminal(self):
        A = {"M": chain(2)}
        P = power(A, J0)
        assert len(P.carrier) == 1

    def test_binary_product_across_sorts(self):
        S2 = SortSet(("A", "B"))
        J = Arity.of(S2, {"A": 1, "B": 1})
        carrier = {"A": chain(2), "B": chain(3)}
        P = power(carrier, J)
        assert len(P.carrier) == 6

    def test_underlying_set_law(self):
        A = {"M": chain(3)}
        P = power(A, J2)
        assert set(P.carrier) == set(itertools.product(A["M"].carrier, repeat=2))


class TestUnderlyingClassical:
    def test_parameter_fanout(self):
        param = chain(3)
        sig = EnrichedSignature(S, POS, (OpDecl("act", J1, "M", param),))
        csig = underlying_classical(sig)
        assert [n for n, _, _ in csig.ops] == ["act@0", "act@1", "act@2"]

    def test_terminal_parameter_keeps_the_name(self):
        sig = ordinary_signature(S, POS, [("f", J1, "M")])
        assert [n for n, _, _ in underlying_classical(sig).ops] == ["f"]

    def test_symbol_count(self):
        sig = EnrichedSignature(
            S,
            POS,
            (
                OpDecl("a", J1, "M", chain(3)),
                OpDecl("b", J2, "M", terminal(POS.signature)),
            ),
        )
        assert len(underlying_classical(sig).ops) == 4


class TestValidateAlgebra:
    def test_set_base_families_always_validate(self):
        sig = ordinary_signature(SortSet(("A",)), SET, [("f", Arity.of(SortSet(("A",)), {"A": 1}), "A")])
        X = FinStructure(SET.signature, ("0", "1"), frozenset())
        A = Algebra(sig, {"A": X}, {"f": {("0",): "1", ("1",): "0"}})
        assert validate_algebra(A).ok

    def test_admissibility_needs_pointwise_order(self):
        param = chain(2)  # lo < hi as "0" < "1"
        sig = EnrichedSignature(S, POS, (OpDecl("act", J1, "M", param),))
        carrier = {"M": chain(2)}
        ident = {("0",): "0", ("1",): "1"}
        const_bot = {("0",): "0", ("1",): "0"}
        const_top = {("0",): "1", ("1",): "1"}
        bad = Algebra(sig, carrier, {"act@0": ident, "act@1": const_bot})
        assert not validate_algebra(bad).ok
        good = Algebra(sig, carrier, {"act@0": ident, "act@1": const_top})
        assert validate_algebra(good).ok

    def test_non_monotone_table_flagged(self):
        sig = ordinary_signature(S, POS, [("f", J1, "M")])
        flip = Algebra(sig, {"M": chain(2)}, {"f": {("0",): "1", ("1",): "0"}})
        report = validate_algebra(flip)
        assert not report.ok
        assert any("edge-preserving" in p for p in report.problems)

    def test_table_leaving_the_carrier_is_a_problem(self):
        A = max_monoid()
        A.interp["mul"][("0", "1")] = "zzz"
        assert validate_algebra(A).problems == ["mul: table sends (0, 1) outside the carrier of M"]


class TestInterpretation:
    def test_variable_is_projection(self):
        A = max_monoid()
        ctx = Context((("x", "M"), ("y", "M")))
        table = interpret_term(A, ctx, Var(1))
        assert all(table[p] == p[1] for p in table)

    def test_nested_term_table(self):
        A = max_monoid()
        ctx = Context((("x", "M"), ("y", "M"), ("z", "M")))
        t = App("mul", (Var(0), App("mul", (Var(1), Var(2)))))
        table = interpret_term(A, ctx, t)
        assert table[("1", "0", "1")] == "1"
        assert table[("0", "0", "0")] == "0"

    def test_closed_constant(self):
        A = max_monoid()
        table = interpret_term(A, Context(()), App("e"))
        assert table == {(): "0"}


class TestSatisfaction:
    def test_syntactic_equality(self):
        A = max_monoid()
        ctx = canonical_context(J2)
        t = App("mul", (Var(0), Var(1)))
        assert satisfies_equation(A, Equation(ctx, t, t, "M"))

    def test_commutativity_of_max(self):
        A = max_monoid()
        ctx = canonical_context(J2)
        eq = Equation(ctx, App("mul", (Var(0), Var(1))), App("mul", (Var(1), Var(0))), "M")
        assert satisfies_equation(A, eq)

    def test_projection_is_not_commutative(self):
        sig = ordinary_signature(S, POS, [("mul", J2, "M")])
        X = chain(2)
        proj = Algebra(sig, {"M": X}, {"mul": {(a, b): a for a in X.carrier for b in X.carrier}})
        ctx = canonical_context(J2)
        eq = Equation(ctx, App("mul", (Var(0), Var(1))), App("mul", (Var(1), Var(0))), "M")
        assert not satisfies_equation(proj, eq)

    def test_reflexive_atom_holds(self):
        A = max_monoid()
        ctx = canonical_context(J2)
        t = App("mul", (Var(0), Var(1)))
        assert satisfies_relation(A, RelationAtom(ctx, LE, (t, t), "M"))

    def test_growth_relation(self):
        A = max_monoid()
        ctx = canonical_context(J2)
        x, y = Var(0), Var(1)
        grows = RelationAtom(ctx, LE, (x, App("mul", (x, x))), "M")
        assert satisfies_relation(A, grows)
        wrong = RelationAtom(ctx, LE, (App("mul", (x, y)), y), "M")
        assert not satisfies_relation(A, wrong)


class TestHomomorphisms:
    def test_identity(self):
        A = max_monoid()
        f = {"M": {x: x for x in A.carrier["M"].carrier}}
        assert is_homomorphism(f, A, A)

    def test_broken_table_entry(self):
        A = max_monoid(2)
        B = max_monoid(2)
        f = {"M": {"0": "0", "1": "0"}}
        # constant-bottom breaks nothing for max with e=0: max(0,0)=0 commutes
        assert is_homomorphism(f, A, B)
        g = {"M": {"0": "1", "1": "1"}}
        # sends the unit away: e must map to e
        assert not is_homomorphism(g, A, B)

    def test_naturality_square_for_found_homomorphisms(self):
        A = max_monoid(2)
        B = max_monoid(3)
        csig = underlying_classical(A.signature)
        from enrvar.syntax import all_terms

        ctx = Context((("x", "M"), ("y", "M")))
        fams = itertools.product(
            enumerate_morphisms(A.carrier["M"], B.carrier["M"]), repeat=1
        )
        homs = [
            {"M": f[0]}
            for f in fams
            if is_homomorphism({"M": f[0]}, A, B)
        ]
        assert homs
        terms = [t for t in all_terms(csig, ctx, "M", 3)]
        rng = random.Random(1)
        for f in homs:
            for t in rng.sample(terms, min(40, len(terms))):
                ta = interpret_term(A, ctx, t)
                tb = interpret_term(B, ctx, t)
                for p in ta:
                    mapped = tuple(f["M"][c] for c in p)
                    assert f["M"][ta[p]] == tb[mapped]


class TestHomObject:
    def test_empty_signature_gives_hom_family(self):
        sig = EnrichedSignature(S, POS, ())
        X = chain(2)
        A = Algebra(sig, {"M": X}, {})
        B = Algebra(sig, {"M": chain(3)}, {})
        fam = hom_family(A.carrier, B.carrier, POS, S)
        ho = hom_object(A, B)
        assert ho.carrier == fam.carrier
        assert ho.edges == fam.edges

    def test_carrier_is_the_homomorphism_set(self):
        A = max_monoid(2)
        B = max_monoid(3)
        ho = hom_object(A, B)
        brute = [
            f
            for f in enumerate_morphisms(A.carrier["M"], B.carrier["M"])
            if is_homomorphism({"M": f}, A, B)
        ]
        assert len(ho.carrier) == len(brute)

    def test_agrees_with_flattened_signature(self):
        # parameters flattened to ordinary symbols leave hom structures alone
        param = chain(2)
        sig = EnrichedSignature(S, POS, (OpDecl("act", J1, "M", param),))
        carrier = {"M": chain(2)}
        ident = {("0",): "0", ("1",): "1"}
        const_top = {("0",): "1", ("1",): "1"}
        A = Algebra(sig, carrier, {"act@0": ident, "act@1": const_top})
        flat_sig = ordinary_signature(
            S, POS, [("act@0", J1, "M"), ("act@1", J1, "M")]
        )
        A_flat = Algebra(flat_sig, carrier, dict(A.interp))
        assert hom_object(A, A).carrier == hom_object(A_flat, A_flat).carrier
        assert hom_object(A, A).edges == hom_object(A_flat, A_flat).edges


def brute_hom_object(A, B):
    """Carrier and edges of hom_object(A, B) by filtering hom_family with
    is_homomorphism."""
    sig = A.signature
    fam = hom_family(A.carrier, B.carrier, sig.base, sig.sorts)
    keep = [
        e
        for e in fam.carrier
        if is_homomorphism(
            {s: dict(zip(A.carrier[s].carrier, e[i])) for i, s in enumerate(sig.sorts.sorts)},
            A,
            B,
        )
    ]
    kept = set(keep)
    return tuple(keep), frozenset(e for e in fam.edges if kept.issuperset(e[1]))


# two sorts over pos: cross-sort unary ops both ways, a constant and a mixed
# binary op, so that the second sort's order rows sit at a bit offset
SECTIONS = """theory sections {
  base pos
  sort M X
  op h : M -> X
  op k : X -> M
  op c : -> M
  op m : M X -> X
  eq hk [x: X] : h(k(x)) == x
  eq mc [x: X] : m(c, x) == x
}"""


class TestHomObjectAgainstBruteFilter:
    @pytest.mark.parametrize(
        "fixture, bound",
        [
            ("sections", 2),
            ("monoid.thy", 3),  # set: binary and nullary ops
            ("pointed.thy", 3),  # set: a constant
            ("involution.thy", 3),  # set: a unary op
            ("mon_act.thy", 2),  # set, two sorts: an action M X -> X
            ("ordered_band.thy", 2),  # preord: a binary op
            ("scaled_monoid.thy", 2),  # pos: act indexed by chain(2)
            ("two_chains.thy", 2),  # pos: two unary ops and a constant
            ("deflationary.thy", 3),  # pos: a unary op
            ("simp_cone.thy", 2),  # simp(2): unary and binary relations
            ("qcat_close.thy", 2),  # qcat: three binary relations
        ],
    )
    def test_every_pair_of_algebras(self, fixture, bound):
        text = SECTIONS if fixture == "sections" else (FIXTURES / fixture).read_text()
        T = next(iter(parse_theory(text).theories.values()))
        sig = theory_parts(T)[0]
        algs = [
            A
            for fam in model_families(sig.base, sig.sorts, bound)
            for A in enumerate_algebras(T, fam)
        ]
        assert len(algs) > 1
        for A, B in itertools.product(algs, repeat=2):
            H = hom_object(A, B)
            assert (H.carrier, H.edges) == brute_hom_object(A, B)

    def test_no_homomorphism(self):
        # h(c) = c forces h(1) = f(h(0)) = 1, then h(0) = f(h(1)) = 1 != c
        SA = SortSet(("A",))
        sig = ordinary_signature(SA, SET, [("c", Arity.of(SA, {}), "A"), ("f", Arity.of(SA, {"A": 1}), "A")])
        X = FinStructure(SET.signature, ("0", "1"), frozenset())
        A = Algebra(sig, {"A": X}, {"c": {(): "0"}, "f": {("0",): "1", ("1",): "0"}})
        B = Algebra(sig, {"A": X}, {"c": {(): "0"}, "f": {("0",): "1", ("1",): "1"}})
        H = hom_object(A, B)
        assert H.carrier == () and H.edges == frozenset()
        assert (H.carrier, H.edges) == brute_hom_object(A, B)

    def test_signature_mismatch_is_raised_without_any_morphism(self):
        # no map at all from a non-empty carrier to an empty one
        A = max_monoid(2)
        B = Algebra(EnrichedSignature(S, POS, ()), {"M": poset((), [])}, {})
        assert hom_family(A.carrier, B.carrier, POS, S).carrier == ()
        with pytest.raises(SignatureMismatch):
            hom_object(A, B)
        with pytest.raises(SignatureMismatch):
            hom_object(B, A)


# an enriched operation, a relation atom, a nested equation beside a constant,
# and a relation atom in the empty context
ORACLE_THEORIES = """
theory enriched_f {
  base pos
  sort M
  param P {
    elems [lo, hi]
    reflexive
    edge lo <= hi
  }
  op f : M -> M @ P
}
theory rel_atom {
  base pos
  sort M
  op f : M -> M
  rel up [x: M] : x <= f(x)
}
theory nested {
  base pos
  sort M
  op f : M -> M
  op c : -> M
  eq inv [x: M] : f(f(x)) == x
}
theory closed_atom {
  base pos
  sort M
  op c : -> M
  op d : -> M
  rel cd [] : c <= d
}
"""


def brute_algebras(T, carrier) -> list[dict]:
    """Every family of maps P x A^J -> A_S, one per operation, as tables,
    drawn by itertools.product over the cells (p, point) in operation,
    parameter and point order, kept when validate_algebra and
    satisfies_theory accept it."""
    sig = theory_parts(T)[0]
    cells = [
        (classical_symbol(op, p), point, carrier[op.output].carrier)
        for op in sig.ops
        for p, point in itertools.product(op.param.carrier, power(carrier, op.inputs).carrier)
    ]
    out = []
    for values in itertools.product(*[ys for _, _, ys in cells]):
        interp = {classical_symbol(op, p): {} for op in sig.ops for p in op.param.carrier}
        for (name, point, _), v in zip(cells, values):
            interp[name][point] = v
        A = Algebra(sig, dict(carrier), interp)
        if validate_algebra(A).ok and satisfies_theory(A, T):
            out.append(interp)
    return out


class TestEnumerateAlgebras:
    def test_no_ops_one_algebra(self):
        T = EnrichedTheory(EnrichedSignature(S, POS, ()), ())
        assert len(enumerate_algebras(T, {"M": chain(2)})) == 1

    def test_constant_choice(self):
        SA = SortSet(("A",))
        sig = ordinary_signature(SA, SET, [("c", Arity.of(SA, {}), "A")])
        T = EnrichedTheory(sig, ())
        X = FinStructure(SET.signature, ("0", "1"), frozenset())
        assert len(enumerate_algebras(T, {"A": X})) == 2

    def test_semilattice_count_matches_brute_force(self):
        SA = SortSet(("A",))
        JA2 = Arity.of(SA, {"A": 2})
        sig = ordinary_signature(SA, SET, [("join", JA2, "A")])
        x, y, z = Var(0), Var(1), Var(2)
        ctx2 = canonical_context(JA2)
        ctx3 = Context((("v1", "A"), ("v2", "A"), ("v3", "A")))
        eqs = (
            Equation(ctx3, App("join", (App("join", (x, y)), z)), App("join", (x, App("join", (y, z)))), "A"),
            Equation(ctx2, App("join", (x, y)), App("join", (y, x)), "A"),
            Equation(Context((("v1", "A"),)), App("join", (x, x)), x, "A"),
        )
        T = EnrichedTheory(sig, eqs)
        for n in (1, 2, 3):
            X = FinStructure(SET.signature, tuple(str(i) for i in range(n)), frozenset())
            ours = enumerate_algebras(T, {"A": X})
            brute = plain_enumerate_algebras(
                [("join", ("A", "A"), "A")], eqs, {"A": X.carrier}
            )
            assert len(ours) == len(brute)
            assert {tuple(sorted(a.interp["join"].items())) for a in ours} == {
                tuple(sorted(t["join"].items())) for t in brute
            }

    def test_non_model_carrier_is_refused(self):
        # a pos structure without its loops is no base model
        bare = FinStructure(POS.signature, ("0", "1"), frozenset())
        T = EnrichedTheory(EnrichedSignature(S, POS, ()), ())
        with pytest.raises(StructureError, match="not a base model"):
            enumerate_algebras(T, {"M": bare})
        with pytest.raises(StructureError, match="missing carrier"):
            enumerate_algebras(T, {})

    def test_budget_is_enforced(self):
        sig = ordinary_signature(S, POS, [("mul", J2, "M"), ("f", J1, "M")])
        T = EnrichedTheory(sig, ())
        from enrvar.budget import BudgetExceeded

        with pytest.raises(BudgetExceeded):
            enumerate_algebras(T, {"M": chain(3)}, budget=5)

    def test_ordered_monoid_on_two_chain(self):
        sig = ordinary_signature(S, POS, [("mul", J2, "M"), ("e", J0, "M")])
        x, y, z = Var(0), Var(1), Var(2)
        ctx3 = Context((("v1", "M"), ("v2", "M"), ("v3", "M")))
        eqs = (
            Equation(ctx3, App("mul", (App("mul", (x, y)), z)), App("mul", (x, App("mul", (y, z)))), "M"),
            Equation(Context((("v1", "M"),)), App("mul", (App("e"), x)), x, "M"),
        )
        rel = RelationAtom(canonical_context(J2), LE, (x, App("mul", (x, y))), "M")
        T = ClassicalTheoryWithRelations(sig, (rel,), eqs)
        algs = enumerate_algebras(T, {"M": chain(2)})
        assert len(algs) == 1
        assert algs[0].interp["mul"][("0", "1")] == "1"
        for A in algs:
            assert satisfies_theory(A, T)
            assert validate_algebra(A).ok

    def test_agrees_with_brute_filter(self):
        theories = dict(parse_theory(ORACLE_THEORIES).theories)
        theories.update(parse_theory((FIXTURES / "cpo_explicit.thy").read_text()).theories)
        for T in theories.values():
            found = 0
            for X in models_up_to(POS, 2):
                ours = [A.interp for A in enumerate_algebras(T, {"M": X})]
                assert ours == brute_algebras(T, {"M": X})
                found += len(ours)
            assert found
