from __future__ import annotations

import hashlib
import itertools
import time

import pytest

from enrvar.algebra import (
    enumerate_algebras,
    hom_family,
    is_homomorphism,
    ordinary_signature,
    satisfies_theory,
)
from enrvar import monad
from enrvar.dsl import parse_theory
from enrvar.budget import Budget, BudgetExceeded
from enrvar.isoenum import model_families, models_up_to
from enrvar.monad import (
    TjAlgebra,
    _tj_hom_structure,
    all_maps_into,
    arity_object,
    check_relative_monad,
    enumerate_tj_algebras,
    exception_truncation,
    free_algebra,
    identity_truncation,
    is_tj_algebra,
    monad_from_theory,
    theory_from_monad,
    tj_to_algebra,
    verify_presentation,
)
from enrvar.relcore import FinStructure, StructureError, builtin_theory, is_pi_morphism
from enrvar.syntax import App, Arity, Context, Equation, SortSet, Var, canonical_context

from conftest import FIXTURES
from oracles import brute_morphisms

SET = builtin_theory("set")
S = SortSet(("A",))
S2 = SortSet(("A", "B"))
ARITIES = [Arity.of(S, {}), Arity.of(S, {"A": 1}), Arity.of(S, {"A": 2})]


def semilattice_theory():
    J2 = Arity.of(S, {"A": 2})
    sig = ordinary_signature(S, SET, [("join", J2, "A")])
    x, y, z = Var(0), Var(1), Var(2)
    ctx2 = canonical_context(J2)
    ctx3 = Context((("v1", "A"), ("v2", "A"), ("v3", "A")))
    eqs = (
        Equation(ctx3, App("join", (App("join", (x, y)), z)), App("join", (x, App("join", (y, z)))), "A"),
        Equation(ctx2, App("join", (x, y)), App("join", (y, x)), "A"),
        Equation(Context((("v1", "A"),)), App("join", (x, x)), x, "A"),
    )
    return parse_theory((FIXTURES / "semilattice.thy").read_text()).theories["semilattice"]


def pointed_theory():
    return parse_theory((FIXTURES / "pointed.thy").read_text()).theories["pointed"]


def monoid_theory():
    return parse_theory((FIXTURES / "monoid.thy").read_text()).theories["monoid"]


def fixture_theory(name):
    return parse_theory((FIXTURES / f"{name}.thy").read_text()).theories[name]


# the fixtures whose free algebras saturate on up to two generators
SATURATING = (
    "semilattice", "band", "ordered_band", "left_zero", "involution",
    "idempotent_map", "pointed", "const_pair", "bare",
)


def set_carrier(n):
    return {"A": FinStructure(SET.signature, tuple(str(i) for i in range(n)), frozenset())}


class TestLawChecker:
    def test_identity_truncation_passes(self):
        M = identity_truncation(SET, S, ARITIES)
        assert check_relative_monad(M).ok

    def test_exception_truncation_passes(self):
        M = exception_truncation(SET, S, ARITIES)
        assert check_relative_monad(M).ok

    def test_arity_objects_are_chased_once_per_truncation(self, monkeypatch):
        POS = builtin_theory("pos")
        M = exception_truncation(POS, S, ARITIES)
        assert M.arity_objects == {J: arity_object(POS, S, J) for J in ARITIES}
        chased = []
        monkeypatch.setattr(monad, "arity_object", lambda *args: chased.append(args))
        carrier = {"A": models_up_to(POS, 2)[-1]}
        assert check_relative_monad(M).ok
        algebras = enumerate_tj_algebras(M, carrier)
        assert algebras and all(is_tj_algebra(A, M) for A in algebras)
        assert chased == []

    @pytest.mark.parametrize("make", [identity_truncation, exception_truncation])
    @pytest.mark.parametrize("base", ["set", "pos"])
    def test_builtin_truncations_keep_their_chased_arity_objects(self, monkeypatch, make, base):
        T = builtin_theory(base)
        M = make(T, S, ARITIES)
        chased = []
        monkeypatch.setattr(monad, "arity_object", lambda *args: chased.append(args))
        objects = M.arity_objects
        assert chased == []
        monkeypatch.undo()
        assert objects == {J: arity_object(T, S, J) for J in ARITIES}

    def test_corrupt_extension_is_witnessed(self):
        M = exception_truncation(SET, S, ARITIES)
        J1 = ARITIES[1]
        key = (J1, J1, M.unit[J1])
        table = {s: dict(t) for s, t in M.ext[key].items()}
        table["A"]["e"] = M.obj[J1]["A"].carrier[0]  # error no longer preserved
        M.ext[key] = table
        report = check_relative_monad(M)
        assert not report.ok
        assert any("A1" in v for v in report.violations)

    def test_extension_leaving_the_value_object_is_a_violation(self):
        M = exception_truncation(SET, S, ARITIES[:2])
        J1 = ARITIES[1]
        M.ext[(J1, J1, M.unit[J1])]["A"]["e"] = "zzz"
        assert check_relative_monad(M).violations == ["extension of a map A1->A1 leaves TA1 at A"]

    def test_admissibility_is_reported_once_per_relation(self):
        # TJ = the 3-chain a <= b <= c for J = one point, with unit a; the
        # extensions of k = a, b and c are constant at c, a and b, so k -> k*
        # breaks the two edges a <= b and a <= c of the hom family J -> TJ
        POS = builtin_theory("pos")
        J1 = ARITIES[1]
        chain3 = FinStructure(POS.signature, ("a", "b", "c"), frozenset(
            ("<=", (x, y)) for x, y in itertools.combinations_with_replacement("abc", 2)
        ))
        ext = {
            (J1, J1, ((y,),)): {"A": dict.fromkeys("abc", z)}
            for y, z in (("a", "c"), ("b", "a"), ("c", "b"))
        }
        M = monad.RelMonadData(POS, S, (J1,), {J1: {"A": chain3}}, {J1: (("a",),)}, ext)
        breaks = [v for v in check_relative_monad(M).violations if "k -> k*" in v]
        assert breaks == ["k -> k* breaks a <= edge between maps A1->TA1"]

    def test_extension_that_is_no_morphism_is_a_violation(self):
        POS = builtin_theory("pos")
        J1 = ARITIES[1]
        chain3 = FinStructure(POS.signature, ("a", "b", "c"), frozenset(
            ("<=", (x, y)) for x, y in itertools.combinations_with_replacement("abc", 2)
        ))
        ext = {(J1, J1, ((y,),)): {"A": dict.fromkeys("abc", y)} for y in "abc"}
        ext[J1, J1, (("b",),)] = {"A": {"a": "b", "b": "a", "c": "c"}}
        M = monad.RelMonadData(POS, S, (J1,), {J1: {"A": chain3}}, {J1: (("a",),)}, ext)
        assert check_relative_monad(M).violations == ["extension of a map A1->A1 is not a morphism at A"]

    def test_fixture_monads_pass(self):
        for fixture in ("identity_monad.mnd", "exception_monad.mnd"):
            tf = parse_theory((FIXTURES / fixture).read_text())
            for M in tf.monads.values():
                assert check_relative_monad(M).ok, fixture


class TestTheoryFromMonad:
    def test_identity_unit_equation_forces_variable(self):
        M = identity_truncation(SET, S, ARITIES[:2])
        T = theory_from_monad(M)
        # the one-point value object makes the symbol ordinary, and the unit
        # equation pins it to the variable
        unit_eqs = [e for e in T.equations if isinstance(e.rhs, Var)]
        assert any(
            str(e.lhs) == "opA1_A(v1)" and e.rhs == Var(0) for e in unit_eqs
        )

    def test_exception_algebras_are_pointed_sets(self):
        M = exception_truncation(SET, S, ARITIES)
        T = theory_from_monad(M)
        counts = [len(enumerate_algebras(T, set_carrier(n))) for n in (0, 1, 2, 3)]
        assert counts == [0, 1, 2, 3]

    def test_equation_count_formula(self):
        M = exception_truncation(SET, S, ARITIES[:2])
        T = theory_from_monad(M)
        sorts = S.sorts
        expected = 0
        # one unit equation per input position of each arity
        for J in M.arities:
            expected += J.total()
        # one extension equation per map J -> TK, sort, and point of TJ
        for J, K in itertools.product(M.arities, repeat=2):
            n_maps = len(all_maps_into(J, M.obj[K], S))
            for s in sorts:
                expected += n_maps * len(M.obj[J][s].carrier)
        # the theory deduplicates; count distinct instances the same way
        seen = set()
        dupes = 0
        for J, K in itertools.product(M.arities, repeat=2):
            for k in all_maps_into(J, M.obj[K], S):
                kstar = M.ext[(J, K, k)]
                for s in sorts:
                    for p in M.obj[J][s].carrier:
                        key = (J, K, k, s, p)
                        seen.add(key)
        assert len(T.equations) <= expected
        assert len(T.equations) >= J_unit_lower_bound(M)


def J_unit_lower_bound(M):
    return sum(J.total() for J in M.arities)


class TestTjAlgebras:
    def test_identity_truncation_count_is_one_per_carrier(self):
        M = identity_truncation(SET, S, ARITIES)
        for n in (0, 1, 2):
            algs = enumerate_tj_algebras(M, set_carrier(n))
            assert len(algs) == 1
            assert all(is_tj_algebra(A, M) for A in algs)

    def test_exception_structure_maps_choose_a_point(self):
        M = exception_truncation(SET, S, ARITIES)
        for n in (1, 2, 3):
            algs = enumerate_tj_algebras(M, set_carrier(n))
            assert len(algs) == n
            assert all(is_tj_algebra(A, M) for A in algs)

    def test_kleisli_self_algebra(self):
        # the value object TK carries a structure map via extension
        M = exception_truncation(SET, S, ARITIES[:2])
        K = ARITIES[1]
        carrier = M.obj[K]
        structure = {}
        for J in M.arities:
            block = {}
            for x in all_maps_into(J, carrier, S):
                table = M.ext[(J, K, x)]
                block[x] = tuple(
                    tuple(table[s][p] for p in M.obj[J][s].carrier) for s in S.sorts
                )
            structure[J] = block
        A = TjAlgebra(dict(carrier), structure)
        assert is_tj_algebra(A, M)

    def test_violating_unit_law_detected(self):
        M = identity_truncation(SET, S, ARITIES[:2])
        carrier = set_carrier(2)
        good = enumerate_tj_algebras(M, carrier)[0]
        J1 = ARITIES[1]
        bad_structure = {J: dict(block) for J, block in good.structure.items()}
        x0 = next(iter(bad_structure[J1]))
        flipped = tuple(
            tuple("1" if v == "0" else "0" for v in block)
            for block in bad_structure[J1][x0]
        )
        bad_structure[J1][x0] = flipped
        assert not is_tj_algebra(TjAlgebra(good.carrier, bad_structure), M)


def brute_tj_algebras(M, carrier):
    """Every choice of a sortwise morphism family TJ -> A for each slot
    (J, x), slots and candidates in the order of enumerate_tj_algebras,
    filtered by is_tj_algebra."""
    sorts = M.sorts.sorts
    slots = [(J, x) for J in M.arities for x in all_maps_into(J, carrier, M.sorts)]
    cands = {
        J: list(itertools.product(*[
            [tuple(f[p] for p in M.obj[J][s].carrier) for f in brute_morphisms(M.obj[J][s], carrier[s])]
            for s in sorts
        ]))
        for J in M.arities
    }
    out = []
    for choice in itertools.product(*(cands[J] for J, _ in slots)):
        structure = {J: {} for J in M.arities}
        for (J, x), value in zip(slots, choice):
            structure[J][x] = value
        A = TjAlgebra(dict(carrier), structure)
        if is_tj_algebra(A, M):
            out.append(A)
    return out


def is_tj_morphism(M, f, A, B):
    """f, a dict per sort, is a morphism of truncation algebras A -> B:
    sortwise edge-preserving, and commuting with every structure map, by
    dict lookups of every component."""
    for s in M.sorts.sorts:
        if not is_pi_morphism(f[s], A.carrier[s], B.carrier[s]):
            return False
    for J in M.arities:
        for x in all_maps_into(J, A.carrier, M.sorts):
            fx = tuple(tuple(f[s][v] for v in block) for s, block in zip(M.sorts.sorts, x))
            for s in M.sorts.sorts:
                for p in M.obj[J][s].carrier:
                    if f[s][A.component(M, J, s, p, x)] != B.component(M, J, s, p, fx):
                        return False
    return True


def brute_tj_hom_structure(M, A, B):
    """Carrier and edges of _tj_hom_structure by filtering hom_family with
    is_tj_morphism."""
    fam = hom_family(A.carrier, B.carrier, M.base, M.sorts)
    keep = [
        e
        for e in fam.carrier
        if is_tj_morphism(
            M, {s: dict(zip(A.carrier[s].carrier, e[i])) for i, s in enumerate(M.sorts.sorts)}, A, B
        )
    ]
    kept = set(keep)
    return tuple(keep), frozenset(e for e in fam.edges if kept.issuperset(e[1]))


# an identity or exception algebra is fixed by its nullary structure map, so
# their order cannot show how the cells of two sorts interleave; here the
# slots of the arity A1 take values in both sorts: g x and f x, f g x
TWO_MAPS = """
theory two_maps {
  base set
  sort A B
  op g : A -> A
  op f : A -> B
  eq idem [x: A] : g(g(x)) == g(x)
}
"""


def two_maps_truncation(base, sorts, arities):
    return monad_from_theory(parse_theory(TWO_MAPS).theories["two_maps"], arities)


TRUNCATION_CASES = [
    (make, base, counts)
    for make in (identity_truncation, exception_truncation)
    for base in ("set", "pos")
    for counts in ((0, 1), (1, 2), (0, 1, 2))
]


class TestTjAgainstBruteFilters:
    @pytest.mark.parametrize(
        "make, base, counts",
        # the exception truncation's product grows fastest: 65,536 choices on
        # two elements for the arities 1 and 2
        [
            c for c in TRUNCATION_CASES
            if c[0] is identity_truncation or c[2] == (0, 1) or c[1:] == ("set", (1, 2))
        ],
        ids=lambda v: getattr(v, "__name__", str(v)),
    )
    def test_enumeration_is_the_filtered_product_in_order(self, make, base, counts):
        T = builtin_theory(base)
        M = make(T, S, [Arity.of(S, {"A": k} if k else {}) for k in counts])
        for fam in model_families(T, S, 2):
            got = [A.structure for A in enumerate_tj_algebras(M, fam)]
            assert got == [A.structure for A in brute_tj_algebras(M, fam)]

    @pytest.mark.parametrize(
        "make, base, counts", TRUNCATION_CASES, ids=lambda v: getattr(v, "__name__", str(v))
    )
    def test_hom_structure_is_the_filtered_hom_family(self, make, base, counts):
        T = builtin_theory(base)
        M = make(T, S, [Arity.of(S, {"A": k} if k else {}) for k in counts])
        algs = [A for fam in model_families(T, S, 3 if base == "set" else 2)
                for A in enumerate_tj_algebras(M, fam)]
        assert len(algs) > 1
        for A, B in itertools.product(algs, repeat=2):
            H = _tj_hom_structure(M, A, B)
            assert (H.carrier, H.edges) == brute_tj_hom_structure(M, A, B)

    @pytest.mark.parametrize("make", [identity_truncation, exception_truncation, two_maps_truncation])
    def test_two_sorts_are_the_filtered_product_in_order(self, make):
        # the cells of one sort run block by block, but the algebras must
        # come out in the order of their slots (J, x) and then sorts
        M = make(SET, S2, [Arity.of(S2, {}), Arity.of(S2, {"A": 1}), Arity.of(S2, {"B": 1})])
        algs = []
        for fam in model_families(SET, S2, 2):
            got = enumerate_tj_algebras(M, fam)
            assert [A.structure for A in got] == [A.structure for A in brute_tj_algebras(M, fam)]
            algs += got
        assert len(algs) > 1
        for A, B in itertools.product(algs, repeat=2):
            H = _tj_hom_structure(M, A, B)
            assert (H.carrier, H.edges) == brute_tj_hom_structure(M, A, B)

    @pytest.mark.parametrize(
        "make, used",
        [(identity_truncation, [0, 3, 10, 21]), (exception_truncation, [0, 6, 46, 174])],
    )
    def test_budget_charges_one_unit_per_cell_assignment(self, make, used):
        M = make(SET, S, ARITIES)
        charged = []
        for n in range(4):
            carrier = set_carrier(n)
            bgt = Budget()
            algs = enumerate_tj_algebras(M, carrier, bgt)
            charged.append(bgt.used)
            # every algebra assigns every cell (J, x, s, p) once
            cells = sum(
                len(all_maps_into(J, carrier, S)) * sum(len(M.obj[J][s].carrier) for s in S.sorts)
                for J in M.arities
            )
            assert bgt.used >= len(algs) * cells
            assert len(enumerate_tj_algebras(M, carrier, Budget(bgt.used))) == len(algs)
            if bgt.used:
                with pytest.raises(BudgetExceeded):
                    enumerate_tj_algebras(M, carrier, Budget(bgt.used - 1))
        assert charged == used


class TestVerifyPresentation:
    def test_identity_up_to_two(self):
        M = identity_truncation(SET, S, ARITIES)
        report = verify_presentation(M, 2)
        assert report.ok
        assert [r.count_left for r in report.rows] == [1, 1, 1]

    def test_exception_counts_pointed_structures(self):
        M = exception_truncation(SET, S, ARITIES)
        report = verify_presentation(M, 3)
        assert report.ok
        assert [r.count_left for r in report.rows] == [0, 1, 2, 3]

    def test_reversed_hom_structures_differ(self, monkeypatch):
        # hom(A, B) read as hom(B, A): on two elements the algebras point at
        # different elements, so the maps A0 -> A1 are not those A1 -> A0
        forward = monad._tj_hom_structure
        monkeypatch.setattr(monad, "_tj_hom_structure", lambda M, A, B: forward(M, B, A))
        report = verify_presentation(exception_truncation(SET, S, ARITIES[:2]), 2)
        assert [(r.ok, r.detail) for r in report.rows] == [
            (True, ""),
            (True, ""),
            (False, "hom structures differ at pair (0,1)"),
        ]
        assert report.rows[-1].hom_pairs_checked == 1

    def test_unfolding_without_partner_fails(self, monkeypatch):
        unfold = monad.tj_to_algebra
        first = {}

        def stuck(M, T, A):
            # every truncation algebra on a carrier unfolds to the first one's image
            return unfold(M, T, first.setdefault(tuple(A.carrier.values()), A))

        monkeypatch.setattr(monad, "tj_to_algebra", stuck)
        report = verify_presentation(exception_truncation(SET, S, ARITIES[:2]), 2)
        assert report.rows[-1].detail == "no fresh partner for algebra 1"
        assert report.rows[-1].bijection == [(0, 0)]

    def test_mutilated_extension_fails_where_the_law_does(self):
        M = exception_truncation(SET, S, ARITIES[:2])
        J1 = ARITIES[1]
        key = (J1, J1, M.unit[J1])
        table = {s: dict(t) for s, t in M.ext[key].items()}
        table["A"]["e"] = "g1"
        M.ext[key] = table
        with pytest.raises(StructureError):
            theory_from_monad(M)


class TestFreeAlgebra:
    def test_semilattice_subset_law(self):
        T = semilattice_theory()
        for n in (0, 1, 2, 3):
            res = free_algebra(T, Arity.of(S, {"A": n}))
            assert res.saturated
            assert res.class_count == 2**n - 1

    def test_pointed_set(self):
        T = pointed_theory()
        res = free_algebra(T, Arity.of(SortSet(("A",)), {"A": 1}))
        assert res.saturated
        assert res.class_count == 2

    def test_free_monoid_never_saturates(self):
        T = monoid_theory()
        for depth in (1, 2, 3, 4):
            res = free_algebra(T, Arity.of(SortSet(("A",)), {"A": 1}), depth_bound=depth)
            assert not res.saturated

    def test_free_algebra_satisfies_the_theory_when_saturated(self):
        T = semilattice_theory()
        res = free_algebra(T, Arity.of(SortSet(("A",)), {"A": 2}))
        assert satisfies_theory(res.algebra, T)

    def test_pinned_slow_cases(self):
        res = free_algebra(fixture_theory("semilattice"), Arity.of(S, {"A": 4}))
        assert (res.class_count, res.saturated) == (15, True)
        res = free_algebra(fixture_theory("comm_monoid"), Arity.of(S, {"A": 2}))
        assert (res.class_count, res.saturated) == (51, False)
        # the chase after the depth-3 layer joins ternary graph atoms with
        # both inputs bound, on 1,479 terms
        res = free_algebra(fixture_theory("band"), Arity.of(S, {"A": 3}))
        assert (res.class_count, res.saturated) == (231, False)

    def test_size_bound_is_found_before_the_layer_is_made(self):
        T = fixture_theory("group")
        started = time.perf_counter()
        with pytest.raises(StructureError, match="size bound"):
            free_algebra(T, Arity.of(T.signature.sorts, {"G": 2}))
        assert time.perf_counter() - started < 5

    def test_budget_is_charged_per_term_before_its_layer(self, monkeypatch):
        made = []
        monkeypatch.setattr(monad, "App", lambda *args: made.append(args) or App(*args))

        class Recording(Budget):
            def charge(self, amount=1):
                log.append((amount, len(made)))
                super().charge(amount)

        T, J = fixture_theory("semilattice"), Arity.of(S, {"A": 3})
        log = []
        assert free_algebra(T, J, budget=Recording(10**6)).class_count == 7
        # the generators, then each layer before any of its terms is made
        assert log[0] == (3, 0) and sum(a for a, _ in log) == 52 == 3 + len(made)
        assert all(m == sum(a for a, _ in log[1:k]) for k, (_, m) in enumerate(log))
        made.clear()
        log = []
        with pytest.raises(BudgetExceeded, match="budget of 51 exceeded"):
            free_algebra(T, J, budget=Recording(51))
        assert len(made) == 52 - 3 - log[-1][0]

    @pytest.mark.parametrize("name", SATURATING)
    def test_universal_property_against_small_algebras(self, name):
        """Every assignment of the generators into every algebra on a base
        model of size <= 2 extends to exactly one homomorphism."""
        T = fixture_theory(name)
        sig = T.signature
        (sort,) = sig.sorts.sorts
        targets = [
            B
            for C in models_up_to(sig.base, 2)
            for B in enumerate_algebras(T, {sort: C})
        ]
        for n in (0, 1, 2):
            res = free_algebra(T, Arity.of(sig.sorts, {sort: n}))
            assert res.saturated
            free_carrier = res.algebra.carrier[sort].carrier
            (gens,) = res.generators
            for B in targets:
                points = B.carrier[sort].carrier
                for assignment in itertools.product(points, repeat=n):
                    extensions = 0
                    for images in itertools.product(points, repeat=len(free_carrier)):
                        f = dict(zip(free_carrier, images))
                        if any(f[g] != a for g, a in zip(gens, assignment)):
                            continue
                        extensions += is_homomorphism({sort: f}, res.algebra, B)
                    assert extensions == 1


class TestMonadFromTheory:
    def test_semilattice_value_sizes(self):
        T = semilattice_theory()
        M = monad_from_theory(T, ARITIES)
        sizes = [len(M.obj[J]["A"].carrier) for J in ARITIES]
        assert sizes == [0, 1, 3]
        assert check_relative_monad(M).ok

    def test_pointed_value_sizes(self):
        T = pointed_theory()
        M = monad_from_theory(T, ARITIES[:2])
        sizes = [len(M.obj[J]["A"].carrier) for J in ARITIES[:2]]
        assert sizes == [1, 2]
        assert check_relative_monad(M).ok

    def test_monoid_fails_saturation(self):
        T = monoid_theory()
        with pytest.raises(StructureError):
            monad_from_theory(T, ARITIES[:2], depth_bound=3)

    def test_roundtrip_presentation(self):
        T = semilattice_theory()
        M = monad_from_theory(T, ARITIES)
        report = verify_presentation(M, 2)
        assert report.ok
        # the induced theory has the same algebras as the original
        T2 = theory_from_monad(M)
        for n in (0, 1, 2):
            ours = enumerate_algebras(T, set_carrier(n))
            theirs = enumerate_algebras(T2, set_carrier(n))
            assert len(ours) == len(theirs)

    def test_tj_algebras_transport_through_the_theory(self):
        M = exception_truncation(SET, S, ARITIES[:2])
        T = theory_from_monad(M)
        for n in (1, 2):
            carrier = set_carrier(n)
            for A in enumerate_tj_algebras(M, carrier):
                image = tj_to_algebra(M, T, A)
                assert satisfies_theory(image, T)


def truncation_digest(M) -> str:
    """Every table of a truncation in order: its name, arities, value
    objects (carriers in order, edges sorted), units and extension items."""
    return repr((
        M.name,
        [J.counts for J in M.arities],
        [[(s, X.carrier, sorted(map(repr, X.edges))) for s, X in M.obj[J].items()] for J in M.arities],
        [M.unit[J] for J in M.arities],
        [
            ((J.counts, K.counts, k), [(s, list(t.items())) for s, t in table.items()])
            for (J, K, k), table in M.ext.items()
        ],
    ))


def test_truncations_are_pinned():
    # the pointed truncations over five bases, on one and on two sorts, and
    # the truncations of the saturating fixtures: the same tables, in the
    # same order, under every hash seed
    one = [({},), ({}, {"A": 1}), ({"A": 1}, {"A": 2}), ({}, {"A": 1}, {"A": 2}), ({"A": 2},)]
    two = [({},), ({}, {"A": 1}), ({"A": 1}, {"B": 1}), ({}, {"A": 1}, {"B": 1}), ({"A": 1, "B": 1},)]
    digests = [
        truncation_digest(make(builtin_theory(base), sorts, [Arity.of(sorts, c) for c in counts]))
        for make in (identity_truncation, exception_truncation)
        for base in ("set", "preord", "pos", "simp(2)", "qchain(2)")
        for sorts, arity_sets in ((S, one), (S2, two))
        for counts in arity_sets
    ]
    for name in SATURATING:
        T = fixture_theory(name)
        sorts = T.signature.sorts
        arities = [Arity.of(sorts, {sorts.sorts[0]: k} if k else {}) for k in range(3)]
        digests += [truncation_digest(monad_from_theory(T, arities[:k])) for k in (2, 3)]
    assert len(digests) == 118
    digest = hashlib.sha256("\n".join(digests).encode()).hexdigest()
    assert digest == "785e0eb3c707ff2cdaa9942c6079215794003281f28cdb9cf19143baa672f1ec"
