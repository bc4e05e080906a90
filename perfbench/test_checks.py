"""Each independent check accepts the program's real output and rejects a
deliberately corrupted copy of it.

    python3 -m pytest perfbench/test_checks.py
"""
from __future__ import annotations

import dataclasses
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from enrvar import cpo, dsl, isoenum, monad, relcore, syntax  # noqa: E402

LE = relcore.LE
PREORD = relcore.builtin_theory("preord")
POS = relcore.builtin_theory("pos")


def structure(T, carrier, edges):
    return relcore.FinStructure(T.signature, tuple(carrier), frozenset(edges))


def poset(carrier, pairs):
    return structure(POS, carrier, {(LE, (x, x)) for x in carrier} | {(LE, p) for p in pairs})


def without(X, edge):
    return structure(POS, X.carrier, X.edges - {edge})


CHAIN2 = poset("ab", [("a", "b")])
CHAIN3 = poset("abc", [("a", "b"), ("b", "c"), ("a", "c")])
DISCRETE2 = poset("ab", [])


# -- closure -------------------------------------------------------------------------

def closure_output(Z, X, Y, T):
    return workloads.Closure._run(T, Z, X, Y)()


def test_closure_checks_pass_the_program_output():
    E, triples = closure_output(DISCRETE2, CHAIN2, CHAIN3, POS)
    assert checks.exponential_problems(CHAIN2, CHAIN3, POS, E) == []
    assert checks.currying_problems(DISCRETE2, CHAIN2, CHAIN3, E, triples) == []


def test_exponential_with_a_dropped_element_is_rejected():
    E, _ = closure_output(DISCRETE2, CHAIN2, CHAIN3, POS)
    gone = E.carrier[-1]
    smaller = structure(POS, E.carrier[:-1], {e for e in E.edges if gone not in e[1]})
    assert checks.exponential_problems(CHAIN2, CHAIN3, POS, smaller)


def test_exponential_with_a_dropped_edge_is_rejected():
    E, _ = closure_output(DISCRETE2, CHAIN2, CHAIN3, POS)
    f = E.carrier[0]
    assert checks.exponential_problems(CHAIN2, CHAIN3, POS, without(E, (LE, (f, f))))


def test_uncurry_that_is_not_an_inverse_is_rejected():
    E, triples = closure_output(DISCRETE2, CHAIN2, CHAIN3, POS)
    f, g, back = triples[1]
    wrong = dict(back)
    key = next(iter(wrong))
    wrong[key] = next(y for y in CHAIN3.carrier if y != wrong[key])
    corrupted = triples[:1] + [(f, g, wrong)] + triples[2:]
    assert checks.currying_problems(DISCRETE2, CHAIN2, CHAIN3, E, corrupted)


def test_a_repeated_or_missing_morphism_is_rejected():
    E, triples = closure_output(DISCRETE2, CHAIN2, CHAIN3, POS)
    repeated = triples[:-1] + [triples[0]]
    assert checks.currying_problems(DISCRETE2, CHAIN2, CHAIN3, E, repeated)
    assert checks.currying_problems(DISCRETE2, CHAIN2, CHAIN3, E, triples[:-1])


# -- the chase ---------------------------------------------------------------------------

CYCLE = structure(POS, ("x0", "x1", "x2"), {(LE, ("x0", "x1")), (LE, ("x1", "x0")), (LE, ("x1", "x2"))})


def test_chase_checks_pass_the_program_output():
    for T in (PREORD, POS):
        model, unit = relcore.chase(CYCLE, T)
        assert checks.chase_problems(CYCLE, T, model, unit, T.name) == []
    rng = random.Random(3)
    for label in ("simp(2)", "qchain(2)"):
        T = relcore.builtin_theory(label)
        X = workloads.random_structure(T, 6, {1: 2, 2: 5}, rng)
        model, unit = relcore.chase(X, T)
        assert checks.chase_problems(X, T, model, unit, "fixpoint") == []


def test_chase_with_a_dropped_edge_is_rejected():
    model, unit = relcore.chase(CYCLE, PREORD)
    assert checks.chase_problems(CYCLE, PREORD, without(model, (LE, ("x0", "x2"))), unit, "preord")


def test_chase_with_the_wrong_representative_is_rejected():
    model, unit = relcore.chase(CYCLE, POS)
    assert unit["x1"] == "x0"
    swapped = relcore.relabel(model, {"x0": "x1", "x2": "x2"})
    unit = {x: "x1" if r == "x0" else r for x, r in unit.items()}
    assert checks.chase_problems(CYCLE, POS, swapped, unit, "pos")


def test_fixpoint_chase_with_an_extra_edge_is_rejected():
    T = relcore.builtin_theory("qchain(2)")
    X = structure(T, ("x0", "x1"), set())
    model, unit = relcore.chase(X, T)
    extra = structure(T, model.carrier, model.edges | {("~q1", ("x0", "x1"))})
    assert checks.chase_problems(X, T, extra, unit, "fixpoint")


def test_a_unit_that_misses_an_element_is_rejected():
    model, unit = relcore.chase(CYCLE, PREORD)
    bad = dict(unit, x2="x1")
    assert checks.chase_problems(CYCLE, PREORD, model, bad, "preord")


def test_an_off_by_one_hom_count_is_rejected():
    targets = isoenum.models_up_to(POS, 2)
    model, _ = relcore.chase(CYCLE, POS)
    counts = [checks.structure_hom_count(CYCLE, M) for M in targets]
    assert checks.reflection_problems(CYCLE, model, targets, counts, counts) == []
    assert checks.reflection_problems(CYCLE, model, targets, counts, counts[:-1] + [counts[-1] + 1])


# -- completions ---------------------------------------------------------------------------

def wedge():
    pre = poset(("p", "u0", "u1"), [("u0", "u1")])
    return cpo.CpoPresentation(pre, (("p", ("u0", "u1")),))


def completion_output(P, targets):
    completion, unit = cpo.free_omega_cpo(P)
    counts = [
        (checks.presentation_morphism_count(P, X), checks.structure_hom_count(completion, X))
        for X in targets
    ]
    return completion, unit, counts


def test_completion_checks_pass_the_program_output():
    P, targets = wedge(), isoenum.models_up_to(POS, 3)
    completion, unit, counts = completion_output(P, targets)
    assert checks.completion_problems(P, completion, unit, targets, counts) == []


def test_completion_with_a_dropped_edge_or_extra_morphism_is_rejected():
    P, targets = wedge(), isoenum.models_up_to(POS, 3)
    completion, unit, counts = completion_output(P, targets)
    assert checks.completion_problems(P, without(completion, (LE, ("p", "u1"))), unit, targets, counts)
    (a, b), *rest = counts
    assert checks.completion_problems(P, completion, unit, targets, [(a + 1, b + 1)] + rest)


def test_completion_that_ignores_a_cover_is_rejected():
    P = wedge()
    plain, unit = cpo.free_omega_cpo(cpo.CpoPresentation(P.preorder, ()))
    assert checks.completion_problems(P, plain, unit, [], [])


# -- free algebras ------------------------------------------------------------------------

def free(name, n):
    T = dsl.parse_theory(workloads.FIXTURE_THEORIES[name]).theories[name]
    sorts = T.signature.sorts
    return T, monad.free_algebra(T, syntax.Arity.of(sorts, {sorts.sorts[0]: n}))


def test_free_algebra_checks_pass_the_program_output():
    for name, n in workloads.FREE_ALGEBRAS:
        T, result = free(name, n)
        assert checks.free_algebra_problems(name, n, T, result) == [], name


def test_free_algebra_with_an_off_by_one_count_is_rejected():
    T, result = free("semilattice", 2)
    bad = dataclasses.replace(result, class_count=result.class_count + 1)
    assert checks.free_algebra_problems("semilattice", 2, T, bad)


def test_free_algebra_with_a_broken_table_is_rejected():
    T, result = free("involution", 2)
    table = result.algebra.interp["f"]
    first = next(iter(table.values()))
    constant = {"f": {point: first for point in table}}  # f(f(x)) == x now fails
    algebra = dataclasses.replace(result.algebra, interp=constant)
    assert checks.free_algebra_problems("involution", 2, T, dataclasses.replace(result, algebra=algebra))


# -- algebras and truncations ------------------------------------------------------------

def theory_output(kind, extras, n_eq, n_ineq, seed=5):
    spec = workloads.random_theory_spec(kind, extras, n_eq, n_ineq, random.Random(seed))
    T = dsl.parse_theory(workloads.render_theory("t", spec)).theories["t"]
    return spec, workloads.Algebras._theory(T, 2)()


def test_theory_checks_pass_the_program_output():
    for kind, extras, n_eq, n_ineq in (
        ("relational", (("c", 0), ("m", 2)), 1, 1),
        ("enriched", (("g", 1),), 1, 0),
        ("unary", (), 0, 1),
    ):
        spec, report = theory_output(kind, extras, n_eq, n_ineq)
        assert checks.theory_report_problems(spec, report) == [], kind


def test_theory_report_with_an_off_by_one_count_is_rejected():
    spec, report = theory_output("relational", (("g", 1),), 0, 1)
    row = report.rows[-1]
    bumped = dataclasses.replace(row, count_left=row.count_left + 1, count_right=row.count_right + 1)
    report = dataclasses.replace(report, rows=report.rows[:-1] + [bumped])
    assert checks.theory_report_problems(spec, report)


def test_a_failing_report_row_is_rejected():
    spec, report = theory_output("enriched", (), 0, 0)
    failed = dataclasses.replace(report.rows[0], ok=False, detail="hom structures differ")
    report = dataclasses.replace(report, rows=[failed] + report.rows[1:])
    assert checks.theory_report_problems(spec, report)


def test_truncation_checks_pass_and_reject_an_off_by_one_count():
    S = syntax.SortSet(("A",))
    SET = relcore.builtin_theory("set")
    arities = [syntax.Arity.of(S, {}), syntax.Arity.of(S, {"A": 1})]
    exc = monad.verify_presentation(monad.exception_truncation(SET, S, arities), 3)
    ident = monad.verify_presentation(monad.identity_truncation(SET, S, arities), 3)
    assert checks.truncation_report_problems("exception", exc) == []
    assert checks.truncation_report_problems("identity", ident) == []
    row = exc.rows[-1]
    bumped = dataclasses.replace(row, count_left=row.count_left - 1, count_right=row.count_right - 1)
    assert checks.truncation_report_problems(
        "exception", dataclasses.replace(exc, rows=exc.rows[:-1] + [bumped])
    )
    assert checks.truncation_report_problems("identity", exc)


def test_every_workload_round_passes_its_checks():
    """A smoke run of the first few ops of each workload."""
    for cls in workloads.WORKLOADS.values():
        for op in cls(1).round(0)[:6]:
            assert op.check(op.run()) == [], op.kind
