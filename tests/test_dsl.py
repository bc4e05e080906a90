from __future__ import annotations

import random
import signal
import time
from pathlib import Path

import pytest

from enrvar.algebra import ClassicalTheoryWithRelations, EnrichedTheory, theory_parts
from enrvar.dsl import MAX_TERM_DEPTH, DslError, TheoryFile, parse_theory, print_theory
from enrvar.syntax import SortError
from enrvar.translate import (
    cpo_classical_to_enriched,
    cpo_enriched_to_classical,
    enriched_to_relational,
    relational_to_enriched,
)

from conftest import FIXTURES


def load(name: str) -> str:
    return (FIXTURES / name).read_text()


def corpus():
    return sorted(FIXTURES.iterdir())


class TestCorpus:
    def test_corpus_is_large_enough(self):
        theories = 0
        for path in corpus():
            theories += len(parse_theory(path.read_text()).theories)
        assert theories >= 20

    @pytest.mark.parametrize("path", corpus(), ids=lambda p: p.name)
    def test_all_fixtures_load_without_diagnostics(self, path):
        parse_theory(path.read_text())

    @pytest.mark.parametrize("path", corpus(), ids=lambda p: p.name)
    def test_print_parse_fixed_point(self, path):
        tf = parse_theory(path.read_text())
        once = print_theory(tf)
        tf2 = parse_theory(once)
        assert print_theory(tf2) == once
        assert tf2.theories == tf.theories
        assert tf2.models == tf.models
        assert tf2.algebras == tf.algebras
        assert tf2.monads == tf.monads
        assert tf2.presentations == tf.presentations


class TestOrderedMonoidSample:
    def test_shape(self):
        tf = parse_theory(load("ordered_monoid.thy"))
        T = tf.theories["ordered_monoid"]
        assert isinstance(T, ClassicalTheoryWithRelations)
        assert len(T.signature.sorts.sorts) == 1
        assert len(T.signature.ops) == 2
        assert len(T.equations) == 2
        assert len(T.relations) == 1


class TestDiagnostics:
    def test_malformed_relation_arity_names_the_relation(self):
        text = """
theory broken {
  base pos
  sort M
  op f : M -> M
  rel bad [x: M] : nosuchrel(x, f(x))
}
"""
        with pytest.raises(DslError) as err:
            parse_theory(text)
        assert "nosuchrel" in str(err.value)

    def test_parse_error_carries_position(self):
        with pytest.raises(DslError) as err:
            parse_theory("theory t {\n  base pos\n  sort M\n  op : ->\n}")
        assert err.value.line == 4

    def test_unknown_sort_reported(self):
        with pytest.raises(DslError):
            parse_theory("theory t { base set sort A op f : Z -> A }")

    def test_lex_error_position(self):
        with pytest.raises(DslError) as err:
            parse_theory("theory t { base set sort A $ }")
        assert err.value.line == 1

    @pytest.mark.parametrize(
        "text, line, col",
        [
            ("theory t {\n  base simp(0)\n  sort A\n}", 2, 13),
            ("theory t {\n  base qchain(0)\n  sort A\n}", 2, 15),
            ("monad m {\n  base set\n  arity J0 { }\n  sort A\n}", 3, 3),
            ("monad m {\n  base set\n  sort A A\n}", 3, 10),
            ("monad m {\n  base set\n  sort A\n  arity J { B: 1 }\n}", 4, 13),
            ("monad m {\n  sort A\n  arity J { A: 1 }\n  object J { }\n  base set\n}", 4, 3),
            (
                "monad m { base set sort A arity J { A: 1 } "
                "object J { sort B { elems [g] } } }",
                1, 60,
            ),
            (
                "monad m { base set sort A arity J { A: 1 } "
                "object J { sort A { elems [g] } } unit J { A: [h] } "
                "ext J -> J [A: [g]] { A: { g -> zz } } }",
                1, 91,
            ),
            (
                "monad m { base set sort A arity J { A: 1 } "
                "object J { sort A { elems [g] } } unit J { A: [g] } "
                "ext J -> J [A: [g]] { A: { g -> zz } } }",
                1, 128,
            ),
        ],
        ids=[
            "simp-zero", "qchain-zero", "arity-before-sort", "duplicate-sort",
            "unknown-sort", "object-before-base", "object-undeclared-sort",
            "unit-outside-object", "ext-outside-target",
        ],
    )
    def test_malformed_input_fails_at_the_offending_token(self, text, line, col):
        with pytest.raises(DslError) as err:
            parse_theory(text)
        assert (err.value.line, err.value.col) == (line, col)

    @pytest.mark.parametrize("spec, col", [("simp(22)", 13), ("qchain(64)", 15)])
    def test_oversized_builtin_fails_fast_at_its_size(self, spec, col):
        start = time.perf_counter()
        with pytest.raises(DslError) as err:
            parse_theory(f"theory t {{\n  base {spec}\n  sort A\n}}")
        assert time.perf_counter() - start < 1.0
        assert (err.value.line, err.value.col) == (2, col)
        assert "axioms" in err.value.message


    def test_oversized_lattice_fails_at_its_base(self):
        elems = [f"q{i}" for i in range(43)]
        meet = "; ".join(f"({a}, {b}) -> {elems[min(i, j)]}" for i, a in enumerate(elems) for j, b in enumerate(elems))
        join = "; ".join(f"({a}, {b}) -> {elems[max(i, j)]}" for i, a in enumerate(elems) for j, b in enumerate(elems))
        lattice = f"qcat {{ elems [{', '.join(elems)}]; meet {{ {meet} }}; join {{ {join} }}; top q42 }}"
        with pytest.raises(DslError) as err:
            parse_theory(f"theory t {{\n  base {lattice}\n  sort A\n}}")
        assert (err.value.line, err.value.col) == (2, 8)
        assert "has 129 axioms" in err.value.message

    def test_deep_term_fails_at_the_level_past_the_cap(self):
        def text(depth):
            term = "f(" * depth + "x" + ")" * depth
            return f"theory t {{\n  base set\n  sort A\n  op f : A -> A\n  eq e [x: A] : {term} == x\n}}"

        parse_theory(text(MAX_TERM_DEPTH))
        for depth in (MAX_TERM_DEPTH + 1, 5000):
            with pytest.raises(DslError) as err:
                parse_theory(text(depth))
            # the (MAX_TERM_DEPTH + 1)-th argument, after "  eq e [x: A] : "
            assert (err.value.line, err.value.col) == (5, 17 + 2 * (MAX_TERM_DEPTH + 1))
            assert "nests deeper" in err.value.message


# Byte mutations of the fixtures: deletions, inserted punctuation, digits and
# letters, arbitrary bytes, copied spans and one span repeated many times.
FUZZ_BYTES = b"(){}[],:;=<>|-#@~. \n0123456789aAfxz_"
FUZZ_SEED = 20261019
FUZZ_INPUTS = 10000
FUZZ_BOUND_S = 2.0  # per input


def fuzz_inputs(seed: int, count: int):
    rng = random.Random(seed)
    sources = [p.read_bytes() for p in sorted(FIXTURES.glob("*.thy"))]
    for _ in range(count):
        data = bytearray(rng.choice(sources))
        for _ in range(rng.randint(1, 4)):
            i = rng.randrange(len(data) + 1)
            kind = rng.randrange(5)
            if kind == 0:
                del data[i:i + rng.randint(1, 8)]
            elif kind == 1:
                data[i:i] = bytes([rng.choice(FUZZ_BYTES)])
            elif kind == 2:
                data[i:i + 1] = bytes([rng.randrange(256)])
            elif kind == 3:
                j = rng.randrange(len(data) + 1)
                data[i:i] = data[min(i, j):max(i, j)][:40]
            else:
                data[i:i] = data[i:i + rng.randint(1, 4)] * rng.randint(2, 300)
        yield bytes(data).decode("utf-8", errors="replace")


class _Overran(Exception):
    pass


class TestFuzz:
    def test_mutated_fixtures_fail_only_with_diagnostics_in_bounded_time(self):
        def overran(signum, frame):
            raise _Overran

        timed = hasattr(signal, "setitimer")
        if timed:
            previous = signal.signal(signal.SIGALRM, overran)
        try:
            for n, text in enumerate(fuzz_inputs(FUZZ_SEED, FUZZ_INPUTS)):
                if timed:
                    signal.setitimer(signal.ITIMER_REAL, FUZZ_BOUND_S)
                start = time.perf_counter()
                try:
                    parse_theory(text)
                except (DslError, SortError):
                    pass
                except _Overran:
                    pytest.fail(f"input {n} ran past {FUZZ_BOUND_S} s: {text!r}")
                except Exception as e:
                    pytest.fail(f"{type(e).__name__} escaped on input {n}: {e}\n{text!r}")
                finally:
                    if timed:
                        signal.setitimer(signal.ITIMER_REAL, 0)
                assert time.perf_counter() - start < FUZZ_BOUND_S, f"input {n}: {text!r}"
        finally:
            if timed:
                signal.signal(signal.SIGALRM, previous)


class TestTranslatedTheoriesRoundTrip:
    def _roundtrip(self, theory, name):
        tf = TheoryFile()
        tf.theories[name] = theory
        tf.order.append(("theory", name))
        text = print_theory(tf)
        back = parse_theory(text).theories[name]
        sig_a = theory_parts(theory)[0]
        sig_b = theory_parts(back)[0]
        assert sig_a == sig_b
        assert theory_parts(back)[1:] == theory_parts(theory)[1:]
        assert print_theory(parse_theory(text)) == text

    def test_enriched_translation_prints_and_reparses(self):
        P = parse_theory(load("ordered_monoid.thy")).theories["ordered_monoid"]
        T, _ = relational_to_enriched(P)
        self._roundtrip(T, "t")
        P2, _ = enriched_to_relational(T)
        self._roundtrip(P2, "t2")

    def test_chain_translations_print_and_reparse(self):
        P = parse_theory(load("cpo_explicit.thy")).theories["cpo_explicit"]
        T, _ = cpo_classical_to_enriched(P)
        self._roundtrip(T, "t")
        back, _ = cpo_enriched_to_classical(T)
        self._roundtrip(back, "t2")

    def test_scaled_monoid_is_enriched(self):
        tf = parse_theory(load("scaled_monoid.thy"))
        T = tf.theories["scaled_monoid"]
        assert isinstance(T, EnrichedTheory)
        act = T.signature.by_name["act"]
        assert len(act.param.carrier) == 2


class TestSurfaceForms:
    def test_unicode_aliases(self):
        a = parse_theory(
            "theory t { base pos sort M op f : M -> M rel r [x: M] : x ≤ f(x) }"
        )
        b = parse_theory(
            "theory t { base pos sort M op f : M -> M rel r [x: M] : x <= f(x) }"
        )
        assert a.theories == b.theories

    def test_quoted_ids(self):
        tf = parse_theory('model m : set { elems ["odd name", plain] }')
        assert tf.models["m"].carrier == ("odd name", "plain")

    def test_constant_shadowed_by_variable_roundtrips(self):
        text = (
            "theory t { base set sort A op e : -> A op f : A -> A "
            "eq shadow [e: A] : f(e) == e() }"
        )
        tf = parse_theory(text)
        once = print_theory(tf)
        assert parse_theory(once).theories == tf.theories
