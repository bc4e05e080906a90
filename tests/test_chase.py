"""The chase against its naive oracle on structures of 6-12 elements, the
rows it starts from, and a pinned digest of its results on a fixed corpus."""
from __future__ import annotations

import hashlib
import random
from types import SimpleNamespace

import pytest

from enrvar import relcore
from enrvar.cpo import CpoPresentation, free_omega_cpo
from enrvar.monad import graph_presentation
from enrvar.relcore import EQ, LE, FinStructure, HornFormula, RelSignature, builtin_theory, chase

from oracles import naive_chase
from test_monad import SATURATING, fixture_theory
from test_relcore import MIXED

POS = builtin_theory("pos")
PREORD = builtin_theory("preord")

# (base, carrier size, edges per relation arity): the shapes of the
# saturation benchmark's chases
SATURATION_SHAPES = (
    ("pos", 30, {2: 60}),
    ("preord", 20, {2: 40}),
    ("simp(3)", 14, {1: 3, 2: 8, 3: 5}),
    ("qchain(2)", 12, {2: 20}),
    ("qchain(3)", 10, {2: 16}),
)


# a presentation without reflexivity axioms, which only the chase core
# accepts: a merge can give the element kept its first loop, along its row,
# its column or from the other's loop, and nothing derives that loop again
LOOPS_SIG = RelSignature((("R", 2), ("T", 1), ("E", 2)))
LOOPS = (
    HornFormula(frozenset({("E", ("x", "y"))}), (EQ, ("x", "y"))),
    HornFormula(frozenset({("R", ("x", "x"))}), ("T", ("x",))),
    HornFormula(frozenset({("R", ("x", "y")), ("T", ("x",))}), ("T", ("y",))),
)


def sparse_structure(rng, sig, n, most=0, per_rel=None):
    """A structure on x0 .. x(n-1) with per_rel[arity] random edges per
    relation (duplicates dropped), or with 0 .. most of them when per_rel is
    None."""
    carrier = tuple(f"x{i}" for i in range(n))
    edges = frozenset(
        (rel, tuple(rng.choice(carrier) for _ in range(ar)))
        for rel, ar in sig.symbols
        for _ in range(rng.randint(0, most) if per_rel is None else per_rel.get(ar, 0))
    )
    return FinStructure(sig, carrier, edges)


def presentation(rng, n, p=0.03, covers=12, longest=4):
    """A preorder on n elements (pairs with probability p, closed by the
    preord chase) with covers on seeded chains of at most longest."""
    carrier = tuple(f"p{i}" for i in range(n))
    raw = FinStructure(POS.signature, carrier, frozenset(
        (LE, (a, b)) for a in carrier for b in carrier if rng.random() < p
    ))
    pre = chase(raw, PREORD).model
    cover_list = []
    for _ in range(covers):
        order = list(pre.carrier)
        rng.shuffle(order)
        chain = [order[0]]
        for x in order[1:]:
            if len(chain) == longest:
                break
            if all((LE, (x, u)) in pre.edges or (LE, (u, x)) in pre.edges for u in chain):
                chain.append(x)
        cover_list.append((rng.choice(pre.carrier), tuple(chain)))
    return CpoPresentation(pre, tuple(cover_list))


def graph_theories():
    return [(name, *graph_presentation(fixture_theory(name))) for name in SATURATING]


class TestChaseAgainstOracle:
    """Several delta rounds, with merges inside a round, on 6-12 elements."""

    # per theory: the most edges per relation, as a multiple of the carrier
    # size, and the structures per size
    @pytest.mark.parametrize("T, density, count", [
        (POS, 2, 3), (PREORD, 2, 3), (builtin_theory("simp(3)"), 1, 1),
        (builtin_theory("qchain(3)"), 1, 1), (MIXED, 2, 1),
    ], ids=["pos", "preord", "simp(3)", "qchain(3)", "mixed"])
    def test_theories(self, T, density, count):
        rng = random.Random(f"chase-oracle:{T.name}")
        for n in [n for n in range(6, 13) for _ in range(count)]:
            X = sparse_structure(rng, T.signature, n, density * n)
            model, unit = chase(X, T)
            assert (model, unit) == naive_chase(X, T), X
            assert relcore._chase(X, T.signature, T.axioms) == (model, unit)

    def test_loops_made_by_merges(self):
        rng = random.Random("chase-oracle:loops")
        T = SimpleNamespace(signature=LOOPS_SIG, axioms=LOOPS)
        for n in [n for n in range(6, 13) for _ in range(4)]:
            X = sparse_structure(rng, LOOPS_SIG, n, n)
            assert relcore._chase(X, LOOPS_SIG, LOOPS) == naive_chase(X, T), X

    def test_graph_presentations(self):
        rng = random.Random("chase-oracle:graphs")
        merged = 0
        for name, signature, axioms in graph_theories():
            for n in (6, 9, 12):
                X = sparse_structure(rng, signature, n, 2 * n)
                model, unit = relcore._chase(X, signature, axioms)
                naive = naive_chase(X, SimpleNamespace(signature=signature, axioms=axioms))
                assert (model, unit) == naive, (name, X)
                merged += len(X.carrier) - len(model.carrier)
        assert merged > 20


class TestRows:
    SIG = RelSignature((("P", 0), ("Q", 0), ("U", 1), ("R", 2), ("T", 3)))

    @staticmethod
    def reference(X):
        n = len(X.carrier)
        out = {}
        for rel, ar in X.signature.symbols:
            tuples = {tuple(X.index[x] for x in tup) for r, tup in X.edges if r == rel}
            if ar == 0:
                out[rel] = bool(tuples)
            elif ar == 1:
                out[rel] = sum(1 << i for i in range(n) if (i,) in tuples)
            elif ar == 2:
                out[rel] = [
                    [sum(1 << j for j in range(n) if (i, j) in tuples) for i in range(n)],
                    [sum(1 << i for i in range(n) if (i, j) in tuples) for j in range(n)],
                    sum(1 << i for i in range(n) if (i, i) in tuples),
                ]
            else:
                out[rel] = tuples
        return out

    def test_every_arity_against_the_edges(self):
        rng = random.Random(17)
        loops = 0
        for _ in range(200):
            n = rng.randint(1, 9)
            X = sparse_structure(rng, self.SIG, n, 2 * n)
            assert X.rows == self.reference(X), X
            loops += bool(X.rows["R"][2])
        assert loops > 50

    def test_empty_carrier(self):
        X = FinStructure(self.SIG, (), frozenset({("P", ())}))
        assert X.rows == {"P": True, "Q": False, "U": 0, "R": [[], [], 0], "T": set()}


def chase_corpus():
    """The fixed inputs of the identity gate, each a (name, run) pair."""
    rng = random.Random("chase-identity")
    out = []
    for label, n, per_rel in SATURATION_SHAPES:
        T = builtin_theory(label)
        for _ in range(4):
            X = sparse_structure(rng, T.signature, n, per_rel=per_rel)
            out.append((label, lambda X=X, T=T: chase(X, T)))
    for n in range(6, 13):
        X = sparse_structure(rng, MIXED.signature, n, 2 * n)
        out.append(("mixed", lambda X=X: chase(X, MIXED)))
    for name, signature, axioms in graph_theories():
        for n in (6, 10, 14):
            X = sparse_structure(rng, signature, n, 2 * n)
            out.append((name, lambda X=X, s=signature, a=axioms: relcore._chase(X, s, a)))
    for _ in range(4):
        P = presentation(rng, 48)
        out.append(("completion", lambda P=P: free_omega_cpo(P)))
    return out


def render(model, unit) -> str:
    """A result in a form that does not depend on the hash seed: the carrier
    in order, the edges sorted, the unit's items in order."""
    return repr((model.carrier, sorted(map(repr, model.edges)), list(unit.items())))


# SHA-256 of the rendered results, computed with the chase whose delta was a
# set of index tuples per relation, before its delta became rows
PINNED = "7591f7e67e87d83a71189dba0af23792d97412408aa52719f942a97fc55969bd"


def test_chase_results_are_pinned():
    lines = [f"{name}: {render(*run())}" for name, run in chase_corpus()]
    assert len(lines) == 20 + 7 + 3 * len(SATURATING) + 4
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == PINNED
