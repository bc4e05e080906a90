"""Finite presentations of chain-complete posets and chain-relation
satisfaction on finite algebras.

Finite posets stand in for the chain-complete case: every increasing chain in
a finite poset is eventually constant, so its supremum is the tail value and
every monotone map is continuous.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping

from .relcore import (
    LE,
    FinStructure,
    StructureError,
    builtin_theory,
    chase,
    enumerate_morphisms,
    is_model,
)
from .syntax import (
    ChainRelation,
    ExplicitChain,
    extended_context,
)


# the base of every free completion, built once so its compiled joins are kept
_POS = builtin_theory("pos")


class IterationNotStabilized(RuntimeError):
    """An iterated chain failed to stabilize within its bound."""


def _leq(X: FinStructure, a, b) -> bool:
    return (LE, (a, b)) in X.edges


@dataclass(frozen=True)
class CpoPresentation:
    """A preordered set plus covers p <| U, where each U is a nonempty chain;
    the cover forces p below the supremum of U in the free completion."""

    preorder: FinStructure
    covers: tuple[tuple[object, tuple], ...] = ()

    def __post_init__(self):
        if not is_model(self.preorder, builtin_theory("preord")):
            raise StructureError("presentation carrier must be a preorder")
        members = set(self.preorder.carrier)
        for p, chain in self.covers:
            if p not in members or not chain:
                raise StructureError("covers need a carrier element and a nonempty set")
            for u in chain:
                if u not in members:
                    raise StructureError("cover sets must lie in the carrier")
            for u, v in itertools.combinations(chain, 2):
                if not (_leq(self.preorder, u, v) or _leq(self.preorder, v, u)):
                    raise StructureError("cover sets must be chains in the preorder")


def poset_as_presentation(X: FinStructure) -> CpoPresentation:
    """Regard a finite poset as a presentation: p <| U iff U is a chain and
    p is below its greatest element.  Covers stay implicit; cover_holds
    answers membership semantically."""
    return CpoPresentation(X, ())


def cover_holds(P: CpoPresentation | FinStructure, p, chain: Iterable) -> bool:
    """Is (p, chain) a cover?  Explicit presentations answer by membership;
    posets regarded as presentations answer semantically."""
    chain = tuple(chain)
    if isinstance(P, FinStructure):
        X = P
        for u, v in itertools.combinations(chain, 2):
            if not (_leq(X, u, v) or _leq(X, v, u)):
                return False
        top = _greatest(X, chain)
        return top is not None and _leq(X, p, top)
    return any(
        q == p and set(ch) == set(chain) for q, ch in P.covers
    )


def _greatest(X: FinStructure, chain: tuple):
    for u in chain:
        if all(_leq(X, v, u) for v in chain):
            return u
    return None


def free_omega_cpo(P: CpoPresentation) -> tuple[FinStructure, dict]:
    """Free chain-complete poset on a presentation: the pos chase of the
    preorder plus one edge p <= max U for each cover (p, U).

    The cover edge is fixed once: U is a chain of the preorder and the chase
    only adds order, so the greatest element of U stays greatest throughout.
    Returns (poset, unit); the unit maps presentation elements to their class
    representatives (earliest in carrier order) and preserves covers.
    """
    X = P.preorder
    cover_edges = {(LE, (p, _greatest(X, chain))) for p, chain in P.covers}
    raw = FinStructure(X.signature, X.carrier, X.edges | cover_edges)
    return chase(raw, _POS)


def is_presentation_morphism(
    f: Mapping, P: CpoPresentation, Q: CpoPresentation | FinStructure
) -> bool:
    """Monotone and cover-preserving; the target may be an explicit
    presentation or a poset regarded as one."""
    X = P.preorder
    QX = Q if isinstance(Q, FinStructure) else Q.preorder
    for x in X.carrier:
        if x not in f:
            raise StructureError(f"map is not total: {x!r} unassigned")
    for rel, (a, b) in X.edges:
        if rel == LE and not _leq(QX, f[a], f[b]):
            return False
    for p, chain in P.covers:
        if not cover_holds(Q, f[p], tuple(f[u] for u in chain)):
            return False
    return True


# -- chain-relation satisfaction -------------------------------------------------

def _table_leq(dom: FinStructure, cod: FinStructure, ta: Mapping, tb: Mapping) -> bool:
    """Order of the internal hom: every <=-edge of the domain maps to a
    <=-edge of the codomain across the two tables."""
    for a, b in dom.edges_by_rel[LE]:
        if not _leq(cod, ta[a], tb[b]):
            return False
    return True


def satisfies_chain_relation(A, rel: ChainRelation) -> bool:
    """The materialized chain of term tables must increase in the internal
    hom order and stabilize at the limit's table."""
    from .algebra import context_power, eval_term, interpret_term

    if A.signature.base.name != "pos":
        raise StructureError("chain relations are interpreted over the pos base")
    dom = context_power(A.carrier, rel.context)
    cod = A.carrier[rel.sort]
    limit = interpret_term(A, rel.context, rel.limit)
    if isinstance(rel.chain, ExplicitChain):
        tables = [interpret_term(A, rel.context, t) for t in rel.chain.terms]
    else:
        # iterate tables; pigeonhole on monotone tables bounds the search
        hole_ctx = extended_context(rel.context, rel.sort)
        current = interpret_term(A, rel.context, rel.chain.seed)
        tables = [current]
        bound = _monotone_map_count(dom, cod) + 1
        for _ in range(bound):
            step = {
                point: eval_term(A, hole_ctx, rel.chain.step, point + (current[point],))
                for point in dom.carrier
            }
            if step == current:
                break
            tables.append(step)
            current = step
        else:
            raise IterationNotStabilized(
                "iterated chain did not stabilize within the pigeonhole bound"
            )
    for ta, tb in zip(tables, tables[1:]):
        if not _table_leq(dom, cod, ta, tb):
            return False
    return tables[-1] == limit


def _monotone_map_count(dom: FinStructure, cod: FinStructure) -> int:
    return len(enumerate_morphisms(dom, cod))
