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
    _image,
    _preserves,
    builtin_theory,
    chase,
    count_morphisms,
    is_model,
)
from .syntax import (
    ChainRelation,
    ExplicitChain,
    extended_context,
)


# the base of every free completion and the theory of every presentation,
# built once so that their compiled joins are kept
_POS = builtin_theory("pos")
_PREORD = builtin_theory("preord")


class IterationNotStabilized(RuntimeError):
    """An iterated chain failed to stabilize within its bound."""


def _top(X: FinStructure, chain: tuple) -> int | None:
    """The carrier index of the first element of chain that all of chain is
    below, read from the rows of X's order; None when two positions of chain
    hold incomparable elements, or when there is no such element."""
    succ, pred, _ = X.rows[LE]
    ps = [X.index[u] for u in chain]
    members = 0
    for i in ps:
        members |= 1 << i
    for i, j in itertools.combinations(ps, 2):
        if not (succ[i] >> j & 1 or succ[j] >> i & 1):
            return None
    for i in ps:
        if not members & ~pred[i]:
            return i
    return None


@dataclass(frozen=True)
class CpoPresentation:
    """A preordered set plus covers p <| U, where each U is a nonempty chain;
    the cover forces p below the supremum of U in the free completion."""

    preorder: FinStructure
    covers: tuple[tuple[object, tuple], ...] = ()

    def __post_init__(self):
        if not is_model(self.preorder, _PREORD):
            raise StructureError("presentation carrier must be a preorder")
        members = set(self.preorder.carrier)
        for p, chain in self.covers:
            if p not in members or not chain:
                raise StructureError("covers need a carrier element and a nonempty set")
            for u in chain:
                if u not in members:
                    raise StructureError("cover sets must lie in the carrier")
            if _top(self.preorder, chain) is None:
                raise StructureError("cover sets must be chains in the preorder")


def cover_holds(P: CpoPresentation | FinStructure, p, chain: Iterable) -> bool:
    """Is (p, chain) a cover?  Explicit presentations answer by membership;
    posets regarded as presentations answer semantically."""
    chain = tuple(chain)
    if isinstance(P, FinStructure):
        try:
            top = _top(P, chain)
        except KeyError:  # an element outside the carrier
            return False
        return top is not None and p in P.index and P.rows[LE][0][P.index[p]] >> top & 1 == 1
    return any(
        q == p and set(ch) == set(chain) for q, ch in P.covers
    )


def free_omega_cpo(P: CpoPresentation) -> tuple[FinStructure, dict]:
    """Free chain-complete poset on a presentation: the pos chase of the
    preorder plus one edge p <= max U for each cover (p, U).

    The cover edge is fixed once: U is a chain of the preorder and the chase
    only adds order, so the greatest element of U stays greatest throughout.
    Returns (poset, unit); the unit maps presentation elements to their class
    representatives (earliest in carrier order) and preserves covers.
    """
    X = P.preorder
    cover_edges = {(LE, (p, X.carrier[_top(X, chain)])) for p, chain in P.covers}
    raw = FinStructure(X.signature, X.carrier, X.edges | cover_edges)
    return chase(raw, _POS)


def is_presentation_morphism(
    f: Mapping, P: CpoPresentation, Q: CpoPresentation | FinStructure
) -> bool:
    """Monotone and cover-preserving; the target may be an explicit
    presentation or a poset regarded as one."""
    X = P.preorder
    QX = Q if isinstance(Q, FinStructure) else Q.preorder
    image = _image(f, X.carrier, QX)
    if image is None or not _preserves(X, QX, LE, [image, image]):
        return False
    for p, chain in P.covers:
        if not cover_holds(Q, f[p], tuple(f[u] for u in chain)):
            return False
    return True


# -- chain-relation satisfaction -------------------------------------------------

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
        bound = count_morphisms(dom, cod) + 1
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
    images = [_image(t, dom.carrier, cod) for t in tables]
    for fa, fb in zip(images, images[1:]):
        if fa is None or fb is None or not _preserves(dom, cod, LE, [fa, fb]):
            return False
    return tables[-1] == limit

