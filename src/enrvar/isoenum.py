"""Enumeration of finite structures and models up to isomorphism.

Canonical forms are computed by minimizing the edge set over all carrier
permutations, so enumeration order is deterministic and blow-up is kept to
one representative per isomorphism class.
"""
from __future__ import annotations

import itertools

from .budget import Budget, ensure_budget
from .relcore import (
    FinStructure,
    HornTheory,
    RelSignature,
    StructureError,
    is_model,
)


def default_carrier(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(n))


def _edge_slots(sig: RelSignature, n: int) -> list[tuple[str, tuple[int, ...]]]:
    slots = []
    for rel, ar in sig.symbols:
        for tup in itertools.product(range(n), repeat=ar):
            slots.append((rel, tup))
    return slots


def canonical_key(X: FinStructure) -> tuple:
    """Isomorphism-invariant key: the least relabelled edge set over all
    carrier permutations (plus the carrier size)."""
    n = len(X.carrier)
    idx = X.index
    edges = [(rel, tuple(idx[x] for x in tup)) for rel, tup in X.edges]
    best = None
    for perm in itertools.permutations(range(n)):
        mapped = tuple(sorted((rel, tuple(perm[i] for i in tup)) for rel, tup in edges))
        if best is None or mapped < best:
            best = mapped
    return (n, best)


def isomorphic(X: FinStructure, Y: FinStructure) -> bool:
    if X.signature != Y.signature or len(X.carrier) != len(Y.carrier):
        return False
    return canonical_key(X) == canonical_key(Y)


def all_structures(
    sig: RelSignature,
    size: int,
    up_to_iso: bool = True,
    budget: Budget | int | None = None,
) -> list[FinStructure]:
    """All structures on a carrier of the given size (canonical representatives
    when up_to_iso).  Works directly on edge bit masks for speed."""
    bgt = ensure_budget(budget)
    slots = _edge_slots(sig, size)
    nslots = len(slots)
    if nslots > 22:
        raise StructureError(
            f"too many edge slots ({nslots}) for exhaustive structure enumeration"
        )
    carrier = default_carrier(size)
    perms = list(itertools.permutations(range(size)))
    # slot index permutation tables
    slot_index = {s: i for i, s in enumerate(slots)}
    tables = []
    for perm in perms:
        tables.append(
            [slot_index[(rel, tuple(perm[i] for i in tup))] for rel, tup in slots]
        )
    out = []
    for mask in range(1 << nslots):
        bgt.charge()
        if up_to_iso:
            minimal = True
            for table in tables:
                m, image = mask, 0
                b = 0
                while m:
                    if m & 1:
                        image |= 1 << table[b]
                    m >>= 1
                    b += 1
                if image < mask:
                    minimal = False
                    break
            if not minimal:
                continue
        edges = frozenset(
            (slots[b][0], tuple(carrier[i] for i in slots[b][1]))
            for b in range(nslots)
            if (mask >> b) & 1
        )
        out.append(FinStructure(sig, carrier, edges))
    return out


def _qcat_models(T: HornTheory, size: int, up_to_iso: bool) -> list[FinStructure]:
    q = T.qcat_lattice
    assert q is not None
    carrier = default_carrier(size)
    elems = q.elements
    pairs = [(i, j) for i in range(size) for j in range(size) if i != j]
    out = []
    seen: set = set()
    for combo in itertools.product(elems, repeat=len(pairs)):
        d = {p: v for p, v in zip(pairs, combo)}
        for i in range(size):
            d[(i, i)] = q.top
        ok = True
        for i, j, k in itertools.product(range(size), repeat=3):
            if not q.leq(q.meet_table[d[(i, j)], d[(j, k)]], d[(i, k)]):
                ok = False
                break
        if not ok:
            continue
        edges = frozenset(
            (q.rel_name(e), (carrier[i], carrier[j]))
            for (i, j), v in d.items()
            for e in elems
            if q.leq(e, v)
        )
        X = FinStructure(T.signature, carrier, edges)
        if up_to_iso:
            key = canonical_key(X)
            if key in seen:
                continue
            seen.add(key)
        out.append(X)
    return out


def all_models(
    T: HornTheory,
    size: int,
    up_to_iso: bool = True,
    budget: Budget | int | None = None,
) -> list[FinStructure]:
    """All models of T on a carrier of the given size (canonical
    representatives when up_to_iso)."""
    if T.qcat_lattice is not None:
        return _qcat_models(T, size, up_to_iso)
    return [
        X
        for X in all_structures(T.signature, size, up_to_iso, budget)
        if is_model(X, T)
    ]


def models_up_to(
    T: HornTheory,
    max_size: int,
    up_to_iso: bool = True,
    min_size: int = 0,
    budget: Budget | int | None = None,
) -> list[FinStructure]:
    out = []
    for n in range(min_size, max_size + 1):
        out.extend(all_models(T, n, up_to_iso, budget))
    return out


def model_families(
    T: HornTheory,
    sorts,
    max_size: int,
    up_to_iso: bool = True,
    min_size: int = 0,
    budget: Budget | int | None = None,
) -> list[dict[str, FinStructure]]:
    """Sort-indexed families of models, one structure per sort, enumerated
    componentwise up to isomorphism."""
    pool = models_up_to(T, max_size, up_to_iso, min_size, budget)
    return [
        dict(zip(sorts.sorts, combo))
        for combo in itertools.product(pool, repeat=len(sorts.sorts))
    ]
