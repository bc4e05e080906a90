"""Enumeration of finite structures and models up to isomorphism, by one
cell-by-cell search over the edge slots on relcore._search (_enumerate).  A
class is represented by its labelling with the least key, so enumeration
order is deterministic and each class is kept once.
"""
from __future__ import annotations

import itertools
import math
from operator import itemgetter

from .budget import Budget, ensure_budget
from .relcore import (
    _EQ_SPELLINGS,
    FinStructure,
    HeytingAlgebra,
    HornTheory,
    RelSignature,
    StructureError,
    _search,
)


def _enumerate(sig: RelSignature, size: int, axioms: tuple, up_to_iso: bool,
               budget: Budget, lattice: HeytingAlgebra | None = None) -> list[FinStructure]:
    """The labelled structures on x0 ... x(size - 1) that satisfy the
    axioms, in the order of their keys; up to isomorphism, only the least
    key of each class.  The key is read in digits, blocks of cells: without
    a lattice one slot each, from the last slot down, so that it orders like
    the edge mask; for qcat(Q), one pair (i, j) each in product order, its
    cells the relations from Q's last element down and its value the index
    in Q's elements of the q whose down-set holds there.  The search yields
    the bits in lexicographic order, which is the key order unless Q is not
    listed bottom-up, so a lattice's result is sorted by the key.

    A premise-free instance narrows its cell to 1, and an equality on
    distinct values fails when every premise holds.  Once a prefix of the
    key and its image under a carrier permutation are known, a smaller image
    prunes the branch ("lex-leader" symmetry breaking, Crawford et al., KR
    1996).  The budget is charged one unit per cell assignment and per
    prefix compared, and up front one per digit of each permutation."""
    slots = [(rel, tup) for rel, ar in sig.symbols for tup in itertools.product(range(size), repeat=ar)]
    if lattice is None:
        width, rank = 1, {(0,): 0, (1,): 1}
        digits = [(slot,) for slot in reversed(slots)]
    else:
        down = lattice.elements[::-1]
        width = len(down)
        rank = {tuple([int(lattice.leq(e, v)) for e in down]): i for i, v in enumerate(lattice.elements)}
        digits = [tuple([(lattice.rel_name(e), p) for e in down]) for p in itertools.product(range(size), repeat=2)]
    if up_to_iso:
        budget.charge(math.factorial(size) * len(digits))
    cells = [slot for digit in digits for slot in digit]
    at = {slot: k for k, slot in enumerate(cells)}
    doms = [0b11] * len(cells)
    checks: list[list] = [[] for _ in cells]
    by_last: list[list] = [[] for _ in cells]  # (conclusion cells, premise cells)
    for ax in axioms:
        names = sorted({v for _, tup in ax.premises for v in tup} | set(ax.conclusion[1]))
        crel, ctup = ax.conclusion
        for vals in itertools.product(range(size), repeat=len(names)):
            env = dict(zip(names, vals))
            reads = {at[rel, tuple([env[v] for v in tup])] for rel, tup in ax.premises}
            if crel in _EQ_SPELLINGS:
                if env[ctup[0]] == env[ctup[1]]:
                    continue
                heads = ()
            else:
                heads = (at[crel, tuple([env[v] for v in ctup])],)
            if not reads:
                if not heads:
                    return []
                doms[heads[0]] = 0b10
            elif not reads.intersection(heads):
                by_last[max(reads.union(heads))].append((heads, tuple(reads)))
    for k, insts in enumerate(by_last):
        if insts:
            def holds(image, insts=insts) -> bool:
                return not any(
                    all([image[p] for p in reads]) and not any([image[c] for c in heads])
                    for heads, reads in insts
                )

            checks[k].append(holds)
    if up_to_iso:
        where = {digit: t for t, digit in enumerate(digits)}
        tables = dict.fromkeys(
            tuple([where[tuple([(rel, tuple([perm[i] for i in tup])) for rel, tup in d])] for d in digits])
            for perm in itertools.permutations(range(size))
        )
        tables.pop(tuple(range(len(digits))), None)
        # per digit t, a (prefix of the image, prefix of the key) getter pair
        # for each table whose prefix known on both sides grows at t
        grown: list[list] = [[] for _ in digits]
        for table in tables:
            known = 0
            for t in range(len(digits)):
                old = known
                while known <= t and table[known] <= t:
                    known += 1
                if known > old:
                    grown[t].append((itemgetter(*table[:known]), itemgetter(*range(known))))
        key = [0] * len(digits)  # the digits' values on the current branch
        for t, pairs in enumerate(grown):
            def least(image, t=t, pairs=pairs) -> bool:
                key[t] = rank[tuple(image[t * width:(t + 1) * width])]
                budget.charge(len(pairs))
                return all(get(key) >= head(key) for get, head in pairs)

            checks[(t + 1) * width - 1].append(least)

    images: list = []
    _search((0, 1), doms, [[] for _ in cells], checks, images, budget=budget)
    if lattice is not None:
        images.sort(key=lambda image: [rank[image[a:a + width]] for a in range(0, len(image), width)])
    carrier = tuple(f"x{i}" for i in range(size))
    edges = [(rel, tuple([carrier[i] for i in tup])) for rel, tup in cells]
    return [FinStructure(sig, carrier, frozenset(itertools.compress(edges, image))) for image in images]


def all_structures(
    sig: RelSignature,
    size: int,
    up_to_iso: bool = True,
    budget: Budget | int | None = None,
) -> list[FinStructure]:
    """All structures on a carrier of the given size, in increasing order of
    their edge masks (least-mask representatives when up_to_iso): the model
    search of no axioms.  More than 22 edge slots raise StructureError."""
    nslots = sum(size ** ar for _, ar in sig.symbols)
    if nslots > 22:
        raise StructureError(
            f"too many edge slots ({nslots}) for exhaustive structure enumeration"
        )
    return _enumerate(sig, size, (), up_to_iso, ensure_budget(budget))


def all_models(
    T: HornTheory,
    size: int,
    up_to_iso: bool = True,
    budget: Budget | int | None = None,
) -> list[FinStructure]:
    """All models of T on a carrier of the given size (least-key
    representatives when up_to_iso; see _enumerate), bounded by the
    budget rather than by the number of edge slots."""
    return _enumerate(T.signature, size, T.axioms, up_to_iso, ensure_budget(budget), T.qcat_lattice)


def models_up_to(
    T: HornTheory,
    max_size: int,
    up_to_iso: bool = True,
    min_size: int = 0,
    budget: Budget | int | None = None,
) -> list[FinStructure]:
    """All models of T on carriers of min_size to max_size elements, by
    size; one budget bounds the whole call."""
    bgt = ensure_budget(budget)
    out = []
    for n in range(min_size, max_size + 1):
        out.extend(all_models(T, n, up_to_iso, bgt))
    return out


def model_families(
    T: HornTheory,
    sorts,
    max_size: int,
    budget: Budget | int | None = None,
) -> list[dict[str, FinStructure]]:
    """Sort-indexed families of models, one structure per sort, enumerated
    componentwise up to isomorphism."""
    pool = models_up_to(T, max_size, budget=budget)
    return [
        dict(zip(sorts.sorts, combo))
        for combo in itertools.product(pool, repeat=len(sorts.sorts))
    ]
