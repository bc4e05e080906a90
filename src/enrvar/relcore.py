"""Finite relational Horn theories and their model categories.

Provides finite relational structures, satisfaction of Horn formulas, the
chase computing free models, finite products, exponentials certified once
per argument triple, and deterministic morphism enumeration.  Everything
is a pure function over immutable values; carriers are ordered tuples and
all enumeration orders derive from carrier order.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import SimpleNamespace
from typing import Hashable, Iterable, Mapping, NamedTuple

from .budget import Budget, ensure_budget

Elem = Hashable
Edge = tuple  # (relation name, tuple of element ids)

# Reserved equality symbol usable as a Horn conclusion; written "==" in the DSL.
EQ = "≐"
_EQ_SPELLINGS = frozenset({EQ, "=="})


class SignatureMismatch(ValueError):
    """Values built over different relational signatures were combined."""


class StructureError(ValueError):
    """A structure, formula, or theory violates a construction invariant."""


class NotClosed(Exception):
    """A candidate exponential failed certification: the supplied theory is
    not cartesian closed under the edge-preservation construction."""


@dataclass(frozen=True)
class RelSignature:
    """A finite set of relation symbols with arities >= 0."""

    symbols: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        names = [n for n, _ in self.symbols]
        if len(set(names)) != len(names):
            raise StructureError("relation names must be pairwise distinct")
        for name, ar in self.symbols:
            if name in _EQ_SPELLINGS:
                raise StructureError(f"relation name {name!r} is reserved for equality")
            if ar < 0:
                raise StructureError(f"relation {name!r} has negative arity")

    @cached_property
    def arity(self) -> dict[str, int]:
        return dict(self.symbols)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.symbols)


@dataclass(frozen=True)
class FinStructure:
    """A finite structure over a relational signature.

    Element ids may be any hashable values (strings at the leaves, tuples for
    product elements, image tuples for exponential elements).
    """

    signature: RelSignature
    carrier: tuple
    edges: frozenset

    def __post_init__(self):
        if len(set(self.carrier)) != len(self.carrier):
            raise StructureError("carrier ids must be pairwise distinct")
        members = set(self.carrier)
        arity = self.signature.arity
        for rel, tup in self.edges:
            if rel not in arity:
                raise StructureError(f"edge uses unknown relation {rel!r}")
            if len(tup) != arity[rel]:
                raise StructureError(f"edge arity mismatch for {rel!r}")
            for x in tup:
                if x not in members:
                    raise StructureError(f"edge mentions {x!r} outside the carrier")

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # the dataclass hash, computed once: exponential's cache hashes its
        # arguments on every call
        return hash((self.signature, self.carrier, self.edges))

    @cached_property
    def index(self) -> dict:
        return {x: i for i, x in enumerate(self.carrier)}

    @cached_property
    def edges_by_rel(self) -> dict[str, tuple]:
        out: dict[str, list] = {n: [] for n in self.signature.names}
        for rel, tup in self.edges:
            out[rel].append(tup)
        idx = self.index
        return {
            n: tuple(sorted(v, key=lambda t: tuple(idx[x] for x in t)))
            for n, v in out.items()
        }

    @cached_property
    def rows(self) -> dict:
        """The relations over carrier indices, read-only.  A binary relation
        gives [succ, pred, loops]: the bit rows of each element's successors
        and predecessors and the mask of self-loops; a unary one, its member
        mask; a nullary one, whether it holds; a wider one, its index tuples."""
        return _rows(self.signature, self.index, self.edges)

    def size(self) -> int:
        return len(self.carrier)


def _rows(signature: RelSignature, index: Mapping, edges: Iterable) -> dict:
    """Fresh rows (see FinStructure.rows) of edges, elements numbered by
    index, built in one pass over the edges."""
    n = len(index)
    rows = {
        rel: [[0] * n, [0] * n, 0] if ar == 2 else set() if ar > 2 else 0
        for rel, ar in signature.symbols
    }
    for rel, tup in edges:
        st = rows[rel]
        if len(tup) == 2:
            a, b = tup
            i, j = index[a], index[b]
            st[0][i] |= 1 << j
            st[1][j] |= 1 << i
            if i == j:
                st[2] |= 1 << i
        elif len(tup) == 1:
            rows[rel] = st | 1 << index[tup[0]]
        elif tup:
            st.add(tuple([index[x] for x in tup]))
        else:
            rows[rel] = True
    return rows


def _put(rows: dict, delta: dict, rel, inst: tuple, mask: int) -> None:
    """Add the rel-edges that inst, a tuple of indices and Nones, gives with
    each set bit of mask in place of its Nones, to rows and to delta, both
    in the form of FinStructure.rows: for a binary relation, (i, None) ORs
    mask into the successors of i, (None, j) into the predecessors of j and
    (None, None) into the loops."""
    for held in (rows, delta):
        st = held[rel]
        if inst == (None, None):
            for v in _bits(mask):
                st[0][v] |= 1 << v
                st[1][v] |= 1 << v
            st[2] |= mask
        elif len(inst) == 2:
            k, line, cross = (inst[0], 0, 1) if inst[1] is None else (inst[1], 1, 0)
            st[line][k] |= mask
            for v in _bits(mask):
                st[cross][v] |= 1 << k
            st[2] |= mask & 1 << k
        elif len(inst) == 1:
            held[rel] = st | mask
        elif not inst:
            held[rel] = True
        else:
            st.update(tuple([v if x is None else x for x in inst]) for v in _bits(mask))


@dataclass(frozen=True)
class HornFormula:
    """premises => conclusion, over variable names.

    The conclusion relation is a signature symbol or the reserved equality
    symbol (binary).  Free conclusion variables are universally quantified.
    """

    premises: frozenset
    conclusion: Edge

    @cached_property
    def joins(self) -> tuple[_Join, ...]:
        """The formula compiled once for the search kernel: one _Join seeded
        by each premise in sorted order, or one unseeded; none when the
        conclusion is x = x.  The seed's variables come first, then those of
        the premise with the most placed already (the first on ties), then
        the conclusion-only ones, and last the conclusion's last variable."""
        crel, ctup = self.conclusion
        if crel in _EQ_SPELLINGS and ctup[0] == ctup[1]:
            return ()
        premises = sorted(self.premises)
        sig = RelSignature(tuple(sorted({(rel, len(tup)) for rel, tup in premises})))
        last = ctup[-1:]
        joins = []
        for seed in premises or [None]:
            rest = [a for a in premises if a != seed]
            order = dict.fromkeys(v for v in (seed[1] if seed else ()) if v not in last)
            while rest:
                atom = max(rest, key=lambda a: sum(v in order for v in a[1]))
                rest.remove(atom)
                order.update(dict.fromkeys(v for v in atom[1] if v not in last))
            order.update(dict.fromkeys(v for v in ctup if v not in last))
            pattern = FinStructure(sig, (*order, *last), frozenset(premises))
            joins.append(_Join(
                pattern,
                FinStructure(sig, pattern.carrier, pattern.edges - {seed}),
                seed and (seed[0], tuple([pattern.index[v] for v in seed[1]])),
                (crel, tuple([pattern.index[v] for v in ctup])),
            ))
        return tuple(joins)


def reflexivity_formula(rel: str, ar: int) -> HornFormula:
    return HornFormula(frozenset(), (rel, ("v",) * ar))


@dataclass(frozen=True)
class HornTheory:
    """A relational Horn theory under the syntactic reflexivity discipline:
    every relation symbol carries an explicit axiom `=> R v ... v`.

    builtin_theory records the maximum arity of simp(n) in simp_bound and the
    lattice of qcat(Q) in qcat_lattice; neither takes part in equality."""

    signature: RelSignature
    axioms: tuple[HornFormula, ...]
    name: str | None = None
    simp_bound: int | None = field(default=None, compare=False)
    qcat_lattice: HeytingAlgebra | None = field(default=None, compare=False)

    def __post_init__(self):
        arity = self.signature.arity
        for ax in self.axioms:
            for rel, tup in ax.premises:
                if rel not in arity or len(tup) != arity[rel]:
                    raise StructureError(f"axiom premise misuses relation {rel!r}")
            crel, ctup = ax.conclusion
            if crel in _EQ_SPELLINGS:
                if len(ctup) != 2:
                    raise StructureError("equality conclusions are binary")
            elif crel not in arity or len(ctup) != arity[crel]:
                raise StructureError(f"axiom conclusion misuses relation {crel!r}")
        axset = set(self.axioms)
        for rel, ar in self.signature.symbols:
            if reflexivity_formula(rel, ar) not in axset:
                raise StructureError(
                    f"missing reflexivity axiom for {rel!r}; "
                    "reflexive theories must declare it syntactically"
                )

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # the dataclass hash over the compared fields, computed once
        return hash((self.signature, self.axioms, self.name))


def _same_signature(*objs) -> RelSignature | None:
    """The one signature of the operands, None when there are none; operands
    that hold the same RelSignature object are accepted without comparing or
    hashing it."""
    if not objs:
        return None
    sig = objs[0].signature
    for o in objs[1:]:
        if o.signature is not sig and o.signature != sig:
            raise SignatureMismatch("operands use different relational signatures")
    return sig


def _image(f: Mapping, domain: Iterable, Y: FinStructure) -> list | None:
    """Y's carrier indices of f's values over domain, in order, or None when
    one is outside Y; a partial f raises StructureError, whatever its values."""
    idx = Y.index
    image = []
    for x in domain:
        if x not in f:
            raise StructureError(f"map is not total: {x!r} unassigned")
        image.append(idx.get(f[x]))
    return None if None in image else image


def _preserves(X: FinStructure, Y: FinStructure, rel: str, images: list) -> bool:
    """The one edge rule of every morphism and hom-family check: every rel-edge
    of X, its i-th element read through images[i] (as _image gives it), is an
    edge of Y.rows: a binary one by a successor bit, a unary one by the mask,
    a nullary one by the flag and a wider one in the set of index tuples."""
    xs, idx, held = X.edges_by_rel[rel], X.index, Y.rows[rel]
    if len(images) == 2:
        succ, (f, g) = held[0], images
        for a, b in xs:
            if not succ[f[idx[a]]] >> g[idx[b]] & 1:
                return False
    elif len(images) == 1:
        (f,) = images
        for (a,) in xs:
            if not held >> f[idx[a]] & 1:
                return False
    elif not images:
        return bool(held) or not xs
    else:
        for tup in xs:
            if tuple([h[idx[x]] for h, x in zip(images, tup)]) not in held:
                return False
    return True


def is_pi_morphism(f: Mapping, X: FinStructure, Y: FinStructure) -> bool:
    """True iff f maps the carrier of X into Y and every edge to an edge, by
    _preserves; a partial f, or one that leaves Y, raises StructureError."""
    _same_signature(X, Y)
    image = _image(f, X.carrier, Y)
    if image is None:
        x = next(x for x in X.carrier if f[x] not in Y.index)
        raise StructureError(f"map sends {x!r} outside the target carrier")
    for rel, ar in X.signature.symbols:
        if not _preserves(X, Y, rel, [image] * ar):
            return False
    return True


# -- satisfaction and the chase ------------------------------------------------

class _Join(NamedTuple):
    """One search of a formula (HornFormula.joins): pattern is the premises
    on the variables in search order, so that a match in X is a morphism
    pattern -> X (Chandra & Merlin, STOC 1977), and rest is pattern less the
    seed; seed and conclusion are a relation and its variables' positions."""

    pattern: FinStructure
    rest: FinStructure
    seed: tuple | None
    conclusion: tuple


def _fire(join: _Join, Y, alive: int, record, seed=None, tries=None) -> bool:
    """Search the matches of join's premises in Y (see _constrain), within
    the mask alive, for the instances at which the conclusion fails; with
    seed, trie levels over the seed's relation (_levels, or () when it is
    nullary), the seed reads only the edges they hold.  The conclusion's last
    variable is not enumerated: its domain, less the values at which the
    conclusion holds, goes to record(rel, inst, mask), inst being the
    conclusion's values with None there (a nullary one gives mask 1).  A
    true result stops the search, which then returns True."""
    crel, cps = join.conclusion
    n = len(join.pattern.carrier)
    doms = [alive] * n
    fwd: list[list] = [[] for _ in range(n)]
    deep: dict = {}
    if not _constrain(join.pattern if seed is None else join.rest, Y, 0, 0, doms, fwd, deep, tries):
        return False
    if seed:
        _bind(seed, join.seed[1], doms, fwd, deep)
    held = Y.rows.get(crel)  # None for an equality
    last = n - 1
    if not cps:
        return not held and _search(Y.carrier, doms, fwd, [()] * n, deep=deep) > 0 and record(crel, (), 1)
    if len(cps) == 1:
        doms[last] &= ~held
    elif len(cps) == 2 and held is not None:
        if cps[0] == last:
            doms[last] &= ~held[2]
        else:
            fwd[cps[0]].append((last, [alive & ~r for r in held[0]]))

    def final(image, mask):
        if held is None:
            mask &= ~(1 << image[cps[0]])
        elif len(cps) > 2:
            for v in _bits(mask):
                if tuple([v if p == last else image[p] for p in cps]) in held:
                    mask ^= 1 << v
        return mask and record(crel, tuple([None if p == last else image[p] for p in cps]), mask)

    return bool(_search(Y.carrier, doms, fwd, [()] * n, deep=deep, final=final))


def satisfies_formula(X: FinStructure, phi: HornFormula) -> bool:
    """True iff every valuation making the premises edges of X also makes the
    conclusion hold (with equality interpreted as the diagonal): one search
    of phi's first join (_fire), stopped at the first failing instance."""
    arity = X.signature.arity
    for rel, tup in phi.premises:
        if rel not in arity or len(tup) != arity[rel]:
            raise SignatureMismatch(f"formula premise misuses relation {rel!r}")
    crel, ctup = phi.conclusion
    if crel not in _EQ_SPELLINGS and (crel not in arity or len(ctup) != arity[crel]):
        raise SignatureMismatch(f"formula conclusion misuses relation {crel!r}")
    m = len(X.carrier)
    Y = SimpleNamespace(rows=X.rows, carrier=range(m))
    return not phi.joins or not _fire(phi.joins[0], Y, (1 << m) - 1, lambda *_: True)


def is_model(X: FinStructure, T: HornTheory) -> bool:
    _same_signature(X, T)
    return all(satisfies_formula(X, ax) for ax in T.axioms)


class ChaseResult(NamedTuple):
    model: FinStructure
    unit: dict


def chase(X: FinStructure, T: HornTheory) -> ChaseResult:
    """Free T-model on X: saturate edges under relational conclusions and
    merge elements under equality conclusions, to a joint fixpoint.  The
    unit maps each original element to its representative; merged classes
    keep the element earliest in carrier order.  See _chase."""
    _same_signature(X, T)
    return _chase(X, T.signature, T.axioms)


def _absorb(state: list, b: int, r: int) -> tuple:
    """Remove element b from a binary relation [succ, pred, loops] in place
    and return the successors and the predecessors, as masks, that r gains
    from it, b's loop becoming r's (for _put at (r, None) and (None, r))."""
    succ, pred, loops = state
    B, R = 1 << b, 1 << r
    out, inn = succ[b], pred[b]
    succ[b] = pred[b] = 0
    for j in _bits(out):
        pred[j] &= ~B
    for i in _bits(inn):
        succ[i] &= ~B
    state[2] = loops & ~B
    if out & B:
        out, inn = out ^ B | R, inn ^ B | R
    return out & ~succ[r], inn & ~pred[r]


def _chase(X: FinStructure, signature: RelSignature, axioms: tuple) -> ChaseResult:
    """The chase of X, whose edges are over signature, under axioms that
    need not include reflexivity axioms; the model is over signature.

    Semi-naive on the search kernel, after Bancilhon & Ramakrishnan, "An
    Amateur's Introduction to Recursive Query Processing Strategies"
    (SIGMOD 1986), over rows of X's carrier indices (FinStructure.rows)
    updated in place.  A first round fires the premise-free axioms and a
    second each other axiom's first join, over all the rows; a later round
    fires, per axiom, the join of each premise whose relation gained edges
    in the round before, that premise reading only those.  The edges a
    round gains, its delta, are held as rows too, so a seed premise reads
    its trie levels straight from them (_levels).  The failing conclusion
    instances (_fire) are the new edges, each instance's mask added to the
    rows and the delta at once (_put), or the merges; a merge keeps the
    element earlier in carrier order, which gains the other's rows and
    columns (_absorb) by the same _put, so that its gains join the delta."""
    arity = signature.arity
    original = X.carrier
    values = range(len(original))
    rows = _rows(signature, X.index, X.edges)
    full = SimpleNamespace(rows=rows, carrier=values)
    parent = list(values)
    alive = (1 << len(original)) - 1
    found: dict = {}  # per failing conclusion instance: the mask of its last variable

    def record(rel, inst, mask):
        found[rel, inst] = found.get((rel, inst), 0) | mask

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    stage = 0  # the round: 0, 1 or, from then on, 2
    while True:
        tries: dict = {}  # of the rows' wider relations, for _constrain
        seeds: dict = {}  # of the delta, per seed premise
        for ax in axioms:
            for join in ax.joins if stage == 2 else ax.joins[:1]:
                if stage < 2 and (join.seed is None) == (stage == 0):
                    _fire(join, full, alive, record, None, tries)
                elif stage == 2 and join.seed and join.seed[0] in delta:
                    if join.seed not in seeds:
                        seeds[join.seed] = join.seed[1] and _levels(delta[join.seed[0]], join.seed[1], values)
                    _fire(join, full, alive, record, seeds[join.seed], tries)
        delta = _rows(signature, values, ())  # the edges gained in this round
        merged = 0  # the elements merged into others in this round
        for (rel, inst), mask in found.items():
            if rel in _EQ_SPELLINGS:
                for v in _bits(mask):
                    a, b = find(inst[0]), find(v)
                    if a != b:
                        parent[max(a, b)] = min(a, b)
                        merged |= 1 << max(a, b)
            else:
                _put(rows, delta, rel, inst, mask)
        found.clear()
        alive ^= merged
        for b in _bits(merged):
            r = find(b)
            for rel, st in rows.items():
                if arity[rel] == 2:
                    out, inn = _absorb(st, b, r)
                    _put(rows, delta, rel, (r, None), out)
                    _put(rows, delta, rel, (None, r), inn)
                elif arity[rel] == 1 and st >> b & 1:
                    rows[rel] = st ^ 1 << b
                    _put(rows, delta, rel, (None,), 1 << r)
        for rel, st in rows.items():
            if merged and arity[rel] > 2:
                rows[rel] = {tuple([find(x) for x in t]) for t in st}
                delta[rel] |= rows[rel] - st
        delta = {rel: d for rel, d in delta.items() if (any(d[0]) if arity[rel] == 2 else d)}
        if stage and not delta:
            break
        stage = min(stage + 1, 2)
    edges = []
    for rel, st in rows.items():
        if arity[rel] == 2:
            edges += [(rel, (original[i], original[j])) for i, row in enumerate(st[0]) if row for j in _bits(row)]
        elif arity[rel] == 1:
            edges += [(rel, (original[i],)) for i in _bits(st)]
        else:
            edges += [(rel, tuple([original[i] for i in t])) for t in (st if arity[rel] else [()] if st else [])]
    model = FinStructure(signature, tuple([original[i] for i in _bits(alive)]), frozenset(edges))
    return ChaseResult(model, {x: original[find(i)] for i, x in enumerate(original)})


# -- products and exponentials -------------------------------------------------

def product(family: Iterable[FinStructure], signature: RelSignature | None = None) -> FinStructure:
    """Componentwise product; the empty family yields the indiscrete singleton."""
    family = list(family)
    if family:
        sig = _same_signature(*family)
        if signature is not None and signature != sig:
            raise SignatureMismatch("explicit signature disagrees with the family")
    elif signature is None:
        raise SignatureMismatch("empty product needs an explicit signature")
    else:
        sig = signature
    carrier = tuple(itertools.product(*(X.carrier for X in family)))
    edges: set = set()
    for rel, ar in sig.symbols:
        for combo in itertools.product(*(X.edges_by_rel[rel] for X in family)):
            edges.add((rel, tuple(tuple(t[i] for t in combo) for i in range(ar))))
    return FinStructure(sig, carrier, frozenset(edges))


def terminal(signature: RelSignature) -> FinStructure:
    return product([], signature)


def projection(P: FinStructure, i: int) -> dict:
    return {p: p[i] for p in P.carrier}


def pairing(fs: list[Mapping], Z: FinStructure) -> dict:
    return {z: tuple(f[z] for f in fs) for z in Z.carrier}


def relabel(X: FinStructure, mapping: Mapping) -> FinStructure:
    """Rename carrier elements along an injective mapping."""
    carrier = tuple(mapping[x] for x in X.carrier)
    if len(set(carrier)) != len(carrier):
        raise StructureError("relabelling must be injective")
    edges = frozenset((rel, tuple(mapping[x] for x in tup)) for rel, tup in X.edges)
    return FinStructure(X.signature, carrier, edges)


# -- search --------------------------------------------------------------------

def _search(values, doms: list, fwd: list, checks: list, out: list | None = None,
            deep: dict | None = None, final=None) -> int:
    """Forward-checking search over variables 0..n-1, after Mackworth,
    "Consistency in Networks of Relations" (AIJ 1977).

    The candidates of variable k are the set bits of doms[k], indices into
    values.  Variables are assigned in order and bits lowest first, so the
    solutions come out lexicographically.  Assigning k to bit v ANDs rows[v]
    into the domain of each later variable j, for every (j, rows) in fwd[k],
    and the trie levels in deep[k] after them (see _deepen), and backtracks
    when a domain becomes empty.  Each test in checks[k] is called on the
    partial image (the list of assigned values) once k is assigned.  Returns
    the number of solutions and appends each, as a tuple of values, to out
    when given.  With final, the last variable is not enumerated: final is
    called on the partial image and its narrowed domain instead, and a true
    result counts as the one solution and stops the search."""
    n = len(doms)
    if not all(doms):
        return 0
    if n == 0:
        if out is not None:
            out.append(())
        return 1
    image = [None] * n
    last = n - 1
    stop = last if final else n
    total = 0

    def rec(k: int, doms: list) -> bool:
        nonlocal total
        d = doms[k]
        if k == stop:
            if final(image, d):
                total = 1
                return True
            return False
        tests, links = checks[k], fwd[k]
        levels = deep.get(k) if deep else None
        while d:
            low = d & -d
            d ^= low
            v = low.bit_length() - 1
            image[k] = values[v]
            if tests and not all(t(image) for t in tests):
                continue
            if k == last:
                total += 1
                if out is not None:
                    out.append(tuple(image))
                continue
            nd = doms[:] if links or levels else doms
            for j, rows in links:
                m = nd[j] & rows[v]
                if not m:
                    break
                nd[j] = m
            else:
                if levels and not _deepen(levels, nd, image):
                    continue
                if rec(k + 1, nd):
                    return True
        return False

    rec(0, doms)
    return total


def _deepen(levels: list, doms: list, image: list) -> bool:
    """Narrow the domain of j by table[the values of ps], for each (j,
    table, ps) in levels; False when one becomes empty."""
    for j, table, ps in levels:
        doms[j] &= table.get(tuple([image[p] for p in ps]), 0)
        if not doms[j]:
            return False
    return True


def _bits(m: int):
    """The set bits of m, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _trie(tuples, ps: tuple, vals, off: int = 0) -> list:
    """The trie of an atom with the search variables ps at its positions,
    from its relation's edges as index tuples into vals (vals[i] is bit
    off + i), after Veldhuizen, "Leapfrog Triejoin" (ICDT 2014).  For its
    distinct variables u_1 < ... < u_k, level 1 is the mask of u_1, level 2
    the mask of u_2 per bit of u_1, and level j the mask of u_j per tuple of
    values of u_1 ... u_{j-1}.  A repeated variable is an equality test.
    Built only for relations of arity 3 or more (see _levels)."""
    us = sorted(set(ps))
    at = [ps.index(u) for u in us]
    same = [(p, ps.index(u)) for p, u in enumerate(ps) if ps.index(u) != p]
    levels = [0, [0] * (off + len(vals))] + [{} for _ in us[2:]]
    for t in tuples:
        if same and any(t[p] != t[q] for p, q in same):
            continue
        key = [t[p] for p in at]
        levels[0] |= 1 << off + key[0]
        if len(us) > 1:
            levels[1][off + key[0]] |= 1 << off + key[1]
        for j in range(2, len(us)):
            pre = tuple([vals[x] for x in key[:j]])
            levels[j][pre] = levels[j].get(pre, 0) | 1 << off + key[j]
    return levels


def _levels(state, ps: tuple, vals, off: int = 0) -> list:
    """The trie levels (see _trie) of an atom with the search variables ps
    at its positions, over its relation held as FinStructure.rows holds it:
    a unary relation's mask; a binary one's loop mask when ps repeats its
    variable, else its successor rows (its predecessor rows when ps[0] is
    the later variable) under the mask of the non-empty ones, which is the
    union of the rows the other way.  Nothing is built but a wider
    relation's trie, whose bits start at off; rows are read at offset 0."""
    if len(ps) == 1:
        return [state]
    if len(ps) > 2:
        return _trie(state, ps, vals, off)
    succ, pred, loops = state
    if ps[0] == ps[1]:
        return [loops]
    rows, cols = (succ, pred) if ps[0] < ps[1] else (pred, succ)
    first = 0
    for c in cols:
        first |= c
    return [first, rows]


def _bind(levels: list, ps: tuple, doms: list, fwd: list, deep: dict) -> None:
    """Add the trie of an atom over the variables ps (see _trie) to the
    domains, links and deeper levels of a _search."""
    us = sorted(set(ps))
    doms[us[0]] &= levels[0]
    if len(us) > 1:
        fwd[us[0]].append((us[1], levels[1]))
    for j in range(2, len(us)):
        deep.setdefault(us[j - 1], []).append((us[j], levels[j], tuple(us[:j])))


def _product_view(Xs: list):
    """The product of the non-empty list of structures Xs as _constrain
    reads it, without building it: the one structure itself, or its
    signature, edges_by_rel and index, where an element stands for itself by
    its index, its mixed-radix number with the last factor's digit fastest,
    which is its position in the carrier of product(Xs)."""
    if len(Xs) == 1:
        return Xs[0]
    *rest, X = Xs
    out = {}
    for rel, xs in X.edges_by_rel.items():
        idx, radix = X.index, len(X.carrier)
        xs = [tuple([idx[x] for x in t]) for t in xs]
        for F in reversed(rest):
            idx = F.index
            xs = [tuple([idx[x] * radix + b for x, b in zip(t, u)]) for t in F.edges_by_rel[rel] for u in xs]
            radix *= len(F.carrier)
        out[rel] = xs
    size = math.prod([len(F.carrier) for F in Xs])
    return SimpleNamespace(signature=X.signature, edges_by_rel=out, index=range(size))


def _constrain(X: FinStructure, Y, base: int, off: int,
               doms: list, fwd: list, deep: dict, tries: dict | None = None) -> bool:
    """Add to a _search the constraints of a morphism X -> Y, X a structure
    or a _product_view, with the i-th element of X as variable base + i and
    the j-th element of Y as bit off + j; Y is read only through its rows
    and carrier.  A self-loop or a unary edge narrows a domain once, every
    other binary edge links its earlier element to its later one, and a
    wider edge narrows each of its elements in turn by the trie of Y's
    relation (_levels), built once per shape of edge and kept in tries when
    given.  False when a nullary edge of X is missing from Y.  X's
    relations must be Y's; the signatures are not compared."""
    idx = X.index
    tries = {} if tries is None else tries
    rows = Y.rows
    for rel, ar in X.signature.symbols:
        xs = X.edges_by_rel[rel]
        if not xs:
            continue
        if ar == 0:
            if not rows[rel]:
                return False
        elif ar == 1:
            m = rows[rel] << off
            for (a,) in xs:
                doms[base + idx[a]] &= m
        elif ar == 2:
            succ, pred, loops = rows[rel]
            if off:
                succ = [0] * off + [r << off for r in succ]
                pred = [0] * off + [r << off for r in pred]
                loops <<= off
            for a, b in xs:
                i, j = base + idx[a], base + idx[b]
                if i == j:
                    doms[i] &= loops
                elif i < j:
                    fwd[i].append((j, succ))
                else:
                    fwd[j].append((i, pred))
        else:
            for tup in xs:
                ps = tuple([base + idx[x] for x in tup])
                shape = (rel, tuple([sorted(ps).index(p) for p in ps]))
                if shape not in tries:
                    tries[shape] = _levels(rows[rel], ps, Y.carrier, off)
                _bind(tries[shape], ps, doms, fwd, deep)
    return True


def _sortwise_search(Xs: list, Ys: list, funcs, out: list | None = None,
                     tests=(), budget=None) -> int:
    """The one search entry for hom-sets (Hom(X, Y) is [[X]], [Y]): _search
    over the families of morphisms Xs[s] -> Ys[s], one per sort, where each
    Xs[s] is a non-empty list of structures that stands for their product,
    which is not built (see _product_view).  The variables are the elements
    of the product Xs[0] in carrier order, then those of Xs[1], and so on;
    the values are the carriers of the Ys in one list, each sort at its own
    bit offset.  The blocks are read in one pass, each one's signature
    checked as it is read.  Solutions come out as flat image tuples, in
    lexicographic order, as _map_edges reads them.  The empty family has
    the one empty solution.

    Each (k, test) in tests is called on the partial image once variable k
    is assigned, ahead of the tests that the morphism and functional
    constraints place at k.  A budget, when given, is charged one unit per
    variable assignment, ahead of them all.

    Each (fn, entries) in funcs is a functional constraint: for every (args,
    r) in entries, the image of variable r equals fn of the tuple of images
    of the variables args.  A nullary entry narrows r's domain to one bit; a
    unary one links its argument to r by a row of fn (a reverse row when r
    comes first), or narrows r to the fixed points of fn when the argument
    is r itself; a wider one is a test at its last variable."""
    doms: list = []
    fwd: list = []
    values: list = []
    deep: dict = {}
    seg: list = []  # per variable: its sort's bit offset and target
    ok = True
    for X, Y in zip(Xs, Ys):
        _same_signature(Ys[0], Y, *X)
        P = _product_view(X)
        base, off = len(doms), len(values)
        doms += [((1 << len(Y.carrier)) - 1) << off] * len(P.index)
        fwd += [[] for _ in P.index]
        values += Y.carrier
        ok = ok and _constrain(P, Y, base, off, doms, fwd, deep)
        if funcs:
            seg += [(off, Y)] * len(P.index)
    if not ok:
        return 0
    if not (tests or funcs or budget is not None):
        return _search(values, doms, fwd, [()] * len(doms), out, deep)
    checks: list[list] = [[] for _ in doms]
    if budget is not None:
        def charge(image) -> bool:
            budget.charge()
            return True

        for c in checks:
            c.append(charge)
    for k, test in tests:
        checks[k].append(test)
    for fn, entries in funcs:
        imgs: dict = {}  # by argument and result bit offsets: fn's image index per argument
        for args, r in entries:
            out_off, Yr = seg[r]
            if len(args) == 1:
                (a,) = args
                in_off, Ya = seg[a]
                img = imgs.get((in_off, out_off))
                if img is None:
                    img = imgs[in_off, out_off] = [Yr.index[fn((y,))] for y in Ya.carrier]
                if a == r:
                    doms[r] &= sum(1 << (in_off + i) for i, j in enumerate(img) if i == j)
                elif a < r:
                    fwd[a].append((r, [0] * in_off + [1 << (out_off + j) for j in img]))
                else:
                    rev = [0] * (out_off + len(Yr.carrier))
                    for i, j in enumerate(img):
                        rev[out_off + j] |= 1 << (in_off + i)
                    fwd[r].append((a, rev))
            elif args:
                checks[max(max(args), r)].append(
                    lambda image, args=args, r=r, fn=fn: image[r] == fn(tuple([image[i] for i in args]))
                )
            else:
                doms[r] &= 1 << (out_off + Yr.index[fn(())])
    return _search(values, doms, fwd, checks, out, deep)


def enumerate_morphisms(X: FinStructure, Y: FinStructure, budget: Budget | int | None = None) -> list[dict]:
    """All morphisms X -> Y, lexicographic over carrier order, by the one
    hom-set search; a budget, when given, is charged per assignment."""
    images: list = []
    _sortwise_search([[X]], [Y], (), images, budget=budget if budget is None else ensure_budget(budget))
    xs = X.carrier
    return [dict(zip(xs, image)) for image in images]


def count_morphisms(X: FinStructure, Y: FinStructure) -> int:
    """|Hom(X, Y)|, counted by the search of enumerate_morphisms without
    building the maps."""
    return _sortwise_search([[X]], [Y], ())


def _map_edges(Xs: list, Ys: list, maps: list, ids: list) -> list:
    """The one edge rule of [X, Y] and of every hom structure: the edges of
    the structure on ids whose element ids[p] is the sortwise morphism
    maps[p], a flat image tuple over the carriers of Xs into Ys.  (rel,
    (ids[p_1], ..., ids[p_ar])) is an edge iff, at every sort s, each
    rel-edge (a_1, ..., a_ar) of Xs[s] goes to the rel-edge (p_1(a_1), ...,
    p_ar(a_ar)) of Ys[s].  A unary edge always holds between morphisms.  For
    binary R a set of maps is a bit mask, and the row of p ANDs, over the
    R-edges (a, b), the maps whose value at b is an R-successor of p's at a;
    any other R tests each tuple of maps by _preserves.  Edges come out per
    relation in lexicographic order of the maps."""
    n = len(maps)
    cuts = list(itertools.accumulate([0] + [len(X.carrier) for X in Xs]))
    # per sort: source, target and each map's image as the target's indices
    sorts = [(X, Y, [[Y.index[y] for y in f[i:j]] for f in maps]) for X, Y, i, j in zip(Xs, Ys, cuts, cuts[1:])]
    edges: list = []
    for rel, ar in Xs[0].signature.symbols:
        if ar == 1:
            edges += [(rel, (g,)) for g in ids]
        elif ar == 2:
            row = [(1 << n) - 1] * n
            for X, Y, images in sorts:
                succ, idx = Y.rows[rel][0], X.index
                after: dict = {}  # per b: per y, the maps whose value at b is in succ[y]
                for a, b in X.edges_by_rel[rel]:
                    i, j = idx[a], idx[b]
                    if j not in after:
                        eq = [0] * len(succ)  # per y, the maps with value y at b; disjoint
                        for p, f in enumerate(images):
                            eq[f[j]] |= 1 << p
                        after[j] = [sum([eq[y] for y in _bits(s)]) for s in succ]
                    aj = after[j]
                    for p, f in enumerate(images):
                        row[p] &= aj[f[i]]
            edges += [(rel, (ids[p], ids[q])) for p in range(n) for q in _bits(row[p])]
        else:
            edges += [
                (rel, tuple([ids[p] for p in t]))
                for t in itertools.product(range(n), repeat=ar)
                if all(_preserves(X, Y, rel, [images[p] for p in t]) for X, Y, images in sorts)
            ]
    return edges


@lru_cache(maxsize=4096)
def exponential(X: FinStructure, Y: FinStructure, T: HornTheory) -> FinStructure:
    """The certified exponential [X, Y] of two T-models, built once per
    (X, Y, T) and cached: carrier is the hom-set, found by the one hom-set
    search (_sortwise_search), as image tuples in enumeration order; (rel,
    fs) is an edge iff fs maps every rel-edge of X to a rel-edge of Y
    componentwise: the one edge rule of every structure of maps, built by
    _map_edges as the one-sort case.

    By this edge rule g : Z -> [X, Y] preserves edges iff its transpose
    does, so curry and uncurry check only that side, and certification is
    the model check on [X, Y]; its failure alone raises NotClosed.
    """
    sig = _same_signature(X, Y, T)
    if not is_model(X, T) or not is_model(Y, T):
        raise StructureError("exponential arguments must be models of the theory")
    carrier: list = []
    _sortwise_search([[X]], [Y], (), carrier)
    E = FinStructure(sig, tuple(carrier), frozenset(_map_edges([X], [Y], carrier, carrier)))
    if not is_model(E, T):
        raise NotClosed(
            "candidate exponential is not a model of the theory; "
            "the theory is not cartesian closed under edge preservation"
        )
    return E


def evaluation_table(E: FinStructure, X: FinStructure) -> dict:
    """eval : [X,Y] x X -> Y as a table on the product carrier."""
    return {(f, x): f[X.index[x]] for f in E.carrier for x in X.carrier}


def curry(f: Mapping, Z: FinStructure, X: FinStructure, Y: FinStructure, T: HornTheory) -> dict:
    """Transpose a morphism f : Z x X -> Y to g : Z -> [X, Y], where Z is a
    T-model.  An f that is not a morphism raises StructureError.  Only g is
    checked: its rows are in Hom(X, Y) by Z's reflexive diagonal edges, and
    it is a morphism into [X, Y] iff f is one."""
    _same_signature(Z, X, Y)
    if _image(f, itertools.product(Z.carrier, X.carrier), Y) is None:
        zx = next(zx for zx in itertools.product(Z.carrier, X.carrier) if f[zx] not in Y.index)
        raise StructureError(f"map sends {zx!r} outside the target carrier")
    E = exponential(X, Y, T)
    g = {z: tuple(f[(z, x)] for x in X.carrier) for z in Z.carrier}
    if any(v not in E.index for v in g.values()) or not is_pi_morphism(g, Z, E):
        raise StructureError("curry: f is not a morphism Z*X -> Y")
    return g


def uncurry(g: Mapping, Z: FinStructure, X: FinStructure, Y: FinStructure, T: HornTheory) -> dict:
    """Inverse transpose: g : Z -> [X, Y] back to f : Z x X -> Y.  A g that
    is not a morphism raises StructureError; a morphism g gives a morphism f."""
    E = exponential(X, Y, T)
    if not is_pi_morphism(g, Z, E):
        raise StructureError("uncurry: g is not a morphism Z -> [X,Y]")
    idx = X.index
    return {(z, x): g[z][idx[x]] for z in Z.carrier for x in X.carrier}


# -- builtin theories ----------------------------------------------------------

LE = "<="


@dataclass(frozen=True)
class HeytingAlgebra:
    """A finite lattice given by tables, validated as a Heyting algebra
    (finite distributive lattice)."""

    elements: tuple[str, ...]
    meet: tuple[tuple[str, str, str], ...]
    join: tuple[tuple[str, str, str], ...]
    top: str

    def __post_init__(self):
        elems = self.elements
        if len(set(elems)) != len(elems) or not elems:
            raise StructureError("lattice elements must be distinct and nonempty")
        m = self.meet_table
        j = self.join_table
        for table, label in ((m, "meet"), (j, "join")):
            for a in elems:
                for b in elems:
                    if (a, b) not in table:
                        raise StructureError(f"{label} table is not total")
        for a in elems:
            for b in elems:
                if m[a, b] != m[b, a] or j[a, b] != j[b, a]:
                    raise StructureError("lattice tables must be commutative")
                if m[a, m[a, b]] != m[a, b] or j[a, j[a, b]] != j[a, b]:
                    raise StructureError("lattice tables fail absorption/idempotence")
                if m[a, j[a, b]] != a or j[a, m[a, b]] != a:
                    raise StructureError("lattice tables fail absorption")
                for c in elems:
                    if m[m[a, b], c] != m[a, m[b, c]] or j[j[a, b], c] != j[a, j[b, c]]:
                        raise StructureError("lattice tables fail associativity")
                    if m[a, j[b, c]] != j[m[a, b], m[a, c]]:
                        raise StructureError("lattice is not distributive (not Heyting)")
        if any(m[self.top, a] != a for a in elems):
            raise StructureError("declared top is not the greatest element")

    @cached_property
    def meet_table(self) -> dict:
        return {(a, b): c for a, b, c in self.meet}

    @cached_property
    def join_table(self) -> dict:
        return {(a, b): c for a, b, c in self.join}

    def leq(self, a: str, b: str) -> bool:
        return self.meet_table[a, b] == a

    def join_of(self, items: Iterable[str]) -> str:
        out = None
        for x in items:
            out = x if out is None else self.join_table[out, x]
        if out is None:  # empty join = bottom
            out = self.elements[0]
            for x in self.elements:
                if self.leq(x, out):
                    out = x
        return out

    def rel_name(self, q: str) -> str:
        return f"~{q}"


def heyting_chain(n: int) -> HeytingAlgebra:
    """The n-element chain q0 < q1 < ... as a Heyting algebra."""
    if n < 1:
        raise StructureError("a chain needs at least one element")
    elems = tuple(f"q{i}" for i in range(n))
    meet = tuple((elems[i], elems[j], elems[min(i, j)]) for i in range(n) for j in range(n))
    join = tuple((elems[i], elems[j], elems[max(i, j)]) for i in range(n) for j in range(n))
    return HeytingAlgebra(elems, meet, join, elems[-1])


# The most axioms a builtin theory may have: simp(10) has 118, qchain(42) 126.
MAX_BUILTIN_AXIOMS = 128


def _spec_size(name: str, prefix: str) -> int:
    try:
        return int(name[len(prefix):-1])
    except ValueError:
        raise StructureError(f"{prefix}n) needs an integer n") from None


def builtin_theory(name: str, q: HeytingAlgebra | None = None, n: int | None = None) -> HornTheory:
    """Builtin reflexive Horn theories: set, preord, pos, simp(n), qcat(Q).

    Accepts "simp(2)" / "qchain(3)" style names, or "qchain" with n; qcat
    over an explicit lattice needs the q argument.  simp(n) and qcat(Q) are
    given by generating axioms, from which every other closure law follows:

    - simp(n), the relations R1 ... Rn closed under reindexing along every
      map [k] -> [m]: the n reflexivities, the deletions of one coordinate,
      the adjacent transpositions and the duplication of the last
      coordinate, n² + 2n - 2 axioms.  A map factors through these steps
      with no arity above max(k, m) on the way.
    - qcat(Q), one binary relation ~a per a in Q, down-closed and closed
      under finite joins and composition: the reflexivities, ~bottom
      everywhere, ~a => ~b for each cover b < a, ~a, ~b => ~(a v b) for
      each incomparable pair, and the transitivity of each ~c; the meet
      law ~a(x, y), ~b(y, z) => ~(a ^ b)(x, z) follows from the downward
      axioms and the transitivity of ~(a ^ b).  3n axioms for qchain(n).

    A theory with more than MAX_BUILTIN_AXIOMS axioms raises StructureError;
    simp(n) and qchain(n) are refused on their closed-form count, before
    anything is built.
    """
    name = name.strip()
    if name.startswith("simp(") and name.endswith(")"):
        n = _spec_size(name, "simp(")
        name = "simp"
    if name.startswith("qchain(") and name.endswith(")"):
        n = _spec_size(name, "qchain(")
        name = "qchain"
    if name == "qchain":
        if n is None or n < 1:
            raise StructureError("qchain needs a size n >= 1")
        if 3 * n > MAX_BUILTIN_AXIOMS:  # before the chain is built
            raise StructureError(f"qchain({n}) would have more than {MAX_BUILTIN_AXIOMS} axioms")
        q = heyting_chain(n)
        name = "qcat"
    if name == "set":
        return HornTheory(RelSignature(), (), name="set")
    if name in ("preord", "pos"):
        sig = RelSignature(((LE, 2),))
        axioms = [
            reflexivity_formula(LE, 2),
            HornFormula(
                frozenset({(LE, ("v1", "v2")), (LE, ("v2", "v3"))}),
                (LE, ("v1", "v3")),
            ),
        ]
        if name == "pos":
            axioms.append(
                HornFormula(
                    frozenset({(LE, ("v1", "v2")), (LE, ("v2", "v1"))}),
                    (EQ, ("v1", "v2")),
                )
            )
        return HornTheory(sig, tuple(axioms), name=name)
    if name == "simp":
        if n is None or n < 1:
            raise StructureError("simp needs a maximum arity n >= 1")
        if n * n + 2 * n - 2 > MAX_BUILTIN_AXIOMS:
            raise StructureError(f"simp({n}) would have more than {MAX_BUILTIN_AXIOMS} axioms")
        sig = RelSignature(tuple((f"R{k}", k) for k in range(1, n + 1)))
        axioms = [reflexivity_formula(f"R{k}", k) for k in range(1, n + 1)]
        for m in range(1, n + 1):
            v = tuple(f"v{i}" for i in range(1, m + 1))
            steps = [(m - 1, v[:i] + v[i + 1:]) for i in range(m)] if m > 1 else []  # deletions
            steps += [(m, v[:i] + (v[i + 1], v[i]) + v[i + 2:]) for i in range(m - 1)]  # swaps
            steps += [(m + 1, v + v[-1:])] if m < n else []  # the last coordinate twice
            axioms += [HornFormula(frozenset({(f"R{m}", v)}), (f"R{k}", w)) for k, w in steps]
        return HornTheory(sig, tuple(axioms), name=f"simp({n})", simp_bound=n)
    if name == "qcat":
        if q is None:
            raise StructureError("qcat needs a Heyting algebra")
        elems = q.elements
        r = {e: q.rel_name(e) for e in elems}
        xy, yz, xz = ("v1", "v2"), ("v2", "v3"), ("v1", "v3")
        below = {a: [b for b in elems if b != a and q.leq(b, a)] for a in elems}
        axioms = [reflexivity_formula(r[e], 2) for e in elems]
        axioms.append(HornFormula(frozenset(), (r[q.join_of(())], xy)))
        axioms += [
            HornFormula(frozenset({(r[a], xy)}), (r[b], xy))
            for a in elems for b in below[a]
            if not any(q.leq(b, c) for c in below[a] if c != b)  # b is covered by a
        ]
        axioms += [
            HornFormula(frozenset({(r[a], xy), (r[b], xy)}), (r[q.join_table[a, b]], xy))
            for i, a in enumerate(elems) for b in elems[i + 1:]
            if not q.leq(a, b) and not q.leq(b, a)
        ]
        axioms += [HornFormula(frozenset({(r[c], xy), (r[c], yz)}), (r[c], xz)) for c in elems]
        if len(axioms) > MAX_BUILTIN_AXIOMS:
            raise StructureError(
                f"qcat over {len(elems)} elements has {len(axioms)} axioms, more than {MAX_BUILTIN_AXIOMS}"
            )
        sig = RelSignature(tuple((r[e], 2) for e in elems))
        return HornTheory(sig, tuple(axioms), name=f"qcat[{','.join(elems)}]", qcat_lattice=q)
    raise StructureError(f"unknown builtin theory {name!r}")


# -- rendering / JSON ----------------------------------------------------------

def render_id(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, tuple):
        return "(" + ",".join(render_id(c) for c in x) + ")"
    return str(x)


def structure_to_json(X: FinStructure) -> dict:
    idx = X.index
    edges = sorted(X.edges, key=lambda e: (e[0], tuple(idx[x] for x in e[1])))
    return {
        "carrier": [render_id(x) for x in X.carrier],
        "edges": [[rel, [render_id(x) for x in tup]] for rel, tup in edges],
    }
