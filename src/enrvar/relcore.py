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
        """Bit masks over carrier indices.  A binary relation gives (succ,
        pred, loops): the successor and predecessor row of each element and
        the mask of elements with a self-loop; a unary one, its member mask."""
        idx = self.index
        n = len(self.carrier)
        rows: dict = {}
        for rel, ar in self.signature.symbols:
            if ar == 1:
                rows[rel] = sum(1 << idx[a] for (a,) in self.edges_by_rel[rel])
            elif ar == 2:
                succ, pred, loops = [0] * n, [0] * n, 0
                for a, b in self.edges_by_rel[rel]:
                    i, j = idx[a], idx[b]
                    succ[i] |= 1 << j
                    pred[j] |= 1 << i
                    if i == j:
                        loops |= 1 << i
                rows[rel] = (succ, pred, loops)
        return rows

    def size(self) -> int:
        return len(self.carrier)


@dataclass(frozen=True)
class HornFormula:
    """premises => conclusion, over variable names.

    The conclusion relation is a signature symbol or the reserved equality
    symbol (binary).  Free conclusion variables are universally quantified.
    """

    premises: frozenset
    conclusion: Edge

    def variables(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for _, tup in sorted(self.premises):
            for v in tup:
                seen.setdefault(v, None)
        for v in self.conclusion[1]:
            seen.setdefault(v, None)
        return tuple(seen)

    @cached_property
    def plan(self) -> _Plan:
        """The premises compiled into one join plan per premise."""
        return _compile(self)

    @cached_property
    def pattern(self) -> FinStructure:
        """The premises as a structure on the variables, in plan's slot order,
        over just the premise relations: a premise match in X is a morphism
        pattern -> X (Chandra & Merlin, STOC 1977)."""
        sig = RelSignature(tuple(sorted({(rel, len(tup)) for rel, tup in self.premises})))
        return FinStructure(sig, self.variables(), self.premises)


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


def _check_total(f: Mapping, domain: Iterable, Y: FinStructure) -> None:
    ytargets = Y.index
    for x in domain:
        if x not in f:
            raise StructureError(f"map is not total: {x!r} unassigned")
        if f[x] not in ytargets:
            raise StructureError(f"map sends {x!r} outside the target carrier")


def is_pi_morphism(f: Mapping, X: FinStructure, Y: FinStructure) -> bool:
    """True iff f maps the carrier of X into Y and every edge to an edge."""
    _same_signature(X, Y)
    _check_total(f, X.carrier, Y)
    yedges = Y.edges
    for rel, tup in X.edges:
        if (rel, tuple(f[x] for x in tup)) not in yedges:
            return False
    return True


# -- satisfaction ------------------------------------------------------------

def satisfies_formula(X: FinStructure, phi: HornFormula) -> bool:
    """True iff every valuation making the premises edges of X also makes the
    conclusion hold (with equality interpreted as the diagonal).  One _search,
    stopped at its first solution, looks for a counterexample: a morphism
    phi.pattern -> X that also meets the negated conclusion, as complemented
    rows or masks or, for a wider relation, a test at its last variable."""
    arity = X.signature.arity
    for rel, tup in phi.premises:
        if rel not in arity or len(tup) != arity[rel]:
            raise SignatureMismatch(f"formula premise misuses relation {rel!r}")
    crel, ctup = phi.conclusion
    if crel not in _EQ_SPELLINGS and (crel not in arity or len(ctup) != arity[crel]):
        raise SignatureMismatch(f"formula conclusion misuses relation {crel!r}")
    pattern = phi.pattern
    n, m = len(pattern.carrier), len(X.carrier)
    full = (1 << m) - 1
    doms = [full] * n
    fwd: list[list] = [[] for _ in range(n)]
    checks: list[list] = [[] for _ in range(n)]
    if not _constrain(pattern, X, 0, 0, doms, fwd, checks):
        return True
    ps = [pattern.index[v] for v in ctup]
    if len(ps) == 2:
        if crel in _EQ_SPELLINGS:
            succ = pred = [1 << v for v in range(m)]
            loops = full
        else:
            succ, pred, loops = X.rows[crel]
        i, j = ps
        if i == j:
            doms[i] &= full ^ loops
        elif i < j:
            fwd[i].append((j, [full ^ r for r in succ]))
        else:
            fwd[j].append((i, [full ^ r for r in pred]))
    elif len(ps) == 1:
        doms[ps[0]] &= full ^ X.rows[crel]
    elif not ps:
        if (crel, ()) in X.edges:
            return True
    else:
        checks[max(ps)].append(
            lambda image: (crel, tuple([image[i] for i in ps])) not in X.edges
        )
    return not _search(X.carrier, doms, fwd, checks, first=True)


# -- compiled join -------------------------------------------------------------

class _Plan(NamedTuple):
    """A formula compiled for _join, variables as slots of a valuation list:
    per premise in sorted order, the steps of a join seeded from it.  A step
    (rel, key, binds, tests, check) either tests the edge on the slots in
    check, or takes the rel tuples with the bound (position, slot) key (all
    of them if key is None), binds the pairs in binds and checks the pairs in
    tests.  free are the slots of the conclusion-only variables."""

    nslots: int
    seeded: tuple
    rel: str
    conclusion: tuple
    free: tuple


def _compile(phi: HornFormula) -> _Plan:
    slot = {v: i for i, v in enumerate(phi.variables())}
    premises = sorted(phi.premises)
    seeded = []
    for seed in premises:
        bound: set = set()
        rest, steps = list(premises), []
        while rest:
            # the seed, then fully bound premises, then lookups (most bound
            # positions first), then scans
            rel, tup = min(rest, key=lambda a: (
                a != seed, not bound.issuperset(a[1]), -sum(v in bound for v in a[1])))
            rest.remove((rel, tup))
            if bound.issuperset(tup):
                steps.append((rel, None, (), (), tuple(slot[v] for v in tup)))
                continue
            before = set(bound)
            key, binds, tests = None, [], []
            for p, v in enumerate(tup):
                if key is None and v in before:
                    key = (p, slot[v])
                elif v in bound:
                    tests.append((p, slot[v]))
                else:
                    bound.add(v)
                    binds.append((p, slot[v]))
            steps.append((rel, key, tuple(binds), tuple(tests), None))
        seeded.append(tuple(steps))
    crel, cvars = phi.conclusion
    pvars = {v for _, tup in premises for v in tup}
    free = tuple(slot[v] for v in dict.fromkeys(cvars) if v not in pvars)
    return _Plan(len(slot), tuple(seeded), crel, tuple(slot[v] for v in cvars), free)


def _join(ix: _EdgeIndex, steps: tuple, k: int, env: list, emit, cands=None) -> None:
    """Extend the valuation env through steps[k:] over the edges of ix,
    passing each full valuation to emit as it is found.  cands, when given,
    are the candidate tuples of steps[k]: the seed edges of a chase round."""
    rel, key, binds, tests, check = steps[k]
    if cands is None and check is not None:
        cands = ((),) if (rel, tuple([env[s] for s in check])) in ix.edges else ()
    elif cands is None:
        cands = ix.edges_by_rel[rel] if key is None else ix.by_pos[rel][key[0]].get(env[key[1]], ())
    last = k + 1 == len(steps)
    for tup in cands:
        for p, s in binds:
            env[s] = tup[p]
        for p, s in tests:
            if tup[p] != env[s]:
                break
        else:
            if last:
                emit(env)
            else:
                _join(ix, steps, k + 1, env, emit)


def _consequences(plan: _Plan, carrier, edges, found: set):
    """The emit of a join: adds to found each instance of the conclusion under
    the valuation, over every choice of the conclusion-only variables, that
    does not hold in edges."""
    crel, cslots, free = plan.rel, plan.conclusion, plan.free
    is_eq = crel in _EQ_SPELLINGS

    def emit(env):
        inst = tuple([env[s] for s in cslots])
        if inst[0] != inst[1] if is_eq else (crel, inst) not in edges:
            found.add((crel, inst))

    def emit_free(env):
        for choice in itertools.product(carrier, repeat=len(free)):
            for s, x in zip(free, choice):
                env[s] = x
            emit(env)

    return emit_free if free else emit


def is_model(X: FinStructure, T: HornTheory) -> bool:
    _same_signature(X, T)
    return all(satisfies_formula(X, ax) for ax in T.axioms)


# -- chase -------------------------------------------------------------------

class ChaseResult(NamedTuple):
    model: FinStructure
    unit: dict


class _EdgeIndex:
    """A growing edge set with the lookups _join reads, under the attribute
    names of FinStructure."""

    def __init__(self, signature: RelSignature, edges: Iterable = ()):
        self.edges: set = set()
        self.edges_by_rel: dict[str, list] = {n: [] for n in signature.names}
        self.by_pos = {n: tuple({} for _ in range(ar)) for n, ar in signature.symbols}
        self.add(edges)

    def add(self, edges: Iterable) -> dict[str, list]:
        """Add edges; return the ones not present before, by relation."""
        fresh: dict[str, list] = {}
        for e in edges:
            if e not in self.edges:
                self.edges.add(e)
                rel, tup = e
                self.edges_by_rel[rel].append(tup)
                for p, x in enumerate(tup):
                    self.by_pos[rel][p].setdefault(x, []).append(tup)
                fresh.setdefault(rel, []).append(tup)
        return fresh


def chase(X: FinStructure, T: HornTheory) -> ChaseResult:
    """Free T-model on X: saturate edges under relational conclusions and
    merge elements under equality conclusions, to a joint fixpoint.

    Semi-naive: each round seeds every axiom's compiled join only from the
    edges new since the previous round (all of X's in the first, which alone
    fires premise-free axioms), over one edge set indexed in place.  A merge
    renames edges to their representatives, and the renamed edges join the
    round's new ones.  The returned unit maps each original element to its
    representative; merged classes keep the element earliest in carrier order.
    """
    _same_signature(X, T)
    return _chase(X, T.signature, T.axioms)


def _chase(X: FinStructure, signature: RelSignature, axioms: tuple) -> ChaseResult:
    """The chase of X, whose edges are over signature, under axioms that
    need not include reflexivity axioms; the model is over signature."""
    original = X.carrier
    pos = {x: i for i, x in enumerate(original)}
    parent = {x: x for x in original}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    carrier = list(original)
    ix = _EdgeIndex(signature)
    delta = ix.add(X.edges)
    first = True
    while True:
        found: set = set()
        for ax in axioms:
            plan = ax.plan
            emit = _consequences(plan, carrier, ix.edges, found)
            env = [None] * plan.nslots
            if first and not plan.seeded:
                emit(env)
            # every valuation of the first round is new, and one seed finds it
            for steps in plan.seeded[:1] if first else plan.seeded:
                if steps[0][0] in delta:
                    _join(ix, steps, 0, env, emit, delta[steps[0][0]])
        first = False
        merges = [inst for rel, inst in found if rel in _EQ_SPELLINGS]
        if merges:
            for a, b in merges:
                ra, rb = sorted((find(a), find(b)), key=pos.__getitem__)
                parent[rb] = ra
            carrier = [x for x in carrier if find(x) == x]
            edges = ix.edges
            ix = _EdgeIndex(signature, (e for e in edges if all(find(x) == x for x in e[1])))
            delta = ix.add(
                (rel, tuple([find(x) for x in tup]))
                for rel, tup in itertools.chain(edges, found)
                if rel not in _EQ_SPELLINGS
            )
        elif found:
            delta = ix.add(found)
        else:
            break
    model = FinStructure(signature, tuple(carrier), frozenset(ix.edges))
    return ChaseResult(model, {x: find(x) for x in original})


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


def _product_on(family: list[FinStructure], signature: RelSignature, carrier: list) -> FinStructure:
    """The substructure of product(family, signature) on carrier, a list of
    its elements, without building the product: a tuple of elements is an
    edge iff its components are one in every factor.  For binary R a set of
    elements is a bit mask over carrier, and the row of p is the AND, over
    the factors, of the elements whose component is an R-successor of p's;
    any other R tests every tuple of elements."""
    n = len(carrier)
    comp = [[F.index[e[i]] for e in carrier] for i, F in enumerate(family)]
    at = []  # per factor: component index -> the elements with that component
    for cs in comp:
        masks: dict = {}
        for p, c in enumerate(cs):
            masks[c] = masks.get(c, 0) | 1 << p
        at.append(masks)
    edges: list = []
    for rel, ar in signature.symbols:
        if ar != 2:
            edges.extend(
                (rel, t)
                for t in itertools.product(carrier, repeat=ar)
                if all((rel, tuple([e[i] for e in t])) in F.edges for i, F in enumerate(family))
            )
            continue
        row = [(1 << n) - 1] * n
        for F, cs, masks in zip(family, comp, at):
            succ = F.rows[rel][0]
            # the masks are disjoint, so their sum is their union
            after = {c: sum(m for d, m in masks.items() if succ[c] >> d & 1) for c in masks}
            for p, c in enumerate(cs):
                row[p] &= after[c]
        edges.extend(
            (rel, (x, y))
            for p, x in enumerate(carrier)
            for q, y in enumerate(carrier)
            if row[p] >> q & 1
        )
    return FinStructure(signature, tuple(carrier), frozenset(edges))


def relabel(X: FinStructure, mapping: Mapping) -> FinStructure:
    """Rename carrier elements along an injective mapping."""
    carrier = tuple(mapping[x] for x in X.carrier)
    if len(set(carrier)) != len(carrier):
        raise StructureError("relabelling must be injective")
    edges = frozenset((rel, tuple(mapping[x] for x in tup)) for rel, tup in X.edges)
    return FinStructure(X.signature, carrier, edges)


# -- search --------------------------------------------------------------------

def _search(values, doms: list, fwd: list, checks: list, out: list | None = None,
            first: bool = False) -> int:
    """Forward-checking search over variables 0..n-1, after Mackworth,
    "Consistency in Networks of Relations" (AIJ 1977).

    The candidates of variable k are the set bits of doms[k], indices into
    values.  Variables are assigned in order and bits lowest first, so the
    solutions come out lexicographically.  Assigning k to bit v ANDs rows[v]
    into the domain of each later variable j, for every (j, rows) in fwd[k],
    and backtracks when one becomes empty.  Each test in checks[k] is called
    on the partial image (the list of assigned values) once k is assigned.
    Returns the number of solutions and appends each, as a tuple of values,
    to out when given; with first, stops at the first solution, so the
    number is 0 or 1."""
    n = len(doms)
    if not all(doms):
        return 0
    if n == 0:
        if out is not None:
            out.append(())
        return 1
    image = [None] * n
    last = n - 1
    total = 0

    def rec(k: int, doms: list) -> bool:
        nonlocal total
        d = doms[k]
        tests, links = checks[k], fwd[k]
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
                if first:
                    return True
                continue
            nd = doms[:] if links else doms
            for j, rows in links:
                m = nd[j] & rows[v]
                if not m:
                    break
                nd[j] = m
            else:
                if rec(k + 1, nd):
                    return True
        return False

    rec(0, doms)
    return total


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


def _constrain(X: FinStructure, Y: FinStructure, base: int, off: int,
               doms: list, fwd: list, checks: list) -> bool:
    """Add to a _search the constraints of a morphism X -> Y, X a structure
    or a _product_view, with the i-th element of X as variable base + i and
    the j-th element of Y as bit off + j: a self-loop or a unary edge
    narrows a domain once, every other binary edge links its earlier element
    to its later one, and a nullary or wider edge is a membership test at
    its last element.  False when a nullary edge of X is missing from Y.
    X's relations must be Y's; the signatures are not compared."""
    idx = X.index
    rows = Y.rows
    for rel, ar in X.signature.symbols:
        xs = X.edges_by_rel[rel]
        if not xs:
            continue
        if ar == 0:
            if (rel, ()) not in Y.edges:
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
                ps = tuple(base + idx[x] for x in tup)
                checks[max(ps)].append(
                    lambda image, rel=rel, ps=ps: (rel, tuple([image[i] for i in ps])) in Y.edges
                )
    return True


def _sortwise_search(Xs: list, Ys: list, funcs, out: list | None = None,
                     tests=(), budget=None) -> int:
    """_search over the families of morphisms Xs[s] -> Ys[s], one per sort,
    where each Xs[s] is a non-empty list of structures that stands for their
    product, which is not built (see _product_view).  The variables are the
    elements of the product Xs[0] in carrier order, then those of Xs[1], and
    so on; the values are the carriers of the Ys in one list, each sort at
    its own bit offset.  Solutions come out as flat image tuples, in
    lexicographic order.  The empty family has the one empty solution.

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
    _same_signature(*itertools.chain(*Xs), *Ys)
    products = [_product_view(X) for X in Xs]
    n = sum([len(P.index) for P in products])
    fwd: list[list] = [[] for _ in range(n)]
    checks: list[list] = [[] for _ in range(n)]
    if budget is not None:
        def charge(image) -> bool:
            budget.charge()
            return True

        for c in checks:
            c.append(charge)
    for k, test in tests:
        checks[k].append(test)
    doms: list = []
    values: list = []
    seg: list = []  # per variable: its sort's bit offset and target
    for P, Y in zip(products, Ys):
        base, off = len(doms), len(values)
        doms += [((1 << len(Y.carrier)) - 1) << off] * len(P.index)
        values += Y.carrier
        if not _constrain(P, Y, base, off, doms, fwd, checks):
            return 0
        if funcs:
            seg += [(off, Y)] * len(P.index)
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
    return _search(values, doms, fwd, checks, out)


def _morphism_search(X: FinStructure, Y: FinStructure, out: list | None = None) -> int:
    """The morphisms X -> Y: the one-sort case of _sortwise_search, without
    its bookkeeping of offsets and functional constraints."""
    _same_signature(X, Y)
    n = len(X.carrier)
    doms = [(1 << len(Y.carrier)) - 1] * n
    fwd: list[list] = [[] for _ in range(n)]
    checks: list[list] = [[] for _ in range(n)]
    if not _constrain(X, Y, 0, 0, doms, fwd, checks):
        return 0
    return _search(Y.carrier, doms, fwd, checks, out)


def enumerate_morphisms(X: FinStructure, Y: FinStructure) -> list[dict]:
    """All morphisms X -> Y, lexicographic over carrier order."""
    images: list = []
    _morphism_search(X, Y, images)
    xs = X.carrier
    return [dict(zip(xs, image)) for image in images]


def count_morphisms(X: FinStructure, Y: FinStructure) -> int:
    """|Hom(X, Y)|, counted by the search of enumerate_morphisms without
    building the maps."""
    return _morphism_search(X, Y)


def exp_edge_holds(X: FinStructure, Y: FinStructure, rel: str, fs: tuple) -> bool:
    """Edge test of the exponential for one family: fs are image tuples over
    the carrier order of X; the edge holds iff every rel-edge of X maps to a
    rel-edge of Y componentwise."""
    idx = X.index
    yedges = Y.edges
    for tup in X.edges_by_rel[rel]:
        if (rel, tuple(f[idx[x]] for f, x in zip(fs, tup))) not in yedges:
            return False
    return True


def as_image_tuple(f: Mapping, X: FinStructure) -> tuple:
    return tuple(f[x] for x in X.carrier)


def _exponential_edges(X: FinStructure, Y: FinStructure, homs: list) -> list:
    """The edges of [X, Y] over the hom-set homs (image tuples), in
    lexicographic order per relation, by _search over homs.  A set of homs
    is a bit mask; eq[b][y] holds the g with g[b] = y.  For binary R the row
    of f is the AND, over the R-edges (a, b) of X, of the g with g[b] in
    succ_Y(f[a]); a wider R tests every R-edge of X at the last position."""
    yidx = Y.index
    hidx = [[yidx[y] for y in f] for f in homs]
    full = (1 << len(homs)) - 1
    m = len(Y.carrier)
    eq = [[0] * m for _ in X.carrier]
    for p, f in enumerate(hidx):
        for b, y in enumerate(f):
            eq[b][y] |= 1 << p
    edges: list = []
    for rel, ar in X.signature.symbols:
        xs = [tuple(X.index[x] for x in t) for t in X.edges_by_rel[rel]]
        fams: list = []
        if ar == 0:
            if not xs or (rel, ()) in Y.edges:
                fams.append(())
        elif ar == 1:
            # a morphism maps every unary edge of X to one of Y
            fams.extend((f,) for f in homs)
        elif ar == 2:
            succ = Y.rows[rel][0]
            row = [full] * len(homs)
            for a, b in xs:
                # the g with g[b] in succ[y], per y; the eq[b][y] are disjoint
                after = [sum(eq[b][y] for y in range(m) if s >> y & 1) for s in succ]
                for p, f in enumerate(hidx):
                    row[p] &= after[f[a]]
            _search(homs, [full, full], [[(1, row)], []], [[], []], fams)
        else:
            tests = [
                lambda image, t=t, rel=rel: (rel, tuple([f[i] for f, i in zip(image, t)])) in Y.edges
                for t in xs
            ]
            _search(homs, [full] * ar, [[] for _ in range(ar)], [[]] * (ar - 1) + [tests], fams)
        edges.extend((rel, fs) for fs in fams)
    return edges


@lru_cache(maxsize=4096)
def exponential(X: FinStructure, Y: FinStructure, T: HornTheory) -> FinStructure:
    """The certified exponential [X, Y] of two T-models, built once per
    (X, Y, T) and cached: carrier is the hom-set (image tuples in enumeration
    order); (rel, fs) is an edge iff fs maps every rel-edge of X to a rel-edge
    of Y componentwise.

    By this edge rule g : Z -> [X, Y] preserves edges iff its transpose
    does, so curry and uncurry check only that side, and certification is
    the model check on [X, Y]; its failure alone raises NotClosed.
    """
    sig = _same_signature(X, Y, T)
    if not is_model(X, T) or not is_model(Y, T):
        raise StructureError("exponential arguments must be models of the theory")
    carrier: list = []
    _morphism_search(X, Y, carrier)
    E = FinStructure(sig, tuple(carrier), frozenset(_exponential_edges(X, Y, carrier)))
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
    _check_total(f, itertools.product(Z.carrier, X.carrier), Y)
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


# The most axioms a builtin theory may have; simp(4) has 498, simp(5) 5702.
MAX_BUILTIN_AXIOMS = 4096


def _check_size(label: str, counts: Iterable[int]) -> None:
    """Raise StructureError once the running sum of counts, the axioms of
    the builtin theory label, passes MAX_BUILTIN_AXIOMS; it stops there, so
    an absurd size costs at most that many steps."""
    total = 0
    for c in counts:
        total += c
        if total > MAX_BUILTIN_AXIOMS:
            raise StructureError(f"{label} would have more than {MAX_BUILTIN_AXIOMS} axioms")


def _qcat_axiom_counts(n: int) -> list[int]:
    """The axioms of qcat over n elements before deduplication: reflexivity,
    at most n(n-1)/2 downward closures, transitivity and one sup per subset
    (2**n, capped at an exponent that already passes any sane bound)."""
    return [n, n * (n - 1) // 2, n * n, 2 ** min(n, 64)]


def _spec_size(name: str, prefix: str) -> int:
    try:
        return int(name[len(prefix):-1])
    except ValueError:
        raise StructureError(f"{prefix}n) needs an integer n") from None


def builtin_theory(name: str, q: HeytingAlgebra | None = None, n: int | None = None) -> HornTheory:
    """Builtin reflexive Horn theories: set, preord, pos, simp(n), qcat(Q).

    Accepts "simp(2)" / "qchain(3)" style names, or "qchain" with n; qcat
    over an explicit lattice needs the q argument.  A theory that would have
    more than MAX_BUILTIN_AXIOMS axioms raises StructureError before any
    axiom is built.
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
        _check_size(f"qchain({n})", _qcat_axiom_counts(n))  # before the chain is built
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
        # n reflexivity axioms, then one per m <= n and map h : k -> m, k <= n
        _check_size(f"simp({n})", itertools.chain(
            [n], (m ** k for m in range(1, n + 1) for k in range(1, n + 1))
        ))
        sig = RelSignature(tuple((f"R{k}", k) for k in range(1, n + 1)))
        axioms = [reflexivity_formula(f"R{k}", k) for k in range(1, n + 1)]
        for m in range(1, n + 1):
            pvars = tuple(f"v{i}" for i in range(1, m + 1))
            for k in range(1, n + 1):
                for h in itertools.product(range(m), repeat=k):
                    axioms.append(
                        HornFormula(
                            frozenset({(f"R{m}", pvars)}),
                            (f"R{k}", tuple(pvars[i] for i in h)),
                        )
                    )
        return HornTheory(sig, tuple(axioms), name=f"simp({n})", simp_bound=n)
    if name == "qcat":
        if q is None:
            raise StructureError("qcat needs a Heyting algebra")
        elems = q.elements
        _check_size(f"qcat over {len(elems)} elements", _qcat_axiom_counts(len(elems)))
        sig = RelSignature(tuple((q.rel_name(e), 2) for e in elems))
        axioms = [reflexivity_formula(q.rel_name(e), 2) for e in elems]
        # downward closure
        for a in elems:
            for b in elems:
                if a != b and q.leq(b, a):
                    axioms.append(
                        HornFormula(
                            frozenset({(q.rel_name(a), ("v1", "v2"))}),
                            (q.rel_name(b), ("v1", "v2")),
                        )
                    )
        # finite sup closure, one axiom per subset of Q (including empty)
        for r in range(len(elems) + 1):
            for subset in itertools.combinations(elems, r):
                target = q.rel_name(q.join_of(subset))
                prem = frozenset({(q.rel_name(e), ("v1", "v2")) for e in subset})
                axioms.append(HornFormula(prem, (target, ("v1", "v2"))))
        # reflexivity of the top relation (already present) and transitivity
        for a in elems:
            for b in elems:
                axioms.append(
                    HornFormula(
                        frozenset({(q.rel_name(a), ("v1", "v2")), (q.rel_name(b), ("v2", "v3"))}),
                        (q.rel_name(q.meet_table[a, b]), ("v1", "v3")),
                    )
                )
        seen: dict[HornFormula, None] = {}
        for ax in axioms:
            seen.setdefault(ax, None)
        return HornTheory(sig, tuple(seen), name=f"qcat[{','.join(elems)}]", qcat_lattice=q)
    raise StructureError(f"unknown builtin theory {name!r}")


# -- rendering / JSON ----------------------------------------------------------

def render_id(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, tuple):
        return "(" + ",".join(render_id(c) for c in x) + ")"
    return str(x)


def elem_key(x):
    if isinstance(x, str):
        return (0, x)
    if isinstance(x, tuple):
        return (1, len(x), tuple(elem_key(c) for c in x))
    return (2, render_id(x))


def structure_to_json(X: FinStructure) -> dict:
    idx = X.index
    edges = sorted(X.edges, key=lambda e: (e[0], tuple(idx[x] for x in e[1])))
    return {
        "carrier": [render_id(x) for x in X.carrier],
        "edges": [[rel, [render_id(x) for x in tup]] for rel, tup in edges],
    }
