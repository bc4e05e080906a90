"""Finite relational Horn theories and their model categories.

Provides finite relational structures, satisfaction of Horn formulas, the
chase computing free models, finite products, exponentials certified once
per argument triple, and deterministic morphism enumeration.  Everything
is a pure function over immutable values; carriers are ordered tuples and
all enumeration orders derive from carrier order.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
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
    def binary_rows(self) -> dict[str, list[int]]:
        """Adjacency rows as bit masks, for the binary relation symbols."""
        idx = self.index
        n = len(self.carrier)
        rows: dict[str, list[int]] = {}
        for rel, ar in self.signature.symbols:
            if ar != 2:
                continue
            r = [0] * n
            for a, b in self.edges_by_rel[rel]:
                r[idx[a]] |= 1 << idx[b]
            rows[rel] = r
        return rows

    @cached_property
    def by_pos(self) -> dict[str, tuple[dict, ...]]:
        """Per relation and position: the edge tuples by their element there."""
        return _EdgeIndex(self.signature, self.edges).by_pos

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


def _same_signature(*objs) -> RelSignature:
    sigs = {o.signature for o in objs}
    if len(sigs) != 1:
        raise SignatureMismatch("operands use different relational signatures")
    return next(iter(sigs))


def _check_total(f: Mapping, domain: Iterable, Y: FinStructure) -> None:
    ytargets = set(Y.carrier)
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
    conclusion hold (with equality interpreted as the diagonal)."""
    arity = X.signature.arity
    for rel, tup in phi.premises:
        if rel not in arity or len(tup) != arity[rel]:
            raise SignatureMismatch(f"formula premise misuses relation {rel!r}")
    crel, ctup = phi.conclusion
    if crel not in _EQ_SPELLINGS and (crel not in arity or len(ctup) != arity[crel]):
        raise SignatureMismatch(f"formula conclusion misuses relation {crel!r}")
    fast = _fast_formula(X, phi)
    if fast is not None:
        return fast
    plan = phi.plan
    emit = _consequences(plan, X.carrier, X.edges, set(), stop=True)
    env = [None] * plan.nslots
    return not (_join(X, plan.seeded[0], 0, env, emit) if plan.seeded else emit(env))


# Fast evaluation for the reflexivity and transitivity shapes of the builtin
# theories; every other formula goes through the compiled join below.

def _fast_formula(X: FinStructure, phi: HornFormula):
    rows = X.binary_rows
    n = len(X.carrier)
    crel, cvars = phi.conclusion
    prem = sorted(phi.premises)
    if not prem and crel not in _EQ_SPELLINGS and len(cvars) == 2 \
            and cvars[0] == cvars[1] and crel in rows:
        r = rows[crel]
        return all((r[i] >> i) & 1 for i in range(n))
    if len(prem) != 2 or crel not in rows \
            or any(len(e[1]) != 2 or e[0] not in rows for e in prem):
        return None
    (r1, (x1, y1)), (r2, (x2, y2)) = prem
    if len({x1, y1, x2, y2}) != 3:
        return None
    for ra, xa, ya, rb, xb, yb in ((r1, x1, y1, r2, x2, y2), (r2, x2, y2, r1, x1, y1)):
        if ya == xb and tuple(cvars) == (xa, yb):
            rar, rbr, goal = rows[ra], rows[rb], rows[crel]
            for i in range(n):
                m = rar[i]
                j = 0
                while m:
                    if m & 1 and rbr[j] & ~goal[i]:
                        return False
                    m >>= 1
                    j += 1
            return True
    return None


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
            # the seed, then fully bound premises, then lookups, then scans
            rel, tup = min(rest, key=lambda a: (
                a != seed, not bound.issuperset(a[1]), bound.isdisjoint(a[1])))
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


def _join(ix, steps: tuple, k: int, env: list, emit, cands=None) -> bool:
    """Extend the valuation env through steps[k:] over the edges of ix (a
    FinStructure or an _EdgeIndex), passing each full valuation to emit as it
    is found; True as soon as emit returns True.  cands, when given, are the
    candidate tuples of steps[k]: the seed edges of a chase round."""
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
            if emit(env) if last else _join(ix, steps, k + 1, env, emit):
                return True
    return False


def _consequences(plan: _Plan, carrier, edges, found: set, stop: bool):
    """The emit of a join: adds to found each instance of the conclusion under
    the valuation, over every choice of the conclusion-only variables, that
    does not hold in edges; with stop, returns True at the first."""
    crel, cslots, free = plan.rel, plan.conclusion, plan.free
    is_eq = crel in _EQ_SPELLINGS

    def emit(env):
        inst = tuple([env[s] for s in cslots])
        if inst[0] != inst[1] if is_eq else (crel, inst) not in edges:
            found.add((crel, inst))
            return stop

    def emit_free(env):
        for choice in itertools.product(carrier, repeat=len(free)):
            for s, x in zip(free, choice):
                env[s] = x
            if emit(env):
                return True

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
    original = X.carrier
    pos = {x: i for i, x in enumerate(original)}
    parent = {x: x for x in original}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    carrier = list(original)
    ix = _EdgeIndex(T.signature)
    delta = ix.add(X.edges)
    first = True
    while True:
        found: set = set()
        for ax in T.axioms:
            plan = ax.plan
            emit = _consequences(plan, carrier, ix.edges, found, stop=False)
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
            ix = _EdgeIndex(T.signature, (e for e in edges if all(find(x) == x for x in e[1])))
            delta = ix.add(
                (rel, tuple([find(x) for x in tup]))
                for rel, tup in itertools.chain(edges, found)
                if rel not in _EQ_SPELLINGS
            )
        elif found:
            delta = ix.add(found)
        else:
            break
    model = FinStructure(T.signature, tuple(carrier), frozenset(ix.edges))
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


def induced_substructure(X: FinStructure, keep: Iterable) -> FinStructure:
    kept = [x for x in X.carrier if x in set(keep)]
    kset = set(kept)
    edges = frozenset(e for e in X.edges if all(x in kset for x in e[1]))
    return FinStructure(X.signature, tuple(kept), edges)


def relabel(X: FinStructure, mapping: Mapping) -> FinStructure:
    """Rename carrier elements along an injective mapping."""
    carrier = tuple(mapping[x] for x in X.carrier)
    if len(set(carrier)) != len(carrier):
        raise StructureError("relabelling must be injective")
    edges = frozenset((rel, tuple(mapping[x] for x in tup)) for rel, tup in X.edges)
    return FinStructure(X.signature, carrier, edges)


def enumerate_morphisms(X: FinStructure, Y: FinStructure) -> list[dict]:
    """All morphisms X -> Y, lexicographic over carrier order."""
    _same_signature(X, Y)
    n = len(X.carrier)
    idx = X.index
    for rel, tup in X.edges:
        if not tup and (rel, ()) not in Y.edges:
            return []
    checks: list[list[tuple[str, tuple[int, ...]]]] = [[] for _ in range(n)]
    for rel in X.signature.names:
        for tup in X.edges_by_rel[rel]:
            if not tup:
                continue
            positions = tuple(idx[x] for x in tup)
            checks[max(positions)].append((rel, positions))
    yedges = Y.edges
    image: list = [None] * n
    out: list[dict] = []

    def rec(k: int):
        if k == n:
            out.append(dict(zip(X.carrier, image)))
            return
        for y in Y.carrier:
            image[k] = y
            if all((rel, tuple(image[i] for i in ps)) in yedges for rel, ps in checks[k]):
                rec(k + 1)
        image[k] = None

    rec(0)
    return out


def exp_edge_holds(X: FinStructure, Y: FinStructure, rel: str, fs: tuple) -> bool:
    """Edge test of the candidate exponential: fs are image tuples over the
    carrier order of X; the edge holds iff every rel-edge of X maps to a
    rel-edge of Y componentwise."""
    idx = X.index
    yedges = Y.edges
    for tup in X.edges_by_rel[rel]:
        if (rel, tuple(f[idx[x]] for f, x in zip(fs, tup))) not in yedges:
            return False
    return True


def as_image_tuple(f: Mapping, X: FinStructure) -> tuple:
    return tuple(f[x] for x in X.carrier)


@lru_cache(maxsize=4096)
def exponential(X: FinStructure, Y: FinStructure, T: HornTheory) -> FinStructure:
    """The certified exponential [X, Y] of two T-models, built once per
    (X, Y, T) and cached: carrier is the hom-set (image tuples in enumeration
    order), edges by the preservation condition (exp_edge_holds).

    The currying bijection against the product holds for this construction at
    the structure level by componentwise bookkeeping, so certification reduces
    to the model check on [X, Y]; failures raise NotClosed.
    """
    sig = _same_signature(X, Y, T)
    if not is_model(X, T) or not is_model(Y, T):
        raise StructureError("exponential arguments must be models of the theory")
    carrier = tuple(as_image_tuple(m, X) for m in enumerate_morphisms(X, Y))
    edges = frozenset(
        (rel, fs)
        for rel, ar in sig.symbols
        for fs in itertools.product(carrier, repeat=ar)
        if exp_edge_holds(X, Y, rel, fs)
    )
    E = FinStructure(sig, carrier, edges)
    if not is_model(E, T):
        raise NotClosed(
            "candidate exponential is not a model of the theory; "
            "the theory is not cartesian closed under edge preservation"
        )
    return E


def evaluation_table(E: FinStructure, X: FinStructure) -> dict:
    """eval : [X,Y] x X -> Y as a table on the product carrier."""
    return {(f, x): f[X.index[x]] for f in E.carrier for x in X.carrier}


def _is_pair_morphism(f: Mapping, Z: FinStructure, X: FinStructure, Y: FinStructure) -> bool:
    """is_pi_morphism(f, product([Z, X]), Y), tested against the componentwise
    product edges without building the product."""
    sig = _same_signature(Z, X, Y)
    _check_total(f, itertools.product(Z.carrier, X.carrier), Y)
    yedges = Y.edges
    return all(
        (rel, tuple(f[p] for p in zip(zt, xt))) in yedges
        for rel in sig.names
        for zt, xt in itertools.product(Z.edges_by_rel[rel], X.edges_by_rel[rel])
    )


def curry(f: Mapping, Z: FinStructure, X: FinStructure, Y: FinStructure, T: HornTheory) -> dict:
    """Transpose a morphism f : Z x X -> Y to g : Z -> [X, Y]."""
    if not _is_pair_morphism(f, Z, X, Y):
        raise StructureError("curry: f is not a morphism Z*X -> Y")
    E = exponential(X, Y, T)
    g = {z: tuple(f[(z, x)] for x in X.carrier) for z in Z.carrier}
    eset = set(E.carrier)
    if any(v not in eset for v in g.values()) or not is_pi_morphism(g, Z, E):
        raise NotClosed("curry: transpose fails to be a morphism into the exponential")
    return g


def uncurry(g: Mapping, Z: FinStructure, X: FinStructure, Y: FinStructure, T: HornTheory) -> dict:
    """Inverse transpose: g : Z -> [X, Y] back to f : Z x X -> Y."""
    E = exponential(X, Y, T)
    if not is_pi_morphism(g, Z, E):
        raise StructureError("uncurry: g is not a morphism Z -> [X,Y]")
    idx = X.index
    f = {(z, x): g[z][idx[x]] for z in Z.carrier for x in X.carrier}
    if not _is_pair_morphism(f, Z, X, Y):
        raise NotClosed("uncurry: transpose fails to be a morphism Z*X -> Y")
    return f


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


def builtin_theory(name: str, q: HeytingAlgebra | None = None, n: int | None = None) -> HornTheory:
    """Builtin reflexive Horn theories: set, preord, pos, simp(n), qcat(Q).

    Accepts "simp(2)" / "qchain(3)" style names; qcat over an explicit
    lattice needs the q argument.
    """
    name = name.strip()
    if name.startswith("simp(") and name.endswith(")"):
        n = int(name[5:-1])
        name = "simp"
    if name.startswith("qchain(") and name.endswith(")"):
        q = heyting_chain(int(name[7:-1]))
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
                ax = HornFormula(prem, (target, ("v1", "v2")))
                if ax not in axioms:
                    axioms.append(ax)
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
