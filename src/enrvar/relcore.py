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

    def has_edge(self, rel: str, tup: tuple) -> bool:
        return (rel, tup) in self.edges

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

def _ordered_premises(X: FinStructure, premises) -> list:
    # cheapest edge lists first; deterministic tie break
    by = X.edges_by_rel
    return sorted(premises, key=lambda e: (len(by.get(e[0], ())), e[0], e[1]))


def _premise_valuations(X: FinStructure, premises) -> list[dict]:
    """All variable valuations making every premise an edge of X."""
    vals = [dict()]
    for rel, vars_ in premises:
        tuples = X.edges_by_rel.get(rel, ())
        new: list[dict] = []
        for env in vals:
            for tup in tuples:
                add: dict = {}
                ok = True
                for v, x in zip(vars_, tup):
                    bound = env.get(v, add.get(v, _MISSING))
                    if bound is _MISSING:
                        add[v] = x
                    elif bound != x:
                        ok = False
                        break
                if ok:
                    new.append({**env, **add})
        vals = new
        if not vals:
            break
    return vals


_MISSING = object()


def _conclusion_holds(X: FinStructure, conclusion: Edge, env: Mapping) -> bool:
    crel, cvars = conclusion
    inst = tuple(env[v] for v in cvars)
    if crel in _EQ_SPELLINGS:
        return inst[0] == inst[1]
    return (crel, inst) in X.edges


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
    crel, cvars = phi.conclusion
    for env in _premise_valuations(X, _ordered_premises(X, phi.premises)):
        free: dict[str, None] = {}
        for v in cvars:
            if v not in env:
                free.setdefault(v, None)
        if not free:
            if not _conclusion_holds(X, phi.conclusion, env):
                return False
            continue
        names = tuple(free)
        for choice in itertools.product(X.carrier, repeat=len(names)):
            full = {**env, **dict(zip(names, choice))}
            if not _conclusion_holds(X, phi.conclusion, full):
                return False
    return True


# Fast evaluation for the binary-relation axiom shapes of the builtin
# theories (reflexivity, containment, symmetry, transitivity, antisymmetry).
# Anything else falls back to the generic join above.

def _fast_formula(X: FinStructure, phi: HornFormula):
    rows = X.binary_rows
    n = len(X.carrier)
    crel, cvars = phi.conclusion
    prem = sorted(phi.premises)
    if not prem and crel not in _EQ_SPELLINGS and len(cvars) == 2 \
            and cvars[0] == cvars[1] and crel in rows:
        r = rows[crel]
        return all((r[i] >> i) & 1 for i in range(n))
    if any(len(e[1]) != 2 or e[0] not in rows for e in prem):
        return None
    pvars: list[str] = []
    for _, tup in prem:
        for v in tup:
            if v not in pvars:
                pvars.append(v)
    if len(pvars) == 2:
        a, b = pvars
        mat = [(1 << n) - 1] * n  # valuation matrix over (a, b) pairs
        for rel, (x, y) in prem:
            r = rows[rel]
            if (x, y) == (a, b):
                mat = [mat[i] & r[i] for i in range(n)]
            elif (x, y) == (b, a):
                t = _transpose(r, n)
                mat = [mat[i] & t[i] for i in range(n)]
            elif x == y == a:
                mat = [mat[i] if (r[i] >> i) & 1 else 0 for i in range(n)]
            elif x == y == b:
                diag = 0
                for j in range(n):
                    if (rows[rel][j] >> j) & 1:
                        diag |= 1 << j
                mat = [mat[i] & diag for i in range(n)]
            else:
                return None
        if crel in _EQ_SPELLINGS and tuple(cvars) in ((a, b), (b, a)):
            return all(mat[i] & ~(1 << i) == 0 for i in range(n))
        if crel in rows and len(cvars) == 2:
            if tuple(cvars) == (a, b):
                goal = rows[crel]
            elif tuple(cvars) == (b, a):
                goal = _transpose(rows[crel], n)
            else:
                return None
            return all(mat[i] & ~goal[i] == 0 for i in range(n))
        return None
    if len(pvars) == 3 and len(prem) == 2:
        (r1, (x1, y1)), (r2, (x2, y2)) = prem
        chains = [(r1, x1, y1, r2, x2, y2), (r2, x2, y2, r1, x1, y1)]
        for ra, xa, ya, rb, xb, yb in chains:
            if ya == xb and xa != ya and yb != xb and xa != yb \
                    and crel in rows and tuple(cvars) == (xa, yb):
                rar = rows[ra]
                rbr = rows[rb]
                goal = rows[crel]
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


def _transpose(rows: list[int], n: int) -> list[int]:
    out = [0] * n
    for i in range(n):
        m = rows[i]
        j = 0
        while m:
            if m & 1:
                out[j] |= 1 << i
            m >>= 1
            j += 1
    return out


def is_model(X: FinStructure, T: HornTheory) -> bool:
    _same_signature(X, T)
    return all(satisfies_formula(X, ax) for ax in T.axioms)


# -- chase -------------------------------------------------------------------

class ChaseResult(NamedTuple):
    model: FinStructure
    unit: dict


def chase(X: FinStructure, T: HornTheory) -> ChaseResult:
    """Free T-model on X: saturate edges under relational conclusions and
    merge elements under equality conclusions, to a joint fixpoint.

    The returned unit maps each original element to its representative; merged
    classes keep the element earliest in carrier order.
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
    edges = set(X.edges)
    while True:
        current = FinStructure(T.signature, tuple(carrier), frozenset(edges))
        new_edges: set = set()
        merges: list[tuple] = []
        for ax in T.axioms:
            crel, cvars = ax.conclusion
            for env in _premise_valuations(current, _ordered_premises(current, ax.premises)):
                free: list[str] = []
                for v in cvars:
                    if v not in env and v not in free:
                        free.append(v)
                for choice in itertools.product(carrier, repeat=len(free)):
                    full = {**env, **dict(zip(free, choice))}
                    inst = tuple(full[v] for v in cvars)
                    if crel in _EQ_SPELLINGS:
                        if inst[0] != inst[1]:
                            merges.append(inst)
                    elif (crel, inst) not in edges:
                        new_edges.add((crel, inst))
        if merges:
            for a, b in merges:
                ra, rb = find(a), find(b)
                if ra == rb:
                    continue
                if pos[ra] > pos[rb]:
                    ra, rb = rb, ra
                parent[rb] = ra
            carrier = [x for x in carrier if find(x) == x]
            edges = {(rel, tuple(find(x) for x in tup)) for rel, tup in edges}
            edges |= {(rel, tuple(find(x) for x in tup)) for rel, tup in new_edges}
            continue
        if new_edges:
            edges |= new_edges
            continue
        break
    model = FinStructure(T.signature, tuple(carrier), frozenset(edges))
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


def apply_exp(felem: tuple, x, X: FinStructure):
    return felem[X.index[x]]


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
