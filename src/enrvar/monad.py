"""Finite truncations of arity-indexed relative monads: law checking, the
induced equational theory, algebras, free algebras, and the round trip from
theories back to truncations.

A truncation tabulates, for each arity J in a finite set, the value object TJ,
the unit tuple into it, and the Kleisli extension table of every map J -> TK;
nothing is derived, so hand-entered data can be audited directly.

The free algebras that give a theory its truncation are bounded term models,
computed by the relational chase.  graph_presentation flattens the theory:
one graph relation per operation symbol, functional by a congruence axiom,
each equation and relation atom as a join of subterm atoms, and the base
axioms copied per sort.  free_algebra grows the terms one layer at a time up
to a depth bound (and refuses a layer past the size bound), and chases the
presentation to its fixpoint after each layer.  A result is saturated when
every operation on its classes has a value, so that its tables are total.
"""
from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

from .budget import Budget, ensure_budget
from .algebra import (
    Algebra,
    EnrichedSignature,
    EnrichedTheory,
    OpDecl,
    Theory,
    _enumerate_algebras,
    _hom_structure,
    _var_index,
    classical_symbol,
    classical_symbols,
    eval_term,
    hom_family,
    hom_object,
    theory_parts,
)
from .isoenum import model_families
from .relcore import (
    _EQ_SPELLINGS,
    EQ,
    FinStructure,
    HornFormula,
    HornTheory,
    RelSignature,
    StructureError,
    _chase,
    _image,
    _preserves,
    _sortwise_search,
    chase,
    exponential,
    is_model,
    relabel,
    render_id,
)
from .syntax import (
    App,
    Arity,
    Equation,
    SortSet,
    Term,
    Var,
    canonical_context,
)
from .translate import EquivalenceReport, _compare

KRep = tuple  # per-sort tuples of target elements, in sort-set order


@dataclass
class RelMonadData:
    base: HornTheory
    sorts: SortSet
    arities: tuple[Arity, ...]
    obj: dict[Arity, dict[str, FinStructure]]
    unit: dict[Arity, KRep]
    ext: dict[tuple[Arity, Arity, KRep], dict[str, dict]]
    name: str | None = None

    def count(self, J: Arity, s: str) -> int:
        return dict(J.counts).get(s, 0)

    @cached_property
    def arity_objects(self) -> dict[Arity, dict[str, FinStructure]]:
        """arity_object of every arity, chased once per truncation."""
        return {J: arity_object(self.base, self.sorts, J) for J in self.arities}


def arity_object(base: HornTheory, sorts: SortSet, J: Arity) -> dict[str, FinStructure]:
    """The arity as a sort-indexed object: per sort, the free base model on
    that many bare elements (integer ids 1..n)."""
    counts = dict(J.counts)
    out = {}
    for s in sorts.sorts:
        n = counts.get(s, 0)
        bare = FinStructure(base.signature, tuple(range(1, n + 1)), frozenset())
        out[s] = chase(bare, base).model
    return out


def all_maps_into(J: Arity, target: Mapping[str, FinStructure], sorts: SortSet) -> list[KRep]:
    """All tuples J -> target, i.e. one target element per input position,
    grouped per sort in sort-set order."""
    counts = dict(J.counts)
    per_sort = [
        list(itertools.product(target[s].carrier, repeat=counts.get(s, 0)))
        for s in sorts.sorts
    ]
    return [tuple(combo) for combo in itertools.product(*per_sort)]


def flatten_map(k: KRep) -> tuple:
    return tuple(x for block in k for x in block)


def compose_ext_with_map(M: RelMonadData, ext_table: Mapping[str, Mapping], k: KRep) -> KRep:
    """Postcompose the tuple k with a Kleisli extension table, sortwise."""
    return tuple(
        tuple(ext_table[s][x] for x in block)
        for s, block in zip(M.sorts.sorts, k)
    )


@dataclass
class MonadReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_relative_monad(M: RelMonadData) -> MonadReport:
    """Pointwise law check: unit extension is the identity, extensions restrict
    to their tuples along the unit, extension is associative, and the map
    k -> k* is admissible between the hom families."""
    v: list[str] = []
    sorts = M.sorts.sorts
    for J in M.arities:
        for s in sorts:
            X = M.obj[J][s]
            if X.signature != M.base.signature:
                v.append(f"T{J.label()} at {s}: wrong signature")
            if not is_model(X, M.base):
                v.append(f"T{J.label()} at {s}: not a base model")
        eta = M.unit.get(J)
        if eta is None:
            v.append(f"missing unit for {J.label()}")
            continue
        for s, block in zip(sorts, eta):
            if len(block) != M.count(J, s):
                v.append(f"unit for {J.label()} has wrong shape at {s}")
            elif any(x not in M.obj[J][s].index for x in block):
                v.append(f"unit for {J.label()} leaves T{J.label()} at {s}")
    for J, K in itertools.product(M.arities, repeat=2):
        for k in all_maps_into(J, M.obj[K], M.sorts):
            table = M.ext.get((J, K, k))
            if table is None:
                v.append(f"missing extension for a map {J.label()} -> T{K.label()}")
                continue
            for s in sorts:
                tj, tk = M.obj[J][s], M.obj[K][s]
                ts = table.get(s, {})
                if set(ts) != set(tj.carrier):
                    v.append(f"extension table not total at {s} for {J.label()}->{K.label()}")
                    continue
                image = _image(ts, tj.carrier, tk)
                if image is None:
                    v.append(f"extension of a map {J.label()}->{K.label()} leaves T{K.label()} at {s}")
                elif not all(_preserves(tj, tk, rel, [image] * ar) for rel, ar in tj.signature.symbols):
                    v.append(
                        f"extension of a map {J.label()}->{K.label()} is not a morphism at {s}"
                    )
    if v:
        return MonadReport(v)
    # unit laws
    for J in M.arities:
        eta = M.unit[J]
        table = M.ext[(J, J, eta)]
        for s in sorts:
            for x in M.obj[J][s].carrier:
                if table[s][x] != x:
                    v.append(f"unit extension is not the identity on T{J.label()} at {s}")
        for K in M.arities:
            etaK = M.unit[K]
            for k in all_maps_into(K, M.obj[J], M.sorts):
                table = M.ext[(K, J, k)]
                for s, block in zip(sorts, k):
                    for pos, x in enumerate(block):
                        if table[s][etaK[sorts.index(s)][pos]] != x:
                            v.append(
                                f"extension of a map {K.label()}->T{J.label()} "
                                f"does not restrict to it along the unit (witness {render_id(x)})"
                            )
    # associativity
    for J, K, L in itertools.product(M.arities, repeat=3):
        for k in all_maps_into(J, M.obj[K], M.sorts):
            kstar = M.ext[(J, K, k)]
            for l in all_maps_into(K, M.obj[L], M.sorts):
                lstar = M.ext[(K, L, l)]
                lk = compose_ext_with_map(M, lstar, k)
                lhs = M.ext[(J, L, lk)]
                for s in sorts:
                    for x in M.obj[J][s].carrier:
                        if lhs[s][x] != lstar[s][kstar[s][x]]:
                            v.append(
                                f"associativity fails for ({J.label()},{K.label()},{L.label()}) "
                                f"at {s}, element {render_id(x)}"
                            )
    # admissibility of ext
    for J, K in itertools.product(M.arities, repeat=2):
        jobj = M.arity_objects[J]
        ks = all_maps_into(J, M.obj[K], M.sorts)
        if not ks:
            continue
        dom = hom_family(jobj, M.obj[K], M.base, M.sorts)
        cod = hom_family(M.obj[J], M.obj[K], M.base, M.sorts)
        star = {
            k: tuple(tuple(M.ext[(J, K, k)][s][x] for x in M.obj[J][s].carrier) for s in sorts)
            for k in ks
        }
        image = _image(star, dom.carrier, cod)
        for rel, ar in M.base.signature.symbols:
            if not _preserves(dom, cod, rel, [image] * ar):
                v.append(f"k -> k* breaks a {rel} edge between maps {J.label()}->T{K.label()}")
    return MonadReport(v)


def _op_name(J: Arity, s: str) -> str:
    return f"op{J.label()}_{s}"


def theory_from_monad(M: RelMonadData) -> EnrichedTheory:
    """The induced equational theory: one operation per (arity, sort) with the
    value object as parameter; unit equations return variables, extension
    equations fold Kleisli composition into nested applications."""
    report = check_relative_monad(M)
    if not report.ok:
        raise StructureError("monad laws fail: " + "; ".join(report.violations[:3]))
    sorts = M.sorts
    ops = tuple(
        OpDecl(_op_name(J, s), J, s, M.obj[J][s])
        for J in M.arities
        for s in sorts.sorts
    )
    sig = EnrichedSignature(sorts, M.base, ops)
    bysym = {op.name: op for op in ops}
    equations: list[Equation] = []
    # unit equations
    for J in M.arities:
        ctx = canonical_context(J)
        argvars = tuple(Var(i) for i in range(len(ctx)))
        eta = M.unit[J]
        offset = 0
        for s, n in J.counts:
            sidx = sorts.position[s]
            for j in range(n):
                p = eta[sidx][j]
                op = bysym[_op_name(J, s)]
                equations.append(
                    Equation(
                        ctx,
                        App(classical_symbol(op, p), argvars),
                        Var(offset + j),
                        s,
                    )
                )
            offset += n
    # extension equations
    for J, K in itertools.product(M.arities, repeat=2):
        ctxK = canonical_context(K)
        argvarsK = tuple(Var(i) for i in range(len(ctxK)))
        for k in all_maps_into(J, M.obj[K], M.sorts):
            kstar = M.ext[(J, K, k)]
            inner = []
            for s, n in J.counts:
                sidx = sorts.position[s]
                opK = bysym[_op_name(K, s)]
                for j in range(n):
                    inner.append(App(classical_symbol(opK, k[sidx][j]), argvarsK))
            inner = tuple(inner)
            for s in sorts.sorts:
                opJ = bysym[_op_name(J, s)]
                opK = bysym[_op_name(K, s)]
                for p in M.obj[J][s].carrier:
                    equations.append(
                        Equation(
                            ctxK,
                            App(classical_symbol(opK, kstar[s][p]), argvarsK),
                            App(classical_symbol(opJ, p), inner),
                            s,
                        )
                    )
    # deterministic dedup
    seen: dict[Equation, None] = {}
    for eq in equations:
        seen.setdefault(eq, None)
    return EnrichedTheory(sig, tuple(seen), name=(M.name or "monad") + "_theory")


@dataclass
class TjAlgebra:
    """Carrier plus, per arity J, a structure map sending each tuple
    x : J -> A to a sortwise morphism TJ -> A (stored as image tuples)."""

    carrier: dict[str, FinStructure]
    structure: dict[Arity, dict[KRep, tuple]]

    def component(self, M: RelMonadData, J: Arity, s: str, p, x: KRep):
        sidx = M.sorts.position[s]
        return self.structure[J][x][sidx][M.obj[J][s].index[p]]


def is_tj_algebra(A: TjAlgebra, M: RelMonadData) -> bool:
    sorts = M.sorts.sorts
    for J in M.arities:
        xs = all_maps_into(J, A.carrier, M.sorts)
        sig = A.structure.get(J)
        if sig is None or set(sig) != set(xs):
            return False
        # unit law
        eta = M.unit[J]
        for x in xs:
            for s, n in J.counts:
                sidx = M.sorts.position[s]
                for j in range(n):
                    if A.component(M, J, s, eta[sidx][j], x) != x[sidx][j]:
                        return False
        # admissibility of the structure map
        jobj = M.arity_objects[J]
        dom = hom_family(jobj, A.carrier, M.base, M.sorts)
        cod = hom_family(M.obj[J], A.carrier, M.base, M.sorts)
        image = _image(sig, dom.carrier, cod)
        if image is None or not all(
            _preserves(dom, cod, rel, [image] * ar) for rel, ar in dom.signature.symbols
        ):
            return False
    # extension law
    for J, K in itertools.product(M.arities, repeat=2):
        for k in all_maps_into(J, M.obj[K], M.sorts):
            kstar = M.ext[(J, K, k)]
            for x in all_maps_into(K, A.carrier, M.sorts):
                xprime = tuple(
                    tuple(
                        A.component(M, K, s, k[M.sorts.position[s]][j], x)
                        for j in range(M.count(J, s))
                    )
                    for s in sorts
                )
                for s in sorts:
                    for p in M.obj[J][s].carrier:
                        lhs = A.component(M, K, s, kstar[s][p], x)
                        rhs = A.component(M, J, s, p, xprime)
                        if lhs != rhs:
                            return False
    return True


def enumerate_tj_algebras(
    M: RelMonadData,
    carrier: Mapping[str, FinStructure],
    budget: Budget | int | None = None,
) -> list[TjAlgebra]:
    """All algebras for the truncation on the fixed carrier, by one
    _sortwise_search over the cells (J, x, s, p) of the structure maps (after
    Zhang & Zhang, "SEM: a System for Enumerating Models", IJCAI 1995).

    The sort-s component of the structure map at arity J is one morphism
    [J, A] x TJ_s -> A_s, where [J, A] = hom_family(arity_object(J), A) has
    the slots x : J -> A as carrier, in all_maps_into order.  As the base is
    reflexive, that product's edges make every value a morphism TJ_s -> A_s
    and the structure map admissible.  One block per (J, s), in arity then
    sort order, has that product's elements (x, p) as cells, read from its
    factors.  The algebras come out in the lexicographic order of their
    cells read (J, x, s, p), values in carrier order: with several sorts
    the solutions are sorted once into it.

    The unit law narrows each cell (J, x, s, eta_J(j)) to the value x(j).
    An instance (J, K, k, x) of the extension law asks that the cell
    (K, x, s, k*(p)) equal (J, x', s, p) for all s and p, where x' is read
    off the cells of (K, x) at the points of k.  It is one test per slot y
    of J, guarded by x' = y, at the later of the last cell of (K, x) that
    it reads and the last cell of (J, y): it is decided as soon as it can
    be.  The tests that fall on the first of these share one lookup of x'.
    The budget is charged one unit per cell assignment."""
    bgt = ensure_budget(budget)
    sorts = M.sorts.sorts
    carrier = dict(carrier)

    Xs, Ys = [], []
    slots: dict[Arity, list] = {}  # per arity: the maps x : J -> A
    spans: dict[Arity, list] = {}  # per arity and slot: its cells per sort, as (start, stop)
    n = 0
    for J in M.arities:
        jobj = M.arity_objects[J]
        exps = [exponential(jobj[s], carrier[s], M.base) for s in sorts]
        slots[J] = list(itertools.product(*[E.carrier for E in exps]))
        spans[J] = [[] for _ in slots[J]]
        for s in sorts:
            m = len(M.obj[J][s].carrier)
            Xs.append([*exps, M.obj[J][s]])
            Ys.append(carrier[s])
            for i, cells in enumerate(spans[J]):
                cells.append((n + i * m, n + i * m + m))
            n += len(slots[J]) * m

    units: dict = {}  # per value: the unit cells that it fills
    for J in M.arities:
        eta = M.unit[J]
        for x, cells in zip(slots[J], spans[J]):
            for (start, _), s, ps, vs in zip(cells, sorts, eta, x):
                index = M.obj[J][s].index
                for p, v in zip(ps, vs):
                    units.setdefault(v, []).append(((), start + index[p]))
    funcs = [(lambda _, v=v: v, entries) for v, entries in units.items()]

    tests = []
    for J in M.arities:
        # per slot y of J: its values flat, its cells in (s, p) order and its
        # last cell, which grows with y
        ys = [tuple([v for block in y for v in block]) for y in slots[J]]
        ycells = [[c for a, b in cells for c in range(a, b)] for cells in spans[J]]
        ylast = [cs[-1] if cs else -1 for cs in ycells]
        table = dict(zip(ys, zip(ycells, ylast)))
        for K in M.arities:
            tk = [M.obj[K][s].index for s in sorts]
            for k in all_maps_into(J, M.obj[K], M.sorts):
                kstar = M.ext[(J, K, k)]
                for cells in spans[K]:
                    starts = [a for a, _ in cells]
                    reads = [c + tk[i][q] for i, (c, block) in enumerate(zip(starts, k)) for q in block]
                    kcells = [
                        c + tk[i][kstar[s][p]]
                        for i, (c, s) in enumerate(zip(starts, sorts))
                        for p in M.obj[J][s].carrier
                    ]
                    if not kcells:
                        continue
                    at = max(reads + kcells)

                    # the slots y complete by then share one test, which looks x' up
                    def early(image, table=table, reads=reads, kcells=kcells, at=at):
                        jcells, last = table[tuple([image[c] for c in reads])]
                        return last > at or [image[c] for c in kcells] == [image[c] for c in jcells]

                    tests.append((at, early))
                    tests += [
                        (ylast[i], lambda image, reads=reads, y=ys[i], kcells=kcells, jcells=ycells[i]:
                            tuple([image[c] for c in reads]) != y
                            or [image[c] for c in kcells] == [image[c] for c in jcells])
                        for i in range(bisect.bisect_right(ylast, at), len(ys))
                    ]

    images: list = []
    _sortwise_search(Xs, Ys, funcs, images, tests, bgt)
    if len(sorts) > 1:
        order = [
            (c, carrier[s].index)
            for J in M.arities
            for cells in spans[J]
            for (a, b), s in zip(cells, sorts)
            for c in range(a, b)
        ]
        images.sort(key=lambda image: [index[image[c]] for c, index in order])
    return [
        TjAlgebra(carrier, {
            J: {
                x: tuple([image[a:b] for a, b in cells])
                for x, cells in zip(slots[J], spans[J])
            }
            for J in M.arities
        })
        for image in images
    ]


def verify_presentation(
    M: RelMonadData,
    carrier_bound: int,
    budget: Budget | int | None = None,
) -> EquivalenceReport:
    """Desk-scale check that the truncation's algebras coincide with the
    algebras of its induced theory on every carrier family up to the bound,
    including hom structures."""
    bgt = ensure_budget(budget)
    T = theory_from_monad(M)
    report = EquivalenceReport(label="structure-map unfolding")
    homs = (lambda A, B: _tj_hom_structure(M, A, B), hom_object)
    for fam in model_families(M.base, M.sorts, carrier_bound, budget=bgt):
        tj = enumerate_tj_algebras(M, fam, bgt)
        th = _enumerate_algebras(T, fam, bgt)
        report.rows.append(_compare(fam, tj, th, lambda A: tj_to_algebra(M, T, A), homs, bgt))
    return report


def tj_to_algebra(M: RelMonadData, T: EnrichedTheory, A: TjAlgebra) -> Algebra:
    """Unfold structure maps into operation tables."""
    sig = T.signature
    interp: dict[str, dict] = {}
    for J in M.arities:
        xs = all_maps_into(J, A.carrier, M.sorts)
        for s in M.sorts.sorts:
            op = sig.by_name[_op_name(J, s)]
            for p in M.obj[J][s].carrier:
                interp[classical_symbol(op, p)] = {
                    flatten_map(x): A.component(M, J, s, p, x) for x in xs
                }
    return Algebra(sig, A.carrier, interp)


def _tj_hom_structure(M: RelMonadData, A: TjAlgebra, B: TjAlgebra) -> FinStructure:
    """Substructure of the sortwise hom family on exactly the morphisms of
    truncation algebras, in its carrier order, found by the search of
    hom_object.  The constraints come from the structure maps,
    not from their unfolded tables: for every arity J, map x : J -> A, sort
    s and point p of TJ_s, the image of A's component at (J, s, p, x) is
    B's component at (J, s, p) of the image of x."""
    sorts = M.sorts.sorts
    var = _var_index(A.carrier, M.sorts)
    funcs = []
    for J in M.arities:
        xs = all_maps_into(J, A.carrier, M.sorts)
        args = [tuple(var[s][v] for s, block in zip(sorts, x) for v in block) for x in xs]
        ys = {flatten_map(y): y for y in all_maps_into(J, B.carrier, M.sorts)}
        for s in sorts:
            for p in M.obj[J][s].carrier:
                entries = [(a, var[s][A.component(M, J, s, p, x)]) for a, x in zip(args, xs)]
                fn = lambda image, J=J, s=s, p=p, ys=ys: B.component(M, J, s, p, ys[image])
                funcs.append((fn, entries))
    return _hom_structure(A.carrier, B.carrier, M.base, M.sorts, funcs)


# -- free algebras and the theory-to-truncation direction ------------------------

@dataclass
class FreeAlgebraResult:
    algebra: Algebra
    generators: KRep
    saturated: bool
    class_count: int


def _guarded(premises: set, conclusion: tuple, sort_of) -> HornFormula:
    """The formula with a sort premise on each conclusion variable that no
    premise binds; the chase would range such a variable over every sort."""
    bound = {v for _, tup in premises for v in tup}
    guards = {(("sort", sort_of(v)), (v,)) for v in conclusion[1] if v not in bound}
    return HornFormula(frozenset(premises | guards), conclusion)


def _flatten(t: Term, atoms: set, names: dict) -> int:
    """The variable standing for t in the join of its subterm atoms: a term
    variable is its context index, and each distinct application
    F(t1, ..., tn) adds the graph atom F(y1, ..., yn, y) on a fresh y < 0."""
    if isinstance(t, Var):
        return t.index
    args = tuple(_flatten(a, atoms, names) for a in t.args)
    key = (t.op, args)
    if key not in names:
        names[key] = -1 - len(names)
        atoms.add((("op", t.op), args + (names[key],)))
    return names[key]


def graph_presentation(T: Theory) -> tuple[RelSignature, tuple[HornFormula, ...]]:
    """The relational presentation whose chase computes term models of T.

    Relations: ("sort", s) per sort, the graph F = ("op", f) of arity n + 1
    per classical symbol f, and a copy R@s = ("rel", R, s) of each base
    relation R per sort s.  Axioms: congruence F(x, y), F(x, y') => y = y';
    per equation, the join of both sides' subterm atoms => y_lhs = y_rhs (so
    an instance fires exactly when both sides are defined); per relation
    atom, the same join => R@s(y1, ...); and each base axiom copied onto
    every R@s.  A conclusion variable that no premise binds gets a sort
    premise.  None of the relations is reflexive, so this is no HornTheory:
    relcore._chase runs it."""
    sig, equations, relations, chains = theory_parts(T)
    if chains:
        raise StructureError("free_algebra does not support chain relations")
    graphs = [(("op", name), op.inputs.total()) for name, op, _ in classical_symbols(sig)]
    rels = [(("sort", s), 1) for s in sig.sorts.sorts] + [(F, n + 1) for F, n in graphs]
    axioms = [
        HornFormula(
            frozenset({(F, tuple(range(n + 1))), (F, tuple(range(n)) + (n + 1,))}),
            (EQ, (n, n + 1)),
        )
        for F, n in graphs
    ]
    for law in (*equations, *relations):
        atoms: set = set()
        names: dict = {}
        if isinstance(law, Equation):
            sides, crel = (law.lhs, law.rhs), EQ
        else:
            sides, crel = law.args, ("rel", law.relation, law.sort)
        ys = tuple(_flatten(t, atoms, names) for t in sides)
        axioms.append(_guarded(atoms, (crel, ys), law.context.sort_of))
    for s in sig.sorts.sorts:
        rels += [(("rel", R, s), ar) for R, ar in sig.base.signature.symbols]
        for ax in sig.base.axioms:
            crel, cvars = ax.conclusion
            if crel not in _EQ_SPELLINGS:
                crel = ("rel", crel, s)
            premises = {(("rel", R, s), tup) for R, tup in ax.premises}
            axioms.append(_guarded(premises, (crel, cvars), lambda v: s))
    return RelSignature(tuple(rels)), tuple(axioms)


def free_algebra(
    T: Theory,
    J: Arity,
    depth_bound: int = 3,
    size_bound: int = 4000,
    budget: Budget | int | None = None,
) -> FreeAlgebraResult:
    """Bounded term model on the canonical context of J, computed by the
    chase of T's graph_presentation.  Its elements are terms, created only
    by growing layers; the chase merges them and keeps each class's earliest
    created term as its representative.  The budget is charged one unit per
    term made, the generators included, a layer's units before any of its
    terms is made.

    The generators are chased first.  Then each iteration grows one layer:
    every classical symbol in declaration order, on every tuple of
    representatives in carrier order where its graph has no edge yet, makes
    a new term unless that would exceed the depth bound.  A symbol's inputs
    include the terms made earlier in the same layer.  If the layer would
    take the number of terms made past size_bound, StructureError is raised
    before any of them is made.  The presentation is then chased to its
    fixpoint: equation instances, congruence closure and the base axioms at
    once.  The loop stops at the first layer that adds nothing.

    Saturated means every operation on representatives has a value: no
    term was left out for depth.  When it does not hold, the tables are
    partial.
    """
    bgt = ensure_budget(budget)
    sig = theory_parts(T)[0]
    signature, axioms = graph_presentation(T)
    ctx = canonical_context(J)
    symbols = [
        (name, op.output, [s for _, s in canonical_context(op.inputs).entries])
        for name, op, _ in classical_symbols(sig)
    ]
    bgt.charge(len(ctx))
    # per term made, by id: the term, its sort and its depth
    reps: list[Term] = [Var(i) for i in range(len(ctx))]
    sort = [s for _, s in ctx.entries]
    depth = [0] * len(ctx)
    gens = list(range(len(ctx)))
    X = FinStructure(signature, tuple(gens), frozenset((("sort", s), (i,)) for i, s in enumerate(sort)))
    while True:
        model, unit = _chase(X, signature, axioms)
        gens = [unit[g] for g in gens]
        table = {(F[1], tup[:-1]): tup[-1] for F, tup in model.edges if F[0] == "op"}
        pools = {s: [x for x in model.carrier if sort[x] == s] for s in sig.sorts.sorts}
        layer = []
        for name, out, inputs in symbols:
            for args in itertools.product(*[pools[s] for s in inputs]):
                if (name, args) in table:
                    continue
                d = 1 + max((depth[a] for a in args), default=0)
                if d > depth_bound:
                    continue
                if len(reps) + len(layer) >= size_bound:
                    raise StructureError(f"free algebra exceeded the size bound {size_bound}")
                y = len(sort)
                layer.append((name, args, y))
                sort.append(out)
                depth.append(d)
                pools[out].append(y)
        if not layer:
            break
        bgt.charge(len(layer))
        new = set()
        for name, args, y in layer:
            reps.append(App(name, tuple(reps[a] for a in args)))
            new |= {(("op", name), args + (y,)), (("sort", sort[y]), (y,))}
        X = FinStructure(signature, model.carrier + tuple(y for *_, y in layer), model.edges | new)

    carrier = {
        s: FinStructure(
            sig.base.signature,
            tuple(reps[x] for x in pools[s]),
            frozenset(
                (R[1], tuple(reps[x] for x in tup))
                for R, tup in model.edges
                if R[0] == "rel" and R[2] == s
            ),
        )
        for s in sig.sorts.sorts
    }
    saturated = True
    interp: dict[str, dict] = {}
    for name, _, inputs in symbols:
        interp[name] = {}
        for args in itertools.product(*[pools[s] for s in inputs]):
            y = table.get((name, args))
            if y is None:
                saturated = False
            else:
                interp[name][tuple(reps[a] for a in args)] = reps[y]
    generators = tuple(
        tuple(reps[g] for g, (_, es) in zip(gens, ctx.entries) if es == s)
        for s in sig.sorts.sorts
    )
    algebra = Algebra(sig, carrier, interp)
    return FreeAlgebraResult(algebra, generators, saturated, len(model.carrier))


def monad_from_theory(
    T: Theory,
    arities: Iterable[Arity],
    depth_bound: int = 3,
    size_bound: int = 4000,
    name: str | None = None,
) -> RelMonadData:
    """Finite truncation induced by free algebras: value objects are free
    carriers, units the generators, extensions the evaluation of class
    representatives; every element is named by its term's printed form."""
    sig = theory_parts(T)[0]
    sorts = sig.sorts.sorts
    arities = tuple(arities)
    frees: dict[Arity, Algebra] = {}
    obj: dict[Arity, dict[str, FinStructure]] = {}
    unit: dict[Arity, KRep] = {}
    for J in arities:
        res = free_algebra(T, J, depth_bound, size_bound)
        if not res.saturated:
            raise StructureError(
                f"free algebra for arity {J.label()} does not saturate at depth {depth_bound}"
            )
        frees[J] = res.algebra
        carrier = res.algebra.carrier
        obj[J] = {s: relabel(carrier[s], {t: str(t) for t in carrier[s].carrier}) for s in sorts}
        unit[J] = tuple(tuple(map(str, block)) for block in res.generators)
    ext: dict[tuple[Arity, Arity, KRep], dict[str, dict]] = {}
    for J, K in itertools.product(arities, repeat=2):
        ctxJ = canonical_context(J)
        terms = [frees[J].carrier[s].carrier for s in sorts]
        for k in all_maps_into(J, frees[K].carrier, sig.sorts):
            flat = flatten_map(k)
            ext[(J, K, tuple(tuple(map(str, block)) for block in k))] = {
                s: {str(t): str(eval_term(frees[K], ctxJ, t, flat)) for t in ts}
                for s, ts in zip(sorts, terms)
            }
    return RelMonadData(sig.base, sig.sorts, arities, obj, unit, ext, name=name or "derived")


# -- builtin truncations -----------------------------------------------------------

def _pointed_truncation(
    base: HornTheory, sorts: SortSet, arities: Iterable[Arity], name: str, error: str | None = None
) -> RelMonadData:
    """TJ = J, plus one error point per sort when error is given: the unit
    is the generators, and the extension of k sends them along k and the
    error point to itself."""
    arities = tuple(arities)
    jobjs = {J: arity_object(base, sorts, J) for J in arities}
    obj: dict[Arity, dict[str, FinStructure]] = {}
    unit: dict[Arity, KRep] = {}
    for J, jobj in jobjs.items():
        unit[J] = tuple(jobj[s].carrier for s in sorts.sorts)
        obj[J] = jobj if error is None else {
            s: chase(FinStructure(base.signature, X.carrier + (error,), frozenset()), base).model
            for s, X in jobj.items()
        }
    point = {} if error is None else {error: error}
    ext: dict[tuple[Arity, Arity, KRep], dict[str, dict]] = {}
    for J, K in itertools.product(arities, repeat=2):
        for k in all_maps_into(J, obj[K], sorts):
            ext[(J, K, k)] = {
                s: {**dict(zip(gens, block)), **point} for s, gens, block in zip(sorts.sorts, unit[J], k)
            }
    M = RelMonadData(base, sorts, arities, obj, unit, ext, name=name)
    M.arity_objects = jobjs  # already chased: the cached property need not chase them again
    return M


def identity_truncation(base: HornTheory, sorts: SortSet, arities: Iterable[Arity]) -> RelMonadData:
    """TJ = J, units are identities, extension is application."""
    return _pointed_truncation(base, sorts, arities, "identity")


def exception_truncation(
    base: HornTheory, sorts: SortSet, arities: Iterable[Arity], error: str = "e"
) -> RelMonadData:
    """TJ = J plus one error point per sort; extension keeps the error."""
    return _pointed_truncation(base, sorts, arities, "exception", error)
