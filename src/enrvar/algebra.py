"""Enriched signatures and algebras over finite base models.

Operation symbols are typed by an input arity, an output sort, and a
parameter structure that must be a base model; an algebra interprets each
induced ordinary symbol as an explicit function table over ordered carriers.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Mapping

from .budget import Budget, ensure_budget
from .relcore import (
    FinStructure,
    HornTheory,
    SignatureMismatch,
    StructureError,
    _image,
    _map_edges,
    _preserves,
    _sortwise_search,
    exponential,
    is_model,
    is_pi_morphism,
    product,
    render_id,
    terminal,
)
from . import syntax
from .syntax import (
    Arity,
    ChainRelation,
    ClassicalSignature,
    Context,
    Equation,
    RelationAtom,
    SortSet,
    Term,
    Var,
    canonical_context,
)


@dataclass(frozen=True)
class OpDecl:
    name: str
    inputs: Arity
    output: str
    param: FinStructure

    def is_ordinary(self) -> bool:
        # every one-element model of a reflexive theory is the terminal
        return len(self.param.carrier) == 1


@dataclass(frozen=True)
class EnrichedSignature:
    sorts: SortSet
    base: HornTheory
    ops: tuple[OpDecl, ...] = ()

    def __post_init__(self):
        names = [op.name for op in self.ops]
        if len(set(names)) != len(names):
            raise StructureError("operation names must be pairwise distinct")
        for op in self.ops:
            if op.output not in self.sorts.position:
                raise StructureError(f"operation {op.name!r} has unknown output sort")
            for s, _ in op.inputs.counts:
                if s not in self.sorts.position:
                    raise StructureError(f"operation {op.name!r} has unknown input sort")
            if op.param.signature != self.base.signature:
                raise SignatureMismatch(
                    f"parameter of {op.name!r} is not over the base signature"
                )
            if not is_model(op.param, self.base):
                raise StructureError(
                    f"parameter of {op.name!r} is not a model of the base theory"
                )

    @cached_property
    def by_name(self) -> dict[str, OpDecl]:
        return {op.name: op for op in self.ops}


def classical_symbol(op: OpDecl, p) -> str:
    if op.is_ordinary():
        return op.name
    return f"{op.name}@{render_id(p)}"


def classical_symbols(sig: EnrichedSignature) -> list[tuple[str, OpDecl, object]]:
    """All induced ordinary symbols in declaration then parameter order."""
    out = []
    for op in sig.ops:
        for p in op.param.carrier:
            out.append((classical_symbol(op, p), op, p))
    return out


def underlying_classical(sig: EnrichedSignature) -> ClassicalSignature:
    """One ordinary symbol per operation and parameter element."""
    ops = tuple(
        (name, op.inputs, op.output) for name, op, _ in classical_symbols(sig)
    )
    return ClassicalSignature(sig.sorts, ops)


def ordinary_signature(
    sorts: SortSet, base: HornTheory, ops: Iterable[tuple[str, Arity, str]]
) -> EnrichedSignature:
    """Classical signature embedded with terminal parameters."""
    one = terminal(base.signature)
    return EnrichedSignature(
        sorts, base, tuple(OpDecl(n, ar, out, one) for n, ar, out in ops)
    )


@dataclass(frozen=True)
class EnrichedTheory:
    signature: EnrichedSignature
    equations: tuple[Equation, ...] = ()
    name: str | None = None

    def __post_init__(self):
        csig = underlying_classical(self.signature)
        for eq in self.equations:
            syntax.validate_equation(csig, eq)


@dataclass(frozen=True)
class ClassicalTheoryWithRelations:
    """Ordinary signature plus syntactic relations between terms (and, over a
    pos base, optional chain relations)."""

    signature: EnrichedSignature
    relations: tuple[RelationAtom, ...] = ()
    equations: tuple[Equation, ...] = ()
    chain_relations: tuple[ChainRelation, ...] = ()
    name: str | None = None

    def __post_init__(self):
        if any(not op.is_ordinary() for op in self.signature.ops):
            raise StructureError("relational theories use ordinary symbols only")
        csig = underlying_classical(self.signature)
        base_arity = self.signature.base.signature.arity
        for eq in self.equations:
            syntax.validate_equation(csig, eq)
        for atom in self.relations:
            syntax.validate_relation_atom(csig, base_arity, atom)
        if self.chain_relations:
            if self.signature.base.name != "pos":
                raise StructureError("chain relations require the pos base")
            for rel in self.chain_relations:
                syntax.validate_chain_relation(csig, rel)


Theory = EnrichedTheory | ClassicalTheoryWithRelations


def theory_parts(T: Theory):
    if isinstance(T, EnrichedTheory):
        return T.signature, T.equations, (), ()
    return T.signature, T.equations, T.relations, T.chain_relations


@dataclass
class Algebra:
    """Sort-indexed base models plus a table per induced ordinary symbol.

    Tables are dicts from flat input tuples (carrier product in canonical
    context order) to output carrier elements; values are treated as
    immutable once built.
    """

    signature: EnrichedSignature
    carrier: dict[str, FinStructure]
    interp: dict[str, dict]

    def key(self):
        return (
            tuple(sorted((s, X.carrier, X.edges) for s, X in self.carrier.items())),
            tuple(
                (name, tuple(sorted(table.items(), key=lambda kv: repr(kv))))
                for name, table in sorted(self.interp.items())
            ),
        )


def context_power(carrier: Mapping[str, FinStructure], ctx: Context) -> FinStructure:
    """Product of the sort carriers in context order."""
    return product(
        [carrier[s] for _, s in ctx.entries],
        signature=next(iter(carrier.values())).signature if carrier else None,
    )


def context_points(carrier: Mapping[str, FinStructure], ctx: Context) -> Iterable[tuple]:
    """The carrier of context_power(carrier, ctx), in its order, without
    building the power."""
    return itertools.product(*[carrier[s].carrier for _, s in ctx.entries])


def context_edges(
    carrier: Mapping[str, FinStructure], ctx: Context, rel: str, ar: int
) -> Iterable[tuple]:
    """The rel-edges of context_power(carrier, ctx), each an ar-tuple of
    points, without building the power; rel has arity ar.  The empty
    context's power is the indiscrete singleton, whose one edge is
    ((),) * ar."""
    for combo in itertools.product(*[carrier[s].edges_by_rel[rel] for _, s in ctx.entries]):
        yield tuple([tuple([t[i] for t in combo]) for i in range(ar)])


def algebra_to_json(A: Algebra) -> dict:
    """Mirror of the structure export: carriers per sort plus one table per
    induced symbol, ids rendered as strings."""
    from .relcore import render_id, structure_to_json

    return {
        "carrier": {s: structure_to_json(X) for s, X in sorted(A.carrier.items())},
        "ops": {
            symbol: [
                [[render_id(x) for x in point], render_id(value)]
                for point, value in sorted(table.items(), key=lambda kv: repr(kv))
            ]
            for symbol, table in sorted(A.interp.items())
        },
    }


def power(carrier: Mapping[str, FinStructure], J: Arity) -> FinStructure:
    """J-fold power in sort-then-position order; the empty arity yields the
    terminal (indiscrete singleton)."""
    for s, _ in J.counts:
        if s not in carrier:
            raise StructureError(f"power: missing sort {s!r}")
    if not carrier:
        raise StructureError("power needs at least one sort structure")
    return context_power(carrier, canonical_context(J))


def hom_family(
    X: Mapping[str, FinStructure],
    Y: Mapping[str, FinStructure],
    base: HornTheory,
    sorts: SortSet,
) -> FinStructure:
    """Product over sorts of the exponentials [X_S, Y_S]; carrier elements are
    sort-indexed families of morphisms (as image tuples)."""
    exps = [exponential(X[s], Y[s], base) for s in sorts.sorts]
    return product(exps, signature=base.signature)


def _hom_structure(
    X: Mapping[str, FinStructure],
    Y: Mapping[str, FinStructure],
    base: HornTheory,
    sorts: SortSet,
    funcs: Iterable,
) -> FinStructure:
    """The substructure of hom_family(X, Y, base, sorts) on the families that
    satisfy the functional constraints funcs, found by the one hom-set
    search (_sortwise_search).  Variables are (sort, element) pairs in sort
    order, then carrier order, numbered as in _var_index; each (fn, entries)
    in funcs asks, for every (args, r) in entries, that the family sends
    variable r to fn of its images of the variables args.  The families come
    out in the carrier order of hom_family, with the edges of the product of
    the per-sort exponentials: _map_edges, read sortwise.  Each exponential
    is asked for first (cached) as the certification, which raises for
    arguments that are not base models."""
    Xs = [X[s] for s in sorts.sorts]
    Ys = [Y[s] for s in sorts.sorts]
    for A, B in zip(Xs, Ys):
        exponential(A, B, base)
    flat: list = []
    _sortwise_search([[A] for A in Xs], Ys, funcs, flat)
    cuts = list(itertools.accumulate([0] + [len(A.carrier) for A in Xs]))
    spans = list(zip(cuts, cuts[1:]))
    fams = [tuple([image[i:j] for i, j in spans]) for image in flat]
    return FinStructure(base.signature, tuple(fams), frozenset(_map_edges(Xs, Ys, flat, fams)))


def _var_index(X: Mapping[str, FinStructure], sorts: SortSet) -> dict[str, dict]:
    """Per sort, the search variable of each carrier element in _hom_structure."""
    out: dict[str, dict] = {}
    k = 0
    for s in sorts.sorts:
        out[s] = {x: k + i for x, i in X[s].index.items()}
        k += len(X[s].carrier)
    return out


def validate_ops(sig: EnrichedSignature, carrier, interp) -> list[str]:
    """Per-operation admissibility check; returns human-readable failures."""
    problems = []
    for op in sig.ops:
        dom = power(carrier, op.inputs)
        cod = carrier[op.output]
        tables = {}
        for p in op.param.carrier:
            name = classical_symbol(op, p)
            table = interp.get(name)
            if table is None:
                problems.append(f"{op.name}: missing table for parameter {render_id(p)}")
                continue
            if set(table) != set(dom.carrier):
                problems.append(f"{name}: table domain differs from the input power")
                continue
            image = _image(table, dom.carrier, cod)
            if image is None:
                point = ", ".join(map(render_id, next(x for x in dom.carrier if table[x] not in cod.index)))
                problems.append(f"{name}: table sends ({point}) outside the carrier of {op.output}")
                continue
            if not all(_preserves(dom, cod, rel, [image] * ar) for rel, ar in dom.signature.symbols):
                problems.append(f"{name}: table is not edge-preserving")
            tables[p] = image
        if len(tables) == len(op.param.carrier):
            for rel in sig.base.signature.names:
                for ptup in op.param.edges_by_rel[rel]:
                    if not _preserves(dom, cod, rel, [tables[p] for p in ptup]):
                        problems.append(
                            f"{op.name}: parameter family breaks the {rel} edge "
                            f"at ({', '.join(render_id(p) for p in ptup)})"
                        )
    return problems


@dataclass
class ValidationReport:
    problems: list[str]

    @property
    def ok(self) -> bool:
        return not self.problems


def validate_algebra(A: Algebra, sig: EnrichedSignature | None = None) -> ValidationReport:
    """Checks every sort carrier is a base model, every table a morphism, and
    every parameter family admissible."""
    sig = sig or A.signature
    problems = []
    for s in sig.sorts.sorts:
        X = A.carrier.get(s)
        if X is None:
            problems.append(f"missing carrier for sort {s}")
        elif not is_model(X, sig.base):
            problems.append(f"carrier at sort {s} is not a base model")
    if not problems:
        problems.extend(validate_ops(sig, A.carrier, A.interp))
    return ValidationReport(problems)


def eval_term(A: Algebra, ctx: Context, t: Term, args: tuple):
    """Evaluate one point: args are carrier elements in context order."""
    if isinstance(t, Var):
        return args[t.index]
    vals = tuple(eval_term(A, ctx, a, args) for a in t.args)
    return A.interp[t.op][vals]


def interpret_term(A: Algebra, ctx: Context, t: Term) -> dict:
    """Full function table of t over the context power, in its point order."""
    return {point: eval_term(A, ctx, t, point) for point in context_points(A.carrier, ctx)}


def satisfies_equation(A: Algebra, eq: Equation) -> bool:
    for point in context_points(A.carrier, eq.context):
        if eval_term(A, eq.context, eq.lhs, point) != eval_term(A, eq.context, eq.rhs, point):
            return False
    return True


def satisfies_relation(A: Algebra, atom: RelationAtom) -> bool:
    """Edge test in the internal hom [power, carrier_S]: the relation holds
    iff the argument tables, read as maps from the context power to the
    output carrier, send every matching edge of the power to an edge of the
    carrier, by the one edge rule (_preserves)."""
    P = context_power(A.carrier, atom.context)
    cod = A.carrier[atom.sort]
    images = [_image(interpret_term(A, atom.context, arg), P.carrier, cod) for arg in atom.args]
    return None not in images and _preserves(P, cod, atom.relation, images)


def satisfies_theory(A: Algebra, T: Theory) -> bool:
    sig, equations, relations, chains = theory_parts(T)
    if any(not satisfies_equation(A, eq) for eq in equations):
        return False
    if any(not satisfies_relation(A, r) for r in relations):
        return False
    if chains:
        from .cpo import satisfies_chain_relation

        if any(not satisfies_chain_relation(A, c) for c in chains):
            return False
    return True


def is_homomorphism(f: Mapping[str, Mapping], A: Algebra, B: Algebra) -> bool:
    """Sortwise morphisms commuting with every induced symbol table."""
    sig = A.signature
    if B.signature != sig:
        raise SignatureMismatch("homomorphism endpoints use different signatures")
    for s in sig.sorts.sorts:
        if not is_pi_morphism(f[s], A.carrier[s], B.carrier[s]):
            return False
    for name, op, p in classical_symbols(sig):
        ctx = canonical_context(op.inputs)
        ta, tb = A.interp[name], B.interp[name]
        fs = [f[s] for _, s in ctx.entries]
        fout = f[op.output]
        for point, value in ta.items():
            mapped = tuple(fs[i][point[i]] for i in range(len(point)))
            if fout[value] != tb[mapped]:
                return False
    return True


def hom_object(A: Algebra, B: Algebra) -> FinStructure:
    """Substructure of the sortwise hom family on exactly the homomorphisms,
    in its carrier order.  One search over sortwise maps finds them: every
    table entry op(x1, ..., xn) = y of A asks that the image of y be B's op
    at the images of the xi (see _hom_structure)."""
    sig = A.signature
    if B.signature != sig:
        raise SignatureMismatch("homomorphism endpoints use different signatures")
    var = _var_index(A.carrier, sig.sorts)
    funcs = []
    for op in sig.ops:
        ins = [var[s] for s in op.inputs.flat_sorts()]
        out = var[op.output]
        for p in op.param.carrier:
            name = classical_symbol(op, p)
            entries = [
                (tuple([v[x] for v, x in zip(ins, point)]), out[y])
                for point, y in A.interp[name].items()
            ]
            funcs.append((B.interp[name].__getitem__, entries))
    return _hom_structure(A.carrier, B.carrier, sig.base, sig.sorts, funcs)


# -- exhaustive algebra enumeration ---------------------------------------------

def _chain_symbols(c: ChainRelation) -> set[str]:
    out = syntax.term_ops(c.limit)
    if isinstance(c.chain, syntax.ExplicitChain):
        for t in c.chain.terms:
            out |= syntax.term_ops(t)
    else:
        out |= syntax.term_ops(c.chain.seed) | syntax.term_ops(c.chain.step)
    return out


def enumerate_algebras(
    T: Theory,
    carrier: Mapping[str, FinStructure],
    budget: Budget | int | None = None,
) -> list[Algebra]:
    """All algebra structures of T on the fixed carrier, in deterministic
    order, by one _sortwise_search over the cells of the tables (after Zhang
    & Zhang, "SEM: a System for Enumerating Models", IJCAI 1995).

    An operation with parameter P, arity J and output sort S is one morphism
    P x A^J -> A_S: as P is reflexive, it preserves edges iff every table is
    a morphism A^J -> A_S and every parameter family is admissible.  The
    cells are the elements (p, a1, ..., an) of these products, read flat
    from the factors P, A_1, ..., A_n without building the product,
    operation by operation, so they run in
    classical_symbols order and, within a symbol, in point order; the
    algebras come out in the lexicographic order of their tables read that
    way.

    Each instance of a law is a test at the last cell it reads: an equation
    at each point of its context, a relation atom at each edge of its
    context power, and a chain relation once, at the last cell of the last
    symbol it mentions, on the algebra read off the partial image.  A
    symbol applied to variables reads one known cell; one applied to a
    nested term counts as reading its last cell.  An instance that reads no
    cell is decided up front.  The budget is charged one unit per cell
    assignment.  A carrier that is missing or no base model raises
    StructureError."""
    sig = theory_parts(T)[0]
    for s in sig.sorts.sorts:
        if s not in carrier:
            raise StructureError(f"enumerate_algebras: missing carrier for sort {s}")
        if not is_model(carrier[s], sig.base):
            raise StructureError(f"carrier at sort {s} is not a base model")
    return _enumerate_algebras(T, carrier, ensure_budget(budget))


def _enumerate_algebras(T: Theory, carrier: Mapping[str, FinStructure], bgt: Budget) -> list[Algebra]:
    """enumerate_algebras on a carrier family already known to hold a base
    model at every sort, such as one from isoenum.model_families."""
    sig, equations, relations, chains = theory_parts(T)
    carrier = dict(carrier)

    Xs, Ys = [], []
    at: dict[str, dict] = {}  # per symbol: the cell of each point
    last: dict[str, int] = {}  # per symbol: its last cell
    n = 0
    for op in sig.ops:
        ins = [carrier[s] for s in op.inputs.flat_sorts()]
        points = list(itertools.product(*[A.carrier for A in ins]))
        Xs.append([op.param, *ins])
        Ys.append(carrier[op.output])
        for p in op.param.carrier:
            name = classical_symbol(op, p)
            at[name] = {point: n + i for i, point in enumerate(points)}
            n += len(points)
            last[name] = n - 1

    def reader(t: Term, point: tuple):
        """t at point as the last cell it reads (-1 for none) and a function
        of the partial image that evaluates it."""
        if isinstance(t, Var):
            v = point[t.index]
            return -1, lambda image: v
        cells = at[t.op]
        if all(isinstance(a, Var) for a in t.args):
            k = cells[tuple([point[a.index] for a in t.args])]
            return k, itemgetter(k)
        args = [reader(a, point) for a in t.args]
        gets = [g for _, g in args]
        return (
            max([last[t.op]] + [k for k, _ in args]),
            lambda image: image[cells[tuple([g(image) for g in gets])]],
        )

    instances: list[tuple[int, object]] = []
    for eq in equations:
        for point in context_points(carrier, eq.context):
            (j, lhs), (k, rhs) = reader(eq.lhs, point), reader(eq.rhs, point)
            instances.append(
                (max(j, k), lambda image, lhs=lhs, rhs=rhs: lhs(image) == rhs(image))
            )
    for atom in relations:
        rel, cod = atom.relation, carrier[atom.sort]
        for edge in context_edges(carrier, atom.context, rel, len(atom.args)):
            args = [reader(t, d) for t, d in zip(atom.args, edge)]
            gets = [g for _, g in args]
            instances.append((
                max([k for k, _ in args], default=-1),
                lambda image, rel=rel, cod=cod, gets=gets:
                    (rel, tuple([g(image) for g in gets])) in cod.edges,
            ))
    for c in chains:
        from .cpo import satisfies_chain_relation

        syms = _chain_symbols(c)

        def chain_holds(image, c=c, syms=syms):
            interp = {s: {point: image[k] for point, k in at[s].items()} for s in syms}
            return satisfies_chain_relation(Algebra(sig, carrier, interp), c)

        instances.append((max([last[s] for s in syms], default=-1), chain_holds))
    if not all(test([]) for k, test in instances if k < 0):
        return []

    images: list = []
    _sortwise_search(Xs, Ys, (), images, [(k, test) for k, test in instances if k >= 0], bgt)
    return [
        Algebra(sig, carrier, {
            name: {point: image[k] for point, k in cells.items()}
            for name, cells in at.items()
        })
        for image in images
    ]
