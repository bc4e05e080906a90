"""Enriched signatures and algebras over finite base models.

Operation symbols are typed by an input arity, an output sort, and a
parameter structure that must be a base model; an algebra interprets each
induced ordinary symbol as an explicit function table over ordered carriers.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .budget import Budget, ensure_budget
from .relcore import (
    FinStructure,
    HornTheory,
    SignatureMismatch,
    StructureError,
    _product_on,
    _sortwise_search,
    as_image_tuple,
    enumerate_morphisms,
    exp_edge_holds,
    exponential,
    is_model,
    is_pi_morphism,
    product,
    render_id,
    terminal,
)
from . import syntax
from .syntax import (
    App,
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


from functools import lru_cache


@lru_cache(maxsize=8192)
def _product_cached(structs: tuple, signature) -> FinStructure:
    return product(list(structs), signature=signature)


def context_power(carrier: Mapping[str, FinStructure], ctx: Context) -> FinStructure:
    """Product of the sort carriers in context order (cached)."""
    return _product_cached(
        tuple(carrier[s] for _, s in ctx.entries),
        next(iter(carrier.values())).signature if carrier else None,
    )


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
    satisfy the functional constraints funcs, found by one search over
    sortwise maps.  Variables are (sort, element) pairs in sort order, then
    carrier order, numbered as in _var_index; each (fn, entries) in funcs
    asks, for every (args, r) in entries, that the family sends variable r
    to fn of its images of the variables args.  The families come out in the
    carrier order of hom_family, and the edges are those of the product of
    the per-sort exponentials."""
    Xs = [X[s] for s in sorts.sorts]
    Ys = [Y[s] for s in sorts.sorts]
    exps = [exponential(A, B, base) for A, B in zip(Xs, Ys)]
    flat: list = []
    _sortwise_search(Xs, Ys, funcs, flat)
    cuts = list(itertools.accumulate([0] + [len(A.carrier) for A in Xs]))
    spans = list(zip(cuts, cuts[1:]))
    fams = [tuple([image[i:j] for i, j in spans]) for image in flat]
    return _product_on(exps, base.signature, fams)


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
            if not is_pi_morphism(table, dom, cod):
                problems.append(f"{name}: table is not edge-preserving")
            tables[p] = as_image_tuple(table, dom)
        if len(tables) == len(op.param.carrier):
            for rel in sig.base.signature.names:
                for ptup in op.param.edges_by_rel[rel]:
                    fs = tuple(tables[p] for p in ptup)
                    if not exp_edge_holds(dom, cod, rel, fs):
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
    """Full function table of t over the context power."""
    dom = context_power(A.carrier, ctx)
    table = {}
    for point in dom.carrier:
        table[point] = eval_term(A, ctx, t, point)
    return table


def satisfies_equation(A: Algebra, eq: Equation) -> bool:
    dom = context_power(A.carrier, eq.context)
    for point in dom.carrier:
        if eval_term(A, eq.context, eq.lhs, point) != eval_term(A, eq.context, eq.rhs, point):
            return False
    return True


def satisfies_relation(A: Algebra, atom: RelationAtom) -> bool:
    """Edge test in the internal hom [power, carrier_S], evaluated without
    materializing the exponential: the relation holds iff every matching edge
    of the input power maps into an edge of the output carrier."""
    dom = context_power(A.carrier, atom.context)
    cod = A.carrier[atom.sort]
    tables = [interpret_term(A, atom.context, arg) for arg in atom.args]
    for dtuple in dom.edges_by_rel[atom.relation]:
        image = tuple(tables[i][d] for i, d in enumerate(dtuple))
        if (atom.relation, image) not in cod.edges:
            return False
    return True


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

def _constraint_symbols(T: Theory) -> list[tuple[int, object]]:
    """(kind, constraint) pairs: kind 0 equation, 1 relation, 2 chain."""
    _, equations, relations, chains = theory_parts(T)
    out = [(0, eq) for eq in equations]
    out += [(1, r) for r in relations]
    out += [(2, c) for c in chains]
    return out


def _symbols_of_constraint(kind: int, c) -> set[str]:
    if kind == 0:
        return syntax.term_ops(c.lhs) | syntax.term_ops(c.rhs)
    if kind == 1:
        out: set[str] = set()
        for a in c.args:
            out |= syntax.term_ops(a)
        return out
    out = syntax.term_ops(c.limit)
    if isinstance(c.chain, syntax.ExplicitChain):
        for t in c.chain.terms:
            out |= syntax.term_ops(t)
    else:
        out |= syntax.term_ops(c.chain.seed) | syntax.term_ops(c.chain.step)
    return out


def _check_constraint(A: Algebra, kind: int, c) -> bool:
    if kind == 0:
        return satisfies_equation(A, c)
    if kind == 1:
        return satisfies_relation(A, c)
    from .cpo import satisfies_chain_relation

    return satisfies_chain_relation(A, c)


def _definition_for(slot: str, op: OpDecl, slot_index: Mapping[str, int], eq: Equation):
    """Recognize `slot(v1,...,vn) == t` (either orientation) where t mentions
    only earlier symbols and the context is the slot's canonical one: such an
    equation forces the slot's table, so the candidate scan collapses to the
    one table it computes."""
    if tuple(s for _, s in eq.context.entries) != op.inputs.flat_sorts():
        return None
    k = slot_index[slot]
    for head, body in ((eq.lhs, eq.rhs), (eq.rhs, eq.lhs)):
        if not isinstance(head, App) or head.op != slot:
            continue
        if head.args != tuple(Var(i) for i in range(len(eq.context))):
            continue
        if all(slot_index.get(s, k) < k for s in syntax.term_ops(body)):
            return body
    return None


def enumerate_algebras(
    T: Theory,
    carrier: Mapping[str, FinStructure],
    budget: Budget | int | None = None,
) -> list[Algebra]:
    """All algebra structures of T on the fixed carrier, in deterministic
    order.  Tables are filled symbol by symbol; admissibility edges and
    constraints are checked as soon as the symbols they mention are set, and
    a defining equation replaces a slot's candidate scan by the one table it
    forces."""
    sig, equations, *_ = theory_parts(T)
    bgt = ensure_budget(budget)
    for s in sig.sorts.sorts:
        if s not in carrier:
            raise StructureError(f"enumerate_algebras: missing carrier for sort {s}")
        if not is_model(carrier[s], sig.base):
            raise StructureError(f"carrier at sort {s} is not a base model")

    slots: list[tuple[str, OpDecl, object]] = classical_symbols(sig)
    slot_index = {name: i for i, (name, _, _) in enumerate(slots)}

    # candidate tables per (arity, output sort), cached
    table_cache: dict[tuple[Arity, str], list[dict]] = {}

    def candidates(op: OpDecl) -> list[dict]:
        key = (op.inputs, op.output)
        if key not in table_cache:
            dom = power(carrier, op.inputs)
            table_cache[key] = enumerate_morphisms(dom, carrier[op.output])
        return table_cache[key]

    powers = {op.name: power(carrier, op.inputs) for op in sig.ops}

    definitions: dict[str, tuple[Context, Term]] = {}
    for eq in equations:
        for name, op, _ in slots:
            if name in definitions:
                continue
            body = _definition_for(name, op, slot_index, eq)
            if body is not None:
                definitions[name] = (eq.context, body)

    # admissibility edges of an op trigger at the last of the slots they use;
    # edges on a repeated parameter element restate the morphism property the
    # candidates already have
    adm_at: list[list[tuple[OpDecl, str, tuple]]] = [[] for _ in slots]
    for op in sig.ops:
        pidx = {p: slot_index[classical_symbol(op, p)] for p in op.param.carrier}
        for rel in sig.base.signature.names:
            for ptup in op.param.edges_by_rel[rel]:
                if ptup and len(set(ptup)) > 1:
                    adm_at[max(pidx[p] for p in ptup)].append((op, rel, ptup))

    # theory constraints trigger once all mentioned symbols are assigned;
    # constraints mentioning no symbol are checked up front
    cons_at: list[list[tuple[int, object]]] = [[] for _ in slots]
    upfront: list[tuple[int, object]] = []
    for kind, c in _constraint_symbols(T):
        syms = _symbols_of_constraint(kind, c)
        if syms:
            cons_at[max(slot_index[s] for s in syms)].append((kind, c))
        else:
            upfront.append((kind, c))

    carrier = dict(carrier)
    out: list[Algebra] = []
    interp: dict[str, dict] = {}
    image_tuples: dict[str, tuple] = {}

    probe = Algebra(sig, carrier, interp)
    if any(not _check_constraint(probe, kind, c) for kind, c in upfront):
        return []

    def slot_tables(name: str, op: OpDecl, dom: FinStructure, cod: FinStructure):
        forced = definitions.get(name)
        if forced is None:
            return candidates(op)
        ctx, body = forced
        table = {point: eval_term(probe, ctx, body, point) for point in dom.carrier}
        if not is_pi_morphism(table, dom, cod):
            return []
        return [table]

    def rec(k: int):
        if k == len(slots):
            out.append(Algebra(sig, carrier, dict(interp)))
            return
        name, op, p = slots[k]
        dom = powers[op.name]
        cod = carrier[op.output]
        for table in slot_tables(name, op, dom, cod):
            bgt.charge()
            interp[name] = table
            image_tuples[name] = as_image_tuple(table, dom)
            ok = True
            for aop, rel, ptup in adm_at[k]:
                fs = tuple(
                    image_tuples[classical_symbol(aop, pp)] for pp in ptup
                )
                if not exp_edge_holds(powers[aop.name], carrier[aop.output], rel, fs):
                    ok = False
                    break
            if ok:
                for kind, c in cons_at[k]:
                    if not _check_constraint(probe, kind, c):
                        ok = False
                        break
            if ok:
                rec(k + 1)
        interp.pop(name, None)
        image_tuples.pop(name, None)

    rec(0)
    return out
