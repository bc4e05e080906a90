"""The four theory translations and the desk-scale equivalence verifier.

Each translation also returns the carrier-preserving algebra correspondence
used by the verifier (restriction one way, canonical expansion the other).
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Mapping

from .budget import Budget, ensure_budget
from .algebra import (
    Algebra,
    ClassicalTheoryWithRelations,
    EnrichedSignature,
    EnrichedTheory,
    OpDecl,
    Theory,
    _enumerate_algebras,
    classical_symbol,
    classical_symbols,
    hom_object,
    interpret_term,
    ordinary_signature,
    theory_parts,
    underlying_classical,
)
from .cpo import _PREORD, CpoPresentation, IterationNotStabilized, free_omega_cpo
from .isoenum import model_families
from .relcore import (
    LE,
    FinStructure,
    StructureError,
    chase,
    relabel,
)
from .syntax import (
    App,
    Arity,
    ChainRelation,
    Context,
    Equation,
    ExplicitChain,
    RelationAtom,
    Term,
    Var,
    canonical_context,
    context_arity,
    extended_context,
    substitute,
)


@dataclass
class Correspondence:
    """Carrier-preserving maps between the algebra classes of two theories."""

    forward: Callable[[Algebra], Algebra]
    backward: Callable[[Algebra], Algebra] | None = None
    label: str = "identity"


def _same_tables(sig1: EnrichedSignature, sig2: EnrichedSignature, label: str) -> Correspondence:
    """The same tables read under the other signature, both ways."""
    return Correspondence(
        lambda A: Algebra(sig2, A.carrier, dict(A.interp)),
        lambda A: Algebra(sig1, A.carrier, dict(A.interp)),
        label,
    )


def identity_correspondence(T1: Theory, T2: Theory) -> Correspondence:
    return _same_tables(theory_parts(T1)[0], theory_parts(T2)[0], "identity")


def _symbol_terms(op: OpDecl, points) -> tuple[Context, tuple[Term, ...]]:
    """op's canonical context and its induced symbols at the points, each
    applied to that context's variables."""
    ctx = canonical_context(op.inputs)
    argvars = tuple(Var(i) for i in range(len(ctx)))
    return ctx, tuple(App(classical_symbol(op, p), argvars) for p in points)


def _flattening(T: EnrichedTheory, what: str) -> tuple[EnrichedSignature, Correspondence]:
    """The ordinary signature of T's induced symbols, and the correspondence
    that reads the same tables under it."""
    if not isinstance(T, EnrichedTheory):
        raise StructureError(f"{what} starts from an enriched theory")
    sig = T.signature
    csig = ordinary_signature(sig.sorts, sig.base, underlying_classical(sig).ops)
    return csig, _same_tables(sig, csig, "underlying")


def _expansion(
    P: ClassicalTheoryWithRelations,
    relations,
    prefix: str,
    suffix: str,
    label: str,
    build: Callable[[list], tuple[list[Term], FinStructure, dict]],
) -> tuple[EnrichedTheory, Correspondence]:
    """Adjoin, per (arity, sort) pair carrying relations, one operation whose
    parameter build(group) makes from the group's relations, with equations
    pinning the new symbols to the terms that it returns.  build returns those
    terms, the parameter, and the unit from the terms into the parameter."""
    sig = P.signature
    groups: dict[tuple[Arity, str], list] = {}
    for rel in relations:
        J = context_arity(sig.sorts, rel.context)
        groups.setdefault((J, rel.sort), []).append(rel)

    new_ops: list[OpDecl] = []
    new_eqs: list[Equation] = []
    expand_plan: list[tuple[OpDecl, dict]] = []
    existing = {op.name for op in sig.ops}
    for (J, S), group in sorted(
        groups.items(), key=lambda kv: (kv[0][0].counts, kv[0][1])
    ):
        terms, param, unit = build(group)
        # parameter elements become printable term strings
        param = relabel(param, {t: str(t) for t in param.carrier})
        opname = f"{prefix}_{J.label()}_{S}"
        while opname in existing:
            opname += "_"
        existing.add(opname)
        op = OpDecl(opname, J, S, param)
        new_ops.append(op)
        for t in terms:
            ctx, (symbol,) = _symbol_terms(op, [str(unit[t])])
            new_eqs.append(Equation(ctx, symbol, t, S))
        expand_plan.append((op, {str(t): t for t in set(unit.values())}))

    out_sig = EnrichedSignature(sig.sorts, sig.base, sig.ops + tuple(new_ops))
    out = EnrichedTheory(
        out_sig,
        P.equations + tuple(new_eqs),
        name=(P.name or "theory") + suffix,
    )
    plain_names = _symbol_names(P)

    def forward(A: Algebra) -> Algebra:
        interp = dict(A.interp)
        for op, reps in expand_plan:
            ctx = canonical_context(op.inputs)
            for p in op.param.carrier:
                # class representatives are terms; their tables realize the
                # unique extension through the free parameter
                interp[classical_symbol(op, p)] = interpret_term(A, ctx, reps[p])
        return Algebra(out_sig, A.carrier, interp)

    def backward(A: Algebra) -> Algebra:
        interp = {k: v for k, v in A.interp.items() if k in plain_names}
        return Algebra(sig, A.carrier, interp)

    return out, Correspondence(forward, backward, label)


# -- enriched <-> relational ------------------------------------------------------

def enriched_to_relational(
    T: EnrichedTheory,
) -> tuple[ClassicalTheoryWithRelations, Correspondence]:
    """Flatten parameters into ordinary symbols; each edge of a parameter
    becomes a syntactic relation among the induced symbols."""
    csig, corr = _flattening(T, "parameter flattening")
    relations = []
    for op in T.signature.ops:
        for rel in T.signature.base.signature.names:
            for ptup in op.param.edges_by_rel[rel]:
                ctx, args = _symbol_terms(op, ptup)
                relations.append(RelationAtom(ctx, rel, args, op.output))
    out = ClassicalTheoryWithRelations(
        csig,
        tuple(relations),
        T.equations,
        name=(T.name or "theory") + "_relational",
    )
    return out, corr


def relational_to_enriched(
    P: ClassicalTheoryWithRelations,
) -> tuple[EnrichedTheory, Correspondence]:
    """Adjoin, per (arity, sort) pair carrying relations, one operation whose
    parameter is the free base model on the structure of occurring terms, and
    equations pinning the new symbols to those terms."""
    if not isinstance(P, ClassicalTheoryWithRelations):
        raise StructureError("free-parameter expansion starts from a relational theory")
    base = P.signature.base

    def build(atoms: list[RelationAtom]):
        terms = list(dict.fromkeys(t for atom in atoms for t in atom.args))
        edges = frozenset((atom.relation, tuple(atom.args)) for atom in atoms)
        model, unit = chase(FinStructure(base.signature, tuple(terms), edges), base)
        return terms, model, unit

    return _expansion(P, P.relations, "sup", "_enriched", "free-parameter expansion", build)


# -- chain-complete translations ---------------------------------------------------

def _maximal_chains(P: FinStructure) -> list[tuple]:
    """All maximal chains of a finite poset, longest-path enumeration over the
    strict covers, in deterministic carrier order."""
    below = {
        x: [y for y in P.carrier if y != x and (LE, (y, x)) in P.edges]
        for x in P.carrier
    }
    above = {
        x: [y for y in P.carrier if y != x and (LE, (x, y)) in P.edges]
        for x in P.carrier
    }
    covers = {
        x: [
            y
            for y in above[x]
            if not any(z in above[x] and y in above[z] for z in P.carrier if z not in (x, y))
        ]
        for x in P.carrier
    }
    minimals = [x for x in P.carrier if not below[x]]
    chains: list[tuple] = []

    def extend(chain: list):
        last = chain[-1]
        if not covers[last]:
            chains.append(tuple(chain))
            return
        for nxt in covers[last]:
            extend(chain + [nxt])

    for m in minimals:
        extend([m])
    return chains


def cpo_enriched_to_classical(
    T: EnrichedTheory,
) -> tuple[ClassicalTheoryWithRelations, Correspondence]:
    """Chain-complete reading of parameter flattening: every maximal chain of
    a parameter becomes an eventually-constant chain relation whose limit is
    the symbol at the chain's top."""
    csig, corr = _flattening(T, "the chain-complete flattening")
    if T.signature.base.name != "pos":
        raise StructureError("chain-complete translation needs the pos base")
    chains: list[ChainRelation] = []
    for op in T.signature.ops:
        for chain in _maximal_chains(op.param):
            ctx, terms = _symbol_terms(op, chain)
            chains.append(
                ChainRelation(ctx, op.output, ExplicitChain(terms), terms[-1])
            )
    out = ClassicalTheoryWithRelations(
        csig,
        (),
        T.equations,
        tuple(chains),
        name=(T.name or "theory") + "_chain_classical",
    )
    return out, corr


def materialize_chain(
    rel: ChainRelation, stabilization_bound: int = 64
) -> list[Term]:
    """The finitely many distinct terms of a schematic chain, in order.
    Iterated chains must stabilize syntactically within the bound."""
    if isinstance(rel.chain, ExplicitChain):
        out = []
        for t in rel.chain.terms:
            if t not in out:
                out.append(t)
        return out
    ctx = rel.context
    hole_ctx = extended_context(ctx, rel.sort)
    idvars = tuple(Var(i) for i in range(len(ctx)))
    current = rel.chain.seed
    seen = [current]
    for _ in range(stabilization_bound):
        nxt = substitute(rel.chain.step, hole_ctx, idvars + (current,))
        if nxt == current:
            return seen
        if nxt in seen:
            return seen
        seen.append(nxt)
        current = nxt
    raise IterationNotStabilized(
        "iterated chain does not stabilize syntactically within the bound"
    )


def cpo_classical_to_enriched(
    P: ClassicalTheoryWithRelations, stabilization_bound: int = 64
) -> tuple[EnrichedTheory, Correspondence]:
    """Adjoin, per (arity, sort) pair carrying chain relations, one operation
    whose parameter is the free chain-complete poset on the occurring terms
    (preordered by chain steps and term-below-limit, with one cover per
    relation), plus equations pinning the new symbols to the terms."""
    if not isinstance(P, ClassicalTheoryWithRelations):
        raise StructureError("the chain-complete expansion starts from a relational theory")
    if P.signature.base.name != "pos":
        raise StructureError("chain-complete translation needs the pos base")

    def build(rels: list[ChainRelation]):
        terms: list[Term] = []
        steps: set[tuple] = set()
        covers: list[tuple] = []
        for rel in rels:
            chain_terms = materialize_chain(rel, stabilization_bound)
            for t in chain_terms + [rel.limit]:
                if t not in terms:
                    terms.append(t)
            for a, b in zip(chain_terms, chain_terms[1:]):
                steps.add((LE, (a, b)))
            for t in chain_terms:
                steps.add((LE, (t, rel.limit)))
            covers.append((rel.limit, tuple(chain_terms)))
        raw = FinStructure(P.signature.base.signature, tuple(terms), frozenset(steps))
        preorder, _ = chase(raw, _PREORD)
        param, unit = free_omega_cpo(CpoPresentation(preorder, tuple(covers)))
        return terms, param, unit

    return _expansion(
        P, P.chain_relations, "lub", "_chain_enriched", "free-completion expansion", build
    )


# -- the verifier -------------------------------------------------------------------

@dataclass
class CarrierRow:
    descriptor: str
    count_left: int
    count_right: int
    bijection: list[tuple[int, int]]
    hom_pairs_checked: int
    ok: bool
    detail: str = ""


@dataclass
class EquivalenceReport:
    rows: list[CarrierRow] = field(default_factory=list)
    label: str = ""

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def to_json(self) -> dict:
        return {
            "schema": "enrvar/equivalence-report@1",
            "label": self.label,
            "pass": self.ok,
            "carriers": [
                {
                    "carrier": r.descriptor,
                    "count_left": r.count_left,
                    "count_right": r.count_right,
                    "bijection": r.bijection,
                    "hom_pairs_checked": r.hom_pairs_checked,
                    "pass": r.ok,
                    "detail": r.detail,
                }
                for r in self.rows
            ],
        }


def _describe_family(fam: Mapping[str, FinStructure]) -> str:
    parts = []
    for s in sorted(fam):
        X = fam[s]
        parts.append(f"{s}:|{len(X.carrier)}|e{len(X.edges)}")
    return ",".join(parts)


def _compare(
    fam: Mapping[str, FinStructure],
    left: list,
    right: list[Algebra],
    forward: Callable[[object], Algebra],
    homs: tuple[Callable, Callable],
    bgt: Budget,
    hom_pair_limit: int | None = None,
    seed: int | None = None,
) -> CarrierRow:
    """The row of one carrier family: equal counts, a bijection that sends
    each left algebra to the right algebra with its image's key (right holds
    every algebra of its theory on the family, so an image outside that
    theory has no partner), and, on every pair (i, j) of left indices
    (at most hom_pair_limit of them: a seeded sample, or else every k-th
    pair for the least stride k that keeps within the limit),
    the left hom structure homs[0](left[i], left[j]) equal to the right one
    homs[1] between their partners."""
    row = CarrierRow(_describe_family(fam), len(left), len(right), [], 0, False)
    if len(left) != len(right):
        row.detail = "algebra counts differ"
        return row
    right_keys = {A.key(): j for j, A in enumerate(right)}
    seen: set[int] = set()
    for i, A in enumerate(left):
        j = right_keys.get(forward(A).key())
        if j is None or j in seen:
            row.detail = f"no fresh partner for algebra {i}"
            return row
        seen.add(j)
        row.bijection.append((i, j))
    partner = [j for _, j in row.bijection]
    pairs = list(itertools.product(range(len(left)), repeat=2))
    if hom_pair_limit is not None and len(pairs) > hom_pair_limit:
        if seed is not None:
            pairs = sorted(random.Random(seed).sample(pairs, hom_pair_limit))
        else:
            pairs = pairs[::math.ceil(len(pairs) / hom_pair_limit)]
    hom_left, hom_right = homs
    for i, j in pairs:
        bgt.charge()
        h1 = hom_left(left[i], left[j])
        h2 = hom_right(right[partner[i]], right[partner[j]])
        if h1.carrier != h2.carrier or h1.edges != h2.edges:
            row.detail = f"hom structures differ at pair ({i},{j})"
            return row
        row.hom_pairs_checked += 1
    row.ok = True
    return row


def verify_theory_equivalence(
    T1: Theory,
    T2: Theory,
    carrier_bound: int,
    correspondence: Correspondence | None = None,
    budget: Budget | int | None = None,
    hom_pair_limit: int = 400,
    seed: int | None = None,
) -> EquivalenceReport:
    """Exhaustively compare the algebra classes of two theories over every
    sort-indexed family of base models up to the carrier bound (one
    representative per isomorphism class): equal counts, an explicit
    carrier-preserving bijection through the correspondence, and isomorphic
    hom structures for all algebra pairs (capped by hom_pair_limit)."""
    sig1 = theory_parts(T1)[0]
    sig2 = theory_parts(T2)[0]
    if sig1.sorts != sig2.sorts or sig1.base != sig2.base:
        raise StructureError("theories must share sorts and base")
    if correspondence is None:
        correspondence = infer_correspondence(T1, T2)
    bgt = ensure_budget(budget)
    report = EquivalenceReport(label=correspondence.label)
    for fam in model_families(sig1.base, sig1.sorts, carrier_bound, budget=bgt):
        left = _enumerate_algebras(T1, fam, bgt)
        right = _enumerate_algebras(T2, fam, bgt)
        report.rows.append(_compare(
            fam, left, right, correspondence.forward, (hom_object, hom_object), bgt,
            hom_pair_limit, seed,
        ))
    return report


def _symbol_names(T: Theory) -> set[str]:
    return {name for name, _, _ in classical_symbols(theory_parts(T)[0])}


def infer_correspondence(T1: Theory, T2: Theory) -> Correspondence:
    """Recognize the standard relationships: identical classical symbols yield
    the identity; a flattened signature yields restriction; an extension by
    generated operations yields the canonical expansion."""
    names1 = _symbol_names(T1)
    names2 = _symbol_names(T2)
    if names1 == names2:
        return identity_correspondence(T1, T2)
    translation = None
    if isinstance(T1, EnrichedTheory) and names2 <= names1:
        # T2 looks like a flattening of T1
        chains = isinstance(T2, ClassicalTheoryWithRelations) and T2.chain_relations
        translation = cpo_enriched_to_classical if chains else enriched_to_relational
    elif isinstance(T1, ClassicalTheoryWithRelations) and names1 <= names2:
        translation = cpo_classical_to_enriched if T1.chain_relations else relational_to_enriched
    if translation is not None:
        cand, corr = translation(T1)
        if _symbol_names(cand) == names2:
            return corr
    raise StructureError(
        "cannot infer an algebra correspondence between these theories; "
        "pass one explicitly"
    )
