"""The four theory translations and the desk-scale equivalence verifier.

Each translation also returns the carrier-preserving algebra correspondence
used by the verifier (restriction one way, canonical expansion the other).
"""
from __future__ import annotations

import itertools
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
    classical_symbol,
    classical_symbols,
    enumerate_algebras,
    hom_object,
    interpret_term,
    ordinary_signature,
    satisfies_theory,
    theory_parts,
)
from .cpo import CpoPresentation, IterationNotStabilized, free_omega_cpo
from .isoenum import model_families
from .relcore import (
    LE,
    FinStructure,
    StructureError,
    builtin_theory,
    chase,
    relabel,
)
from .syntax import (
    App,
    Arity,
    ChainRelation,
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


def identity_correspondence(T1: Theory, T2: Theory) -> Correspondence:
    sig2 = theory_parts(T2)[0]

    def move(A: Algebra) -> Algebra:
        return Algebra(sig2, A.carrier, dict(A.interp))

    sig1 = theory_parts(T1)[0]

    def back(A: Algebra) -> Algebra:
        return Algebra(sig1, A.carrier, dict(A.interp))

    return Correspondence(move, back, "identity")


# -- enriched <-> relational ------------------------------------------------------

def enriched_to_relational(
    T: EnrichedTheory,
) -> tuple[ClassicalTheoryWithRelations, Correspondence]:
    """Flatten parameters into ordinary symbols; each edge of a parameter
    becomes a syntactic relation among the induced symbols."""
    if not isinstance(T, EnrichedTheory):
        raise StructureError("parameter flattening starts from an enriched theory")
    sig = T.signature
    csig = ordinary_signature(
        sig.sorts,
        sig.base,
        [(name, op.inputs, op.output) for name, op, _ in classical_symbols(sig)],
    )
    relations = []
    for op in sig.ops:
        ctx = canonical_context(op.inputs)
        argvars = tuple(Var(i) for i in range(len(ctx)))
        for rel in sig.base.signature.names:
            for ptup in op.param.edges_by_rel[rel]:
                relations.append(
                    RelationAtom(
                        ctx,
                        rel,
                        tuple(App(classical_symbol(op, p), argvars) for p in ptup),
                        op.output,
                    )
                )
    out = ClassicalTheoryWithRelations(
        csig,
        tuple(relations),
        T.equations,
        name=(T.name or "theory") + "_relational",
    )

    def forward(A: Algebra) -> Algebra:
        return Algebra(csig, A.carrier, dict(A.interp))

    def backward(A: Algebra) -> Algebra:
        return Algebra(sig, A.carrier, dict(A.interp))

    return out, Correspondence(forward, backward, "underlying")


def relational_to_enriched(
    P: ClassicalTheoryWithRelations,
) -> tuple[EnrichedTheory, Correspondence]:
    """Adjoin, per (arity, sort) pair carrying relations, one operation whose
    parameter is the free base model on the structure of occurring terms, and
    equations pinning the new symbols to those terms."""
    if not isinstance(P, ClassicalTheoryWithRelations):
        raise StructureError("free-parameter expansion starts from a relational theory")
    sig = P.signature
    base = sig.base
    groups: dict[tuple[Arity, str], list[RelationAtom]] = {}
    for atom in P.relations:
        J = context_arity(sig.sorts, atom.context)
        groups.setdefault((J, atom.sort), []).append(atom)

    new_ops: list[OpDecl] = []
    new_eqs: list[Equation] = []
    expand_plan: list[tuple[str, Arity, dict]] = []
    existing = {op.name for op in sig.ops}
    for (J, S), atoms in sorted(
        groups.items(), key=lambda kv: (kv[0][0].counts, kv[0][1])
    ):
        terms: list[Term] = []
        for atom in atoms:
            for t in atom.args:
                if t not in terms:
                    terms.append(t)
        edges = frozenset(
            (atom.relation, tuple(atom.args)) for atom in atoms
        )
        term_structure = FinStructure(base.signature, tuple(terms), edges)
        model, unit = chase(term_structure, base)
        # parameter elements become printable term strings
        model = relabel(model, {t: str(t) for t in model.carrier})
        opname = f"sup_{J.label()}_{S}"
        while opname in existing:
            opname += "_"
        existing.add(opname)
        op = OpDecl(opname, J, S, model)
        new_ops.append(op)
        ctx = canonical_context(J)
        argvars = tuple(Var(i) for i in range(len(ctx)))
        for t in terms:
            new_eqs.append(
                Equation(ctx, App(classical_symbol(op, str(unit[t])), argvars), t, S)
            )
        expand_plan.append((opname, J, {str(t): t for t in set(unit.values())}))

    out_sig = EnrichedSignature(sig.sorts, base, sig.ops + tuple(new_ops))
    out = EnrichedTheory(
        out_sig,
        P.equations + tuple(new_eqs),
        name=(P.name or "theory") + "_enriched",
    )
    plain_names = {name for name, _, _ in classical_symbols(sig)}

    def forward(A: Algebra) -> Algebra:
        interp = dict(A.interp)
        for opname, J, reps in expand_plan:
            ctx = canonical_context(J)
            op = out_sig.by_name[opname]
            for p in op.param.carrier:
                # class representatives are terms; their tables realize the
                # unique extension through the free model
                interp[classical_symbol(op, p)] = interpret_term(A, ctx, reps[p])
        return Algebra(out_sig, A.carrier, interp)

    def backward(A: Algebra) -> Algebra:
        interp = {k: v for k, v in A.interp.items() if k in plain_names}
        return Algebra(sig, A.carrier, interp)

    return out, Correspondence(forward, backward, "free-parameter expansion")


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
    if not isinstance(T, EnrichedTheory):
        raise StructureError("the chain-complete flattening starts from an enriched theory")
    sig = T.signature
    if sig.base.name != "pos":
        raise StructureError("chain-complete translation needs the pos base")
    csig = ordinary_signature(
        sig.sorts,
        sig.base,
        [(name, op.inputs, op.output) for name, op, _ in classical_symbols(sig)],
    )
    chains: list[ChainRelation] = []
    for op in sig.ops:
        ctx = canonical_context(op.inputs)
        argvars = tuple(Var(i) for i in range(len(ctx)))
        for chain in _maximal_chains(op.param):
            terms = tuple(App(classical_symbol(op, p), argvars) for p in chain)
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

    def forward(A: Algebra) -> Algebra:
        return Algebra(csig, A.carrier, dict(A.interp))

    def backward(A: Algebra) -> Algebra:
        return Algebra(sig, A.carrier, dict(A.interp))

    return out, Correspondence(forward, backward, "underlying")


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
    sig = P.signature
    if sig.base.name != "pos":
        raise StructureError("chain-complete translation needs the pos base")
    groups: dict[tuple[Arity, str], list[ChainRelation]] = {}
    for rel in P.chain_relations:
        J = context_arity(sig.sorts, rel.context)
        groups.setdefault((J, rel.sort), []).append(rel)

    new_ops: list[OpDecl] = []
    new_eqs: list[Equation] = []
    expand_plans: list[tuple[str, dict]] = []
    existing = {op.name for op in sig.ops}
    preord_sig = sig.base.signature
    for (J, S), rels in sorted(
        groups.items(), key=lambda kv: (kv[0][0].counts, kv[0][1])
    ):
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
        raw = FinStructure(preord_sig, tuple(terms), frozenset(steps))
        preorder, _ = chase(raw, builtin_theory("preord"))
        pres = CpoPresentation(preorder, tuple(covers))
        param, unit = free_omega_cpo(pres)
        param = relabel(param, {t: str(t) for t in param.carrier})
        opname = f"lub_{J.label()}_{S}"
        while opname in existing:
            opname += "_"
        existing.add(opname)
        op = OpDecl(opname, J, S, param)
        new_ops.append(op)
        ctx = canonical_context(J)
        argvars = tuple(Var(i) for i in range(len(ctx)))
        for t in terms:
            new_eqs.append(
                Equation(ctx, App(classical_symbol(op, str(unit[t])), argvars), t, S)
            )
        expand_plans.append((opname, {str(t): t for t in set(unit.values())}))

    out_sig = EnrichedSignature(sig.sorts, sig.base, sig.ops + tuple(new_ops))
    out = EnrichedTheory(
        out_sig,
        P.equations + tuple(new_eqs),
        name=(P.name or "theory") + "_chain_enriched",
    )
    plain_names = {name for name, _, _ in classical_symbols(sig)}

    def forward(A: Algebra) -> Algebra:
        interp = dict(A.interp)
        for opname, reps in expand_plans:
            op = out_sig.by_name[opname]
            ctx = canonical_context(op.inputs)
            for p in op.param.carrier:
                interp[classical_symbol(op, p)] = interpret_term(A, ctx, reps[p])
        return Algebra(out_sig, A.carrier, interp)

    def backward(A: Algebra) -> Algebra:
        interp = {k: v for k, v in A.interp.items() if k in plain_names}
        return Algebra(sig, A.carrier, interp)

    return out, Correspondence(forward, backward, "free-completion expansion")


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
        left = enumerate_algebras(T1, fam, bgt)
        right = enumerate_algebras(T2, fam, bgt)
        right_keys = {A.key(): i for i, A in enumerate(right)}
        bijection: list[tuple[int, int]] = []
        ok = len(left) == len(right)
        detail = "" if ok else "algebra counts differ"
        seen: set[int] = set()
        if ok:
            for i, A in enumerate(left):
                image = correspondence.forward(A)
                if not satisfies_theory(image, T2):
                    ok = False
                    detail = f"image of algebra {i} fails the target theory"
                    break
                j = right_keys.get(image.key())
                if j is None or j in seen:
                    ok = False
                    detail = f"no fresh partner for algebra {i}"
                    break
                seen.add(j)
                bijection.append((i, j))
        pairs_checked = 0
        if ok:
            bmap = dict(bijection)
            pairs = list(itertools.product(range(len(left)), repeat=2))
            if len(pairs) > hom_pair_limit:
                if seed is not None:
                    import random

                    pairs = sorted(random.Random(seed).sample(pairs, hom_pair_limit))
                else:
                    step = max(1, len(pairs) // hom_pair_limit)
                    pairs = pairs[::step]
            for i, j in pairs:
                bgt.charge()
                h1 = hom_object(left[i], left[j])
                h2 = hom_object(right[bmap[i]], right[bmap[j]])
                if h1.carrier != h2.carrier or h1.edges != h2.edges:
                    ok = False
                    detail = f"hom structures differ at pair ({i},{j})"
                    break
                pairs_checked += 1
        report.rows.append(
            CarrierRow(
                _describe_family(fam),
                len(left),
                len(right),
                bijection,
                pairs_checked,
                ok,
                detail,
            )
        )
    return report


def infer_correspondence(T1: Theory, T2: Theory) -> Correspondence:
    """Recognize the standard relationships: identical classical symbols yield
    the identity; a flattened signature yields restriction; an extension by
    generated operations yields the canonical expansion."""
    names1 = {name for name, _, _ in classical_symbols(theory_parts(T1)[0])}
    names2 = {name for name, _, _ in classical_symbols(theory_parts(T2)[0])}
    if names1 == names2:
        return identity_correspondence(T1, T2)
    if isinstance(T1, EnrichedTheory) and names2 <= names1:
        # T2 looks like a flattening of T1
        if isinstance(T2, ClassicalTheoryWithRelations) and T2.chain_relations:
            cand, corr = cpo_enriched_to_classical(T1)
        else:
            cand, corr = enriched_to_relational(T1)
        if {n for n, _, _ in classical_symbols(theory_parts(cand)[0])} == names2:
            return corr
    if isinstance(T1, ClassicalTheoryWithRelations) and names1 <= names2:
        if T1.chain_relations:
            cand, corr = cpo_classical_to_enriched(T1)
        else:
            cand, corr = relational_to_enriched(T1)
        if {n for n, _, _ in classical_symbols(theory_parts(cand)[0])} == names2:
            return corr
    raise StructureError(
        "cannot infer an algebra correspondence between these theories; "
        "pass one explicitly"
    )
