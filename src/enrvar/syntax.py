"""Sorted syntax: sorts, arities, contexts, terms, equations, relation atoms,
and schematic chain relations."""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Union

from .relcore import StructureError


class SortError(StructureError):
    """Base class for sort-checking failures."""


class UnknownOperation(SortError):
    pass


class ArityMismatch(SortError):
    pass


class SortMismatch(SortError):
    pass


class VariableOutOfRange(SortError):
    pass


@dataclass(frozen=True)
class SortSet:
    sorts: tuple[str, ...]

    def __post_init__(self):
        if not self.sorts:
            raise StructureError("a sort set must be nonempty")
        if len(set(self.sorts)) != len(self.sorts):
            raise StructureError("sort names must be pairwise distinct")

    @cached_property
    def position(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.sorts)}


@dataclass(frozen=True)
class Arity:
    """Finite-support input declaration: (sort, count) pairs with count > 0,
    stored in sort-set order."""

    counts: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        names = [s for s, _ in self.counts]
        if len(set(names)) != len(names):
            raise StructureError("arity mentions a sort twice")
        if any(n <= 0 for _, n in self.counts):
            raise StructureError("zero entries are omitted from arities")

    @staticmethod
    def of(sorts: SortSet, counts: Mapping[str, int]) -> "Arity":
        for s in counts:
            if s not in sorts.position:
                raise StructureError(f"arity uses unknown sort {s!r}")
        ordered = tuple(
            (s, counts[s]) for s in sorts.sorts if counts.get(s, 0) > 0
        )
        return Arity(ordered)

    def total(self) -> int:
        return sum(n for _, n in self.counts)

    def flat_sorts(self) -> tuple[str, ...]:
        return tuple(
            s for s, n in self.counts for _ in range(n)
        )

    def label(self) -> str:
        if not self.counts:
            return "0"
        return "".join(f"{s}{n}" for s, n in self.counts)


@dataclass(frozen=True)
class Context:
    """A finite list of (variable name, sort) pairs with distinct names."""

    entries: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        names = [v for v, _ in self.entries]
        if len(set(names)) != len(names):
            raise StructureError("context variable names must be distinct")

    @cached_property
    def name_index(self) -> dict[str, int]:
        return {v: i for i, (v, _) in enumerate(self.entries)}

    def sort_of(self, i: int) -> str:
        return self.entries[i][1]

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class Var:
    index: int

    def __str__(self) -> str:
        # canonical-context variable names; contexts with other names render
        # through dsl._fmt_term instead
        return f"v{self.index + 1}"


@dataclass(frozen=True)
class App:
    op: str
    args: tuple = ()

    def __str__(self) -> str:
        if not self.args:
            return self.op
        return f"{self.op}({','.join(str(a) for a in self.args)})"


Term = Union[Var, App]


@dataclass(frozen=True)
class ClassicalSignature:
    """Ordinary operation symbols: name, input arity, output sort."""

    sorts: SortSet
    ops: tuple[tuple[str, Arity, str], ...] = ()

    def __post_init__(self):
        names = [n for n, _, _ in self.ops]
        if len(set(names)) != len(names):
            raise StructureError("operation names must be pairwise distinct")
        for name, ar, out in self.ops:
            if out not in self.sorts.position:
                raise StructureError(f"operation {name!r} has unknown output sort")
            for s, _ in ar.counts:
                if s not in self.sorts.position:
                    raise StructureError(f"operation {name!r} has unknown input sort")

    @cached_property
    def by_name(self) -> dict[str, tuple[Arity, str]]:
        return {n: (ar, out) for n, ar, out in self.ops}


def check_term(sig: ClassicalSignature, ctx: Context, t: Term) -> str:
    """The sort of t in ctx, by structural recursion; raises on ill-formed terms."""
    if isinstance(t, Var):
        if not 0 <= t.index < len(ctx):
            raise VariableOutOfRange(f"variable index {t.index} out of range")
        return ctx.sort_of(t.index)
    info = sig.by_name.get(t.op)
    if info is None:
        raise UnknownOperation(f"unknown operation {t.op!r}")
    arity, out = info
    expected = arity.flat_sorts()
    if len(t.args) != len(expected):
        raise ArityMismatch(
            f"{t.op!r} expects {len(expected)} arguments, got {len(t.args)}"
        )
    for arg, want in zip(t.args, expected):
        got = check_term(sig, ctx, arg)
        if got != want:
            raise SortMismatch(f"argument of {t.op!r} has sort {got}, expected {want}")
    return out


def substitute(
    t: Term,
    ctx: Context,
    assignment: tuple,
    sig: ClassicalSignature | None = None,
    target: Context | None = None,
) -> Term:
    """Capture-free simultaneous substitution of assignment terms (over the
    target context) for the variables of ctx.  Sorts are validated when a
    signature and target context are supplied."""
    if len(assignment) != len(ctx):
        raise ArityMismatch("assignment length differs from the context")
    if sig is not None and target is not None:
        for (name, want), s in zip(ctx.entries, assignment):
            got = check_term(sig, target, s)
            if got != want:
                raise SortMismatch(f"substitution for {name!r} has sort {got}, expected {want}")

    def go(u: Term) -> Term:
        if isinstance(u, Var):
            return assignment[u.index]
        return App(u.op, tuple(go(a) for a in u.args))

    return go(t)


def canonical_context(J: Arity) -> Context:
    """Deterministic context for an arity: v1, v2, ... flattened in
    sort-then-position order."""
    entries = []
    k = 1
    for s, n in J.counts:
        for _ in range(n):
            entries.append((f"v{k}", s))
            k += 1
    return Context(tuple(entries))


def context_arity(sorts: SortSet, ctx: Context) -> Arity:
    counts: dict[str, int] = {}
    for _, s in ctx.entries:
        counts[s] = counts.get(s, 0) + 1
    return Arity.of(sorts, counts)


@dataclass(frozen=True)
class Equation:
    context: Context
    lhs: Term
    rhs: Term
    sort: str
    name: str | None = None


@dataclass(frozen=True)
class RelationAtom:
    context: Context
    relation: str
    args: tuple
    sort: str
    name: str | None = None


@dataclass(frozen=True)
class ExplicitChain:
    """Eventually constant chain given by its distinct prefix; everything
    beyond the listed terms equals the last entry."""

    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise StructureError("an explicit chain needs at least one term")


@dataclass(frozen=True)
class IteratedChain:
    """Chain t, step[t], step[step[t]], ...; the step term lives over the
    context extended by one final hole variable of the chain's sort."""

    seed: Term
    step: Term


@dataclass(frozen=True)
class ChainRelation:
    context: Context
    sort: str
    chain: ExplicitChain | IteratedChain
    limit: Term
    name: str | None = None


def validate_equation(sig: ClassicalSignature, eq: Equation) -> None:
    for side, label in ((eq.lhs, "left"), (eq.rhs, "right")):
        got = check_term(sig, eq.context, side)
        if got != eq.sort:
            raise SortMismatch(f"{label} side of equation has sort {got}, expected {eq.sort}")


def validate_relation_atom(
    sig: ClassicalSignature, base_arity: Mapping[str, int], atom: RelationAtom
) -> None:
    if atom.relation not in base_arity:
        raise StructureError(f"relation {atom.relation!r} is not in the base signature")
    if len(atom.args) != base_arity[atom.relation]:
        raise ArityMismatch(
            f"relation {atom.relation!r} expects {base_arity[atom.relation]} arguments"
        )
    for arg in atom.args:
        got = check_term(sig, atom.context, arg)
        if got != atom.sort:
            raise SortMismatch(f"relation argument has sort {got}, expected {atom.sort}")


def validate_chain_relation(sig: ClassicalSignature, rel: ChainRelation) -> None:
    if isinstance(rel.chain, ExplicitChain):
        for t in rel.chain.terms:
            got = check_term(sig, rel.context, t)
            if got != rel.sort:
                raise SortMismatch("chain term has the wrong sort")
    else:
        got = check_term(sig, rel.context, rel.chain.seed)
        if got != rel.sort:
            raise SortMismatch("chain seed has the wrong sort")
        hole_ctx = extended_context(rel.context, rel.sort)
        got = check_term(sig, hole_ctx, rel.chain.step)
        if got != rel.sort:
            raise SortMismatch("chain step has the wrong sort")
    got = check_term(sig, rel.context, rel.limit)
    if got != rel.sort:
        raise SortMismatch("chain limit has the wrong sort")


def extended_context(ctx: Context, sort: str) -> Context:
    hole = "_hole"
    while any(v == hole for v, _ in ctx.entries):
        hole += "_"
    return Context(ctx.entries + ((hole, sort),))


def term_ops(t: Term) -> set[str]:
    if isinstance(t, Var):
        return set()
    out = {t.op}
    for a in t.args:
        out |= term_ops(a)
    return out


def term_depth(t: Term) -> int:
    if isinstance(t, Var):
        return 0
    if not t.args:
        return 1
    return 1 + max(term_depth(a) for a in t.args)


def all_terms(sig: ClassicalSignature, ctx: Context, sort: str, depth: int) -> list[Term]:
    """All terms of the given sort in ctx, up to the given depth, in a
    deterministic order (variables first, then by operation declaration)."""
    by_depth: dict[int, dict[str, list[Term]]] = {}
    by_depth[0] = {s: [] for s in sig.sorts.sorts}
    for i, (_, s) in enumerate(ctx.entries):
        by_depth[0][s].append(Var(i))
    pool: dict[str, list[Term]] = {s: list(v) for s, v in by_depth[0].items()}
    for d in range(1, depth + 1):
        layer: dict[str, list[Term]] = {s: [] for s in sig.sorts.sorts}
        for name, ar, out in sig.ops:
            slots = ar.flat_sorts()
            for args in itertools.product(*(pool[s] for s in slots)):
                t = App(name, tuple(args))
                if max((term_depth(a) for a in args), default=0) == d - 1:
                    layer[out].append(t)
        for s in sig.sorts.sorts:
            pool[s].extend(layer[s])
    return pool[sort]
