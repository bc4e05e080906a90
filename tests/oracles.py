"""Independent oracles: deliberately naive re-implementations used to check
the engine, sharing no code paths with it."""
from __future__ import annotations

import itertools

from enrvar.relcore import EQ, FinStructure

LE = "<="


def naive_satisfies_formula(X, phi) -> bool:
    """All-valuations semantics, no joins, no fast paths."""
    variables = sorted(
        {v for _, tup in phi.premises for v in tup} | set(phi.conclusion[1])
    )
    for values in itertools.product(X.carrier, repeat=len(variables)):
        env = dict(zip(variables, values))
        if any(
            (rel, tuple(env[v] for v in tup)) not in X.edges
            for rel, tup in phi.premises
        ):
            continue
        crel, cvars = phi.conclusion
        inst = tuple(env[v] for v in cvars)
        if crel in (EQ, "=="):
            if inst[0] != inst[1]:
                return False
        elif (crel, inst) not in X.edges:
            return False
    return True


def naive_is_model(X, T) -> bool:
    return all(naive_satisfies_formula(X, ax) for ax in T.axioms)


def brute_morphisms(X, Y) -> list[dict]:
    """Filter every function on edge preservation."""
    out = []
    for images in itertools.product(Y.carrier, repeat=len(X.carrier)):
        f = dict(zip(X.carrier, images))
        if all(
            (rel, tuple(f[x] for x in tup)) in Y.edges for rel, tup in X.edges
        ):
            out.append(f)
    return out


def naive_chase(X, T):
    """Fixpoint by repeated full scans; merges via explicit substitution maps
    rather than union-find."""
    carrier = list(X.carrier)
    edges = set(X.edges)
    unit = {x: x for x in X.carrier}
    while True:
        Xc = FinStructure(T.signature, tuple(carrier), frozenset(edges))
        change = None
        for ax in T.axioms:
            variables = sorted(
                {v for _, tup in ax.premises for v in tup} | set(ax.conclusion[1])
            )
            for values in itertools.product(carrier, repeat=len(variables)):
                env = dict(zip(variables, values))
                if any(
                    (rel, tuple(env[v] for v in tup)) not in edges
                    for rel, tup in ax.premises
                ):
                    continue
                crel, cvars = ax.conclusion
                inst = tuple(env[v] for v in cvars)
                if crel in (EQ, "=="):
                    if inst[0] != inst[1]:
                        change = ("merge", inst)
                        break
                elif (crel, inst) not in edges:
                    change = ("edge", (crel, inst))
                    break
            if change:
                break
        if change is None:
            return FinStructure(T.signature, tuple(carrier), frozenset(edges)), unit
        kind, payload = change
        if kind == "edge":
            edges.add(payload)
        else:
            a, b = payload
            keep, drop = (a, b) if carrier.index(a) < carrier.index(b) else (b, a)
            sub = lambda x: keep if x == drop else x
            carrier = [x for x in carrier if x != drop]
            edges = {(rel, tuple(sub(x) for x in tup)) for rel, tup in edges}
            unit = {x: sub(r) for x, r in unit.items()}


def naive_free_completion(P):
    """Free completion of a presentation by its definition: the least
    preorder containing the presentation's order and, for each cover (p, U),
    the edge p <= m for a greatest element m of U under the order so far,
    re-closed until no cover adds an edge; then the quotient by the symmetric
    part, keeping each class's earliest element.  Returns plain values:
    (carrier tuple, edge set, unit dict)."""
    carrier = P.preorder.carrier
    le = {(a, b) for rel, (a, b) in P.preorder.edges if rel == LE}
    le |= {(x, x) for x in carrier}
    while True:
        for k in carrier:  # Warshall
            for i in carrier:
                for j in carrier:
                    if (i, k) in le and (k, j) in le:
                        le.add((i, j))
        grown = False
        for p, chain in P.covers:
            top = next(u for u in chain if all((v, u) in le for v in chain))
            if (p, top) not in le:
                le.add((p, top))
                grown = True
        if not grown:
            break
    rep = {x: next(y for y in carrier if (x, y) in le and (y, x) in le) for x in carrier}
    kept = tuple(x for x in carrier if rep[x] == x)
    return kept, frozenset((LE, (rep[a], rep[b])) for a, b in le), rep


# -- plain classical universal algebra (for the base = set degeneration) ---------

def plain_eval(tables: dict, term, env: tuple):
    """term is an enrvar syntax term; tables map symbol -> dict."""
    from enrvar.syntax import Var

    if isinstance(term, Var):
        return env[term.index]
    return tables[term.op][tuple(plain_eval(tables, a, env) for a in term.args)]


def plain_satisfies_equation(tables: dict, carriers: dict, eq) -> bool:
    pools = [carriers[s] for _, s in eq.context.entries]
    for env in itertools.product(*pools):
        if plain_eval(tables, eq.lhs, env) != plain_eval(tables, eq.rhs, env):
            return False
    return True


def plain_enumerate_algebras(ops: list, equations: list, carriers: dict) -> list[dict]:
    """ops: (symbol, input sorts tuple, output sort); raw table product with a
    final equation filter."""
    spaces = []
    for symbol, inputs, output in ops:
        points = list(itertools.product(*(carriers[s] for s in inputs)))
        tables = [
            dict(zip(points, images))
            for images in itertools.product(carriers[output], repeat=len(points))
        ]
        spaces.append(tables)
    out = []
    for combo in itertools.product(*spaces):
        tables = {symbol: t for (symbol, _, _), t in zip(ops, combo)}
        if all(plain_satisfies_equation(tables, carriers, eq) for eq in equations):
            out.append(tables)
    return out


def monotone_maps(X, Y) -> list[dict]:
    """All order-preserving maps between table-described posets given as
    FinStructures over a binary <= relation."""
    out = []
    for images in itertools.product(Y.carrier, repeat=len(X.carrier)):
        f = dict(zip(X.carrier, images))
        if all(
            (LE, (f[a], f[b])) in Y.edges
            for rel, (a, b) in X.edges
            if rel == LE
        ):
            out.append(f)
    return out
