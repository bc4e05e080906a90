"""Independent oracles: deliberately naive re-implementations used to check
the engine, sharing no code paths with it."""
from __future__ import annotations

import itertools

from enrvar.relcore import EQ, FinStructure, HornFormula, HornTheory, RelSignature, reflexivity_formula

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


def exp_edge_holds(X, Y, rel, fs) -> bool:
    """Edge test of the exponential [X, Y] for one family: fs are image
    tuples over the carrier order of X; the edge holds iff every rel-edge of
    X maps to a rel-edge of Y componentwise."""
    return all(
        (rel, tuple(f[X.index[x]] for f, x in zip(fs, tup))) in Y.edges
        for r, tup in X.edges
        if r == rel
    )


def _matches(premises, edges_by_rel, env):
    """Every extension of the valuation env that makes each of premises an
    edge, by scanning the edges of its relation once per premise."""
    if not premises:
        yield env
        return
    (rel, tup), *rest = premises
    for e in edges_by_rel.get(rel, ()):
        ext = dict(env)
        if all(ext.setdefault(v, x) == x for v, x in zip(tup, e)):
            yield from _matches(rest, edges_by_rel, ext)


def naive_chase(X, T):
    """Fixpoint by repeated full scans, one change per scan; merges via
    explicit substitution maps rather than union-find.  A scan matches each
    axiom's premises edge by edge and ranges its other conclusion variables
    over the carrier."""
    carrier = list(X.carrier)
    edges = set(X.edges)
    unit = {x: x for x in X.carrier}
    while True:
        by_rel: dict = {}
        for rel, tup in edges:
            by_rel.setdefault(rel, []).append(tup)
        change = None
        for ax in T.axioms:
            crel, cvars = ax.conclusion
            for env in _matches(sorted(ax.premises, key=repr), by_rel, {}):
                free = [v for v in dict.fromkeys(cvars) if v not in env]
                for values in itertools.product(carrier, repeat=len(free)):
                    full = {**env, **dict(zip(free, values))}
                    inst = tuple(full[v] for v in cvars)
                    if crel in (EQ, "=="):
                        if inst[0] != inst[1]:
                            change = ("merge", inst)
                            break
                    elif (crel, inst) not in edges:
                        change = ("edge", (crel, inst))
                        break
                if change:
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


def naive_structures(signature, size, up_to_iso=True) -> list:
    """Every structure on x0 ... x(size-1) by its edge mask, in increasing
    order, bit b standing for the b-th slot (relations in signature order,
    then tuples in product order); up to isomorphism, a class keeps its
    least mask."""
    carrier = tuple(f"x{i}" for i in range(size))
    slots = [
        (rel, tup)
        for rel, ar in signature.symbols
        for tup in itertools.product(range(size), repeat=ar)
    ]
    bit = {s: b for b, s in enumerate(slots)}
    tables = [
        [bit[rel, tuple(p[i] for i in tup)] for rel, tup in slots]
        for p in itertools.permutations(range(size))
    ]
    out = []
    for mask in range(1 << len(slots)):
        present = [b for b in range(len(slots)) if mask >> b & 1]
        if up_to_iso and any(sum(1 << t[b] for b in present) < mask for t in tables):
            continue
        out.append(FinStructure(signature, carrier, frozenset(
            (slots[b][0], tuple(carrier[i] for i in slots[b][1])) for b in present
        )))
    return out


def naive_models(T, size, up_to_iso=True) -> list:
    """The models of T on x0 ... x(size-1), one per isomorphism class when
    up_to_iso: naive_structures filtered by naive_is_model.  For qcat(Q)
    they are instead the tables of off-diagonal per-pair values of Q, in the
    product order of Q's elements, kept when the diagonal is top and
    d(i, j) /\\ d(j, k) <= d(i, k) everywhere; a class keeps the first table
    that reaches it, by the least sorted edge list over all relabellings."""
    q = T.qcat_lattice
    if q is None:
        return [X for X in naive_structures(T.signature, size, up_to_iso) if naive_is_model(X, T)]
    carrier = tuple(f"x{i}" for i in range(size))
    perms = list(itertools.permutations(range(size)))
    pairs = [(i, j) for i in range(size) for j in range(size) if i != j]
    seen = set()
    out = []
    for combo in itertools.product(q.elements, repeat=len(pairs)):
        d = dict(zip(pairs, combo))
        d.update({(i, i): q.top for i in range(size)})
        if not all(
            q.leq(q.meet_table[d[i, j], d[j, k]], d[i, k])
            for i, j, k in itertools.product(range(size), repeat=3)
        ):
            continue
        edges = [(q.rel_name(e), (i, j)) for (i, j), v in d.items() for e in q.elements if q.leq(e, v)]
        if up_to_iso:
            key = min(tuple(sorted((rel, (p[i], p[j])) for rel, (i, j) in edges)) for p in perms)
            if key in seen:
                continue
            seen.add(key)
        out.append(FinStructure(T.signature, carrier, frozenset(
            (rel, (carrier[i], carrier[j])) for rel, (i, j) in edges
        )))
    return out


def naive_simp_axioms(n) -> HornTheory:
    """simp(n) with every derived axiom written out: the n reflexivities and
    one axiom R_m(v) => R_k(v o h) per map h : [k] -> [m], k, m <= n."""
    sig = RelSignature(tuple((f"R{k}", k) for k in range(1, n + 1)))
    axioms = [reflexivity_formula(f"R{k}", k) for k in range(1, n + 1)]
    for m in range(1, n + 1):
        pvars = tuple(f"v{i}" for i in range(1, m + 1))
        for k in range(1, n + 1):
            for h in itertools.product(range(m), repeat=k):
                axioms.append(HornFormula(
                    frozenset({(f"R{m}", pvars)}),
                    (f"R{k}", tuple(pvars[i] for i in h)),
                ))
    return HornTheory(sig, tuple(axioms), name=f"naive simp({n})")


def naive_qcat_axioms(q) -> HornTheory:
    """qcat(Q) with every derived axiom written out: reflexivity, downward
    closure for each b <= a, one sup axiom per subset of Q (the empty one
    included) and meet-transitivity for each pair, without repeats."""
    elems = q.elements
    sig = RelSignature(tuple((q.rel_name(e), 2) for e in elems))
    axioms = [reflexivity_formula(q.rel_name(e), 2) for e in elems]
    for a in elems:
        for b in elems:
            if a != b and q.leq(b, a):
                axioms.append(HornFormula(
                    frozenset({(q.rel_name(a), ("v1", "v2"))}),
                    (q.rel_name(b), ("v1", "v2")),
                ))
    for r in range(len(elems) + 1):
        for subset in itertools.combinations(elems, r):
            prem = frozenset({(q.rel_name(e), ("v1", "v2")) for e in subset})
            axioms.append(HornFormula(prem, (q.rel_name(q.join_of(subset)), ("v1", "v2"))))
    for a in elems:
        for b in elems:
            axioms.append(HornFormula(
                frozenset({(q.rel_name(a), ("v1", "v2")), (q.rel_name(b), ("v2", "v3"))}),
                (q.rel_name(q.meet_table[a, b]), ("v1", "v3")),
            ))
    return HornTheory(sig, tuple(dict.fromkeys(axioms)), name=f"naive qcat[{','.join(elems)}]")
