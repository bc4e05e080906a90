"""Independent oracles for the benchmark's outputs.

Every check here is a deliberately plain re-implementation: brute-force map
counting over every function, a backtracking valuation search, closure by
graph search and a naive rule-application fixpoint.  Nothing here calls into
enrvar; the checks read only the plain fields of its values (carriers, edges,
axioms, terms and tables), so a fault in the engine cannot hide itself by
also breaking its oracle.

Each check returns a list of problems; an empty list means the output passed.
"""
from __future__ import annotations

import itertools

LE = "<="
EQ_SPELLINGS = ("≐", "==")


# -- maps and counts -------------------------------------------------------------

def preserves_edges(f, edges, target_edges) -> bool:
    return all((rel, tuple(f[x] for x in tup)) in target_edges for rel, tup in edges)


def hom_count(carrier, edges, target_carrier, target_edges) -> int:
    """Edge-preserving maps, counted by trying every function."""
    edges = list(edges)
    count = 0
    for images in itertools.product(target_carrier, repeat=len(carrier)):
        f = dict(zip(carrier, images))
        if preserves_edges(f, edges, target_edges):
            count += 1
    return count


def structure_hom_count(X, Y) -> int:
    return hom_count(X.carrier, X.edges, Y.carrier, Y.edges)


def pair_product(Z, X):
    """Carrier and edges of Z x X, built componentwise from the edge sets."""
    carrier = tuple((z, x) for z in Z.carrier for x in X.carrier)
    edges = set()
    for rel, ztup in Z.edges:
        for rel2, xtup in X.edges:
            if rel2 == rel and len(xtup) == len(ztup):
                edges.add((rel, tuple(zip(ztup, xtup))))
    return carrier, frozenset(edges)


# -- valuations and model checks -------------------------------------------------

def _variables(premises, conclusion) -> list:
    out: list = []
    for _, tup in sorted(premises):
        for v in tup:
            if v not in out:
                out.append(v)
    for v in conclusion[1]:
        if v not in out:
            out.append(v)
    return out


def valuations(carrier, edges, premises, variables):
    """Every assignment of the variables to carrier elements that makes each
    premise an edge.  The variables of the widest premise are read off each
    of its edges in turn; every other variable then ranges over the whole
    carrier, and a branch is dropped once a premise with all its variables
    bound fails."""
    premises = sorted(premises)
    seed = max(premises, key=lambda p: len(set(p[1])), default=None)
    bound_first = list(dict.fromkeys(seed[1])) if seed else []
    rest = [v for v in variables if v not in bound_first]
    order = bound_first + rest
    pos = {v: i for i, v in enumerate(order)}
    ready: list[list] = [[] for _ in range(len(rest) + 1)]
    for rel, tup in premises:
        last = max((pos[v] for v in tup), default=-1)
        ready[max(0, last - len(bound_first) + 1)].append((rel, tup))

    def holds(due, env):
        return all((rel, tuple(env[u] for u in tup)) in edges for rel, tup in due)

    def extend(k, env):
        if k == len(rest):
            yield dict(env)
            return
        v = rest[k]
        for x in carrier:
            env[v] = x
            if holds(ready[k + 1], env):
                yield from extend(k + 1, env)
        env.pop(v, None)

    if seed is None:
        starts = [{}]
    else:
        srel, svars = seed
        starts = []
        for rel, tup in edges:
            if rel != srel or len(tup) != len(svars):
                continue
            env: dict = {}
            if all(env.setdefault(v, x) == x for v, x in zip(svars, tup)):
                starts.append(env)
    for env in starts:
        if holds(ready[0], env):
            yield from extend(0, env)


def formula_failures(carrier, edges, formula) -> int:
    """Number of valuations that satisfy the premises but not the conclusion."""
    crel, cvars = formula.conclusion
    bad = 0
    for env in valuations(carrier, edges, formula.premises, _variables(formula.premises, formula.conclusion)):
        inst = tuple(env[v] for v in cvars)
        if crel in EQ_SPELLINGS:
            bad += inst[0] != inst[1]
        else:
            bad += (crel, inst) not in edges
    return bad


def model_problems(X, T, label="structure") -> list[str]:
    return [
        f"{label} breaks axiom {i} at {n} valuation(s)"
        for i, ax in enumerate(T.axioms)
        if (n := formula_failures(X.carrier, X.edges, ax))
    ]


def naive_fixpoint(carrier, edges, T) -> frozenset:
    """Apply every axiom to every satisfying valuation until nothing changes.
    Only for theories without equality conclusions."""
    edges = set(edges)
    changed = True
    while changed:
        changed = False
        for ax in T.axioms:
            crel, cvars = ax.conclusion
            if crel in EQ_SPELLINGS:
                raise ValueError("naive_fixpoint takes no equality axioms")
            frozen = frozenset(edges)
            for env in valuations(carrier, frozen, ax.premises, _variables(ax.premises, ax.conclusion)):
                e = (crel, tuple(env[v] for v in cvars))
                if e not in edges:
                    edges.add(e)
                    changed = True
    return frozenset(edges)


def reflexive_transitive_closure(carrier, pairs) -> set:
    """Reachability by depth-first search from every element."""
    succ = {x: set() for x in carrier}
    for a, b in pairs:
        succ[a].add(b)
    out = set()
    for x in carrier:
        seen = {x}
        stack = [x]
        while stack:
            y = stack.pop()
            for z in succ[y]:
                if z not in seen:
                    seen.add(z)
                    stack.append(z)
        out.update((x, y) for y in seen)
    return out


def le_pairs(X) -> list:
    return [tup for rel, tup in X.edges if rel == LE]


def poset_problems(carrier, edges) -> list[str]:
    """Reflexive, transitive and antisymmetric, checked directly."""
    le = {tup for rel, tup in edges if rel == LE}
    out = []
    if any((x, x) not in le for x in carrier):
        out.append("order is not reflexive")
    if any((a, c) not in le for a, b in le for b2, c in le if b == b2):
        out.append("order is not transitive")
    if any(a != b and (b, a) in le for a, b in le):
        out.append("order is not antisymmetric")
    return out


# -- the chase ---------------------------------------------------------------------

def unit_problems(X, model, unit) -> list[str]:
    out = []
    members = set(model.carrier)
    if set(unit) != set(X.carrier) or any(unit[x] not in members for x in X.carrier):
        return ["unit is not a total map into the model"]
    if not preserves_edges(unit, X.edges, model.edges):
        out.append("unit is not a morphism")
    if set(unit.values()) != members:
        out.append("unit is not surjective")
    return out


def chase_problems(X, T, model, unit, kind: str) -> list[str]:
    """kind: "preord", "pos", or "fixpoint" for theories with no equality
    axioms (simp, qcat).  For "fixpoint" a result whose edges equal the naive
    fixpoint's needs no separate model check: the fixpoint's last pass found
    every axiom satisfied on exactly those edges."""
    out = unit_problems(X, model, unit)
    if kind != "fixpoint":
        out += model_problems(model, T, "chase result")
    if out:
        return out
    if kind == "pos":
        closure = reflexive_transitive_closure(X.carrier, le_pairs(X))
        rep = {}
        for x in X.carrier:
            rep[x] = next(y for y in X.carrier if (x, y) in closure and (y, x) in closure)
        carrier = tuple(x for x in X.carrier if rep[x] == x)
        edges = {(LE, (rep[a], rep[b])) for a, b in closure}
    elif kind == "preord":
        rep = {x: x for x in X.carrier}
        carrier = X.carrier
        edges = {(LE, p) for p in reflexive_transitive_closure(X.carrier, le_pairs(X))}
    else:
        rep = {x: x for x in X.carrier}
        carrier = X.carrier
        edges = naive_fixpoint(X.carrier, X.edges, T)
        if set(model.edges) != edges:
            out += model_problems(model, T, "chase result")
    if tuple(model.carrier) != tuple(carrier):
        out.append(f"carrier {len(model.carrier)} elements, expected {len(carrier)}")
    if dict(unit) != rep:
        out.append("unit differs from the expected class representatives")
    if set(model.edges) != set(edges):
        missing = len(set(edges) - set(model.edges))
        extra = len(set(model.edges) - set(edges))
        out.append(f"edges differ from the oracle: {missing} missing, {extra} extra")
    return out


def reflection_problems(X, model, targets, direct_counts, chased_counts) -> list[str]:
    """|Hom(X, M)| = |Hom(chase X, M)| for every target model M, by brute
    force, and the program's counts agree."""
    out = []
    for M, d, c in zip(targets, direct_counts, chased_counts, strict=True):
        want = structure_hom_count(X, M)
        if want != structure_hom_count(model, M):
            out.append("restriction along the unit is not a bijection")
        if d != want or c != want:
            out.append(f"hom counts {d}/{c}, brute force {want}")
    return out


# -- exponentials and currying -------------------------------------------------------

def exponential_problems(X, Y, T, E) -> list[str]:
    out = []
    n = structure_hom_count(X, Y)
    if len(E.carrier) != n or len(set(E.carrier)) != n:
        out.append(f"|[X,Y]| = {len(E.carrier)}, brute force {n}")
    out += model_problems(E, T, "exponential")
    return out


def currying_problems(Z, X, Y, E, triples) -> list[str]:
    """triples: (f, curry f, uncurry curry f) for every f in Hom(Z x X, Y)."""
    out = []
    carrier, edges = pair_product(Z, X)
    n = hom_count(carrier, edges, Y.carrier, Y.edges)
    if len(triples) != n:
        out.append(f"|Hom(ZxX, Y)| = {len(triples)}, brute force {n}")
    if hom_count(Z.carrier, Z.edges, E.carrier, E.edges) != n:
        out.append("|Hom(Z, [X,Y])| differs from |Hom(ZxX, Y)|")
    seen_f, seen_g = set(), set()
    for f, g, back in triples:
        if set(f) != set(carrier) or not preserves_edges(f, edges, Y.edges):
            out.append("an enumerated map is not a morphism Z x X -> Y")
            break
        if back != f:
            out.append("uncurry(curry(f)) != f")
            break
        seen_f.add(frozenset(f.items()))
        seen_g.add(frozenset(g.items()))
    if len(seen_f) != len(triples) or len(seen_g) != len(triples):
        out.append("enumerated or curried maps are not pairwise distinct")
    return out


# -- free completions ---------------------------------------------------------------

def _is_chain(le, items) -> bool:
    return all((a, b) in le or (b, a) in le for a, b in itertools.combinations(items, 2))


def _top(le, items):
    return next((u for u in items if all((v, u) in le for v in items)), None)


def presentation_morphism_count(P, X) -> int:
    """Monotone maps that send every cover p <| U to p' below the top of the
    image chain, by trying every function."""
    le = {tup for rel, tup in X.edges if rel == LE}
    count = 0
    pairs = le_pairs(P.preorder)
    for images in itertools.product(X.carrier, repeat=len(P.preorder.carrier)):
        f = dict(zip(P.preorder.carrier, images))
        if any((f[a], f[b]) not in le for a, b in pairs):
            continue
        ok = True
        for p, chain in P.covers:
            image = tuple(f[u] for u in chain)
            top = _top(le, image)
            if not _is_chain(le, image) or top is None or (f[p], top) not in le:
                ok = False
                break
        count += ok
    return count


def free_completion(P):
    """(carrier, order pairs, unit) of the free completion, rebuilt from its
    definition: close the order, put each cover's element below the current
    top of its chain, repeat until nothing is added, then collapse the
    symmetric part onto the earliest element of each class."""
    carrier = P.preorder.carrier
    le = reflexive_transitive_closure(carrier, le_pairs(P.preorder))
    while True:
        extra = {(p, _top(le, chain)) for p, chain in P.covers} - le
        if not extra:
            break
        le = reflexive_transitive_closure(carrier, le | extra)
    rep = {x: next(y for y in carrier if (x, y) in le and (y, x) in le) for x in carrier}
    kept = tuple(x for x in carrier if rep[x] == x)
    return kept, {(rep[a], rep[b]) for a, b in le}, rep


def completion_problems(P, completion, unit, targets, program_counts) -> list[str]:
    """The completion is a poset, equal to the one rebuilt by free_completion;
    the unit is monotone and preserves covers; and presentation morphisms
    P -> X biject with Hom(completion, X) for every X in targets."""
    out = poset_problems(completion.carrier, completion.edges)
    carrier, order, rep = free_completion(P)
    if tuple(completion.carrier) != carrier or dict(unit) != rep:
        out.append("carrier or unit differs from the rebuilt completion")
    if {tup for rel, tup in completion.edges if rel == LE} != order:
        out.append("order differs from the rebuilt completion")
    le = {tup for rel, tup in completion.edges if rel == LE}
    members = set(completion.carrier)
    if set(unit) != set(P.preorder.carrier) or any(unit[x] not in members for x in unit):
        return out + ["unit is not a total map into the completion"]
    if any((unit[a], unit[b]) not in le for a, b in le_pairs(P.preorder)):
        out.append("unit is not monotone")
    for p, chain in P.covers:
        image = tuple(unit[u] for u in chain)
        top = _top(le, image)
        if not _is_chain(le, image) or top is None or (unit[p], top) not in le:
            out.append("unit does not preserve a cover")
            break
    for X, (pres_count, comp_count) in zip(targets, program_counts, strict=True):
        want = presentation_morphism_count(P, X)
        if structure_hom_count(completion, X) != want:
            out.append("presentation morphisms do not biject with Hom(completion, X)")
        if pres_count != want or comp_count != want:
            out.append(f"counts {pres_count}/{comp_count}, brute force {want}")
    return out


# -- algebras -------------------------------------------------------------------------

def plain_eval(tables, term, env):
    """Evaluate an enrvar term (Var.index / App.op, App.args) by table lookup."""
    if hasattr(term, "index"):
        return env[term.index]
    return tables[term.op][tuple(plain_eval(tables, a, env) for a in term.args)]


def free_class_count(theory: str, n: int) -> int:
    """Closed forms for the free algebras the benchmark builds."""
    return {
        "semilattice": 2**n - 1,
        "left_zero": n,
        "involution": 2 * n,
        "idempotent_map": 2 * n,
        # the free band on two generators is {a, b, ab, ba, aba, bab}; over a
        # preorder base the relation adds edges but identifies nothing
        "band": {1: 1, 2: 6}.get(n),
        "ordered_band": {1: 1, 2: 6}.get(n),
    }[theory]


def free_algebra_problems(theory: str, n: int, T, result) -> list[str]:
    """Class count against its closed form, saturation, and every equation
    and relation of T under a plain table evaluator."""
    out = []
    expected = free_class_count(theory, n)
    if result.class_count != expected:
        out.append(f"{theory} on {n}: {result.class_count} classes, expected {expected}")
    if not result.saturated:
        out.append("free algebra is not saturated")
    (sort,) = result.algebra.carrier
    X = result.algebra.carrier[sort]
    if len(X.carrier) != expected:
        out.append(f"carrier has {len(X.carrier)} elements, expected {expected}")
    tables = result.algebra.interp
    for eq in T.equations:
        for env in itertools.product(X.carrier, repeat=len(eq.context.entries)):
            if plain_eval(tables, eq.lhs, env) != plain_eval(tables, eq.rhs, env):
                out.append(f"equation fails in the free algebra at {env}")
                break
    for atom in getattr(T, "relations", ()):
        for env in itertools.product(X.carrier, repeat=len(atom.context.entries)):
            inst = tuple(plain_eval(tables, a, env) for a in atom.args)
            if (atom.relation, inst) not in X.edges:
                out.append("relation fails in the free algebra")
                break
    return out


def _term_eval(tables, term, env):
    """Evaluate a spec term: an int is a variable, a tuple (op, *args) an
    application."""
    if isinstance(term, int):
        return env[term]
    return tables[term[0]][tuple(_term_eval(tables, a, env) for a in term[1:])]


def small_posets():
    """Every poset on at most two elements, keyed like the verifier's carrier
    rows: (size, number of order edges)."""
    return {
        (0, 0): ((), set()),
        (1, 1): ((0,), {(0, 0)}),
        (2, 2): ((0, 1), {(0, 0), (1, 1)}),
        (2, 3): ((0, 1), {(0, 0), (1, 1), (0, 1)}),
    }


def brute_algebra_count(spec, carrier, le) -> int:
    """All monotone tables for every symbol of the spec, filtered by its
    equations, its inequations and its parameter order, each checked
    pointwise (for monotone tables that is the internal-hom order)."""
    spaces = []
    for symbol, arity in spec["symbols"]:
        points = list(itertools.product(carrier, repeat=arity))
        tables = []
        for images in itertools.product(carrier, repeat=len(points)):
            t = dict(zip(points, images))
            if all(
                (t[p], t[q]) in le
                for p in points
                for q in points
                if all((a, b) in le for a, b in zip(p, q))
            ):
                tables.append(t)
        spaces.append(tables)
    names = [symbol for symbol, _ in spec["symbols"]]
    count = 0
    for combo in itertools.product(*spaces):
        tables = dict(zip(names, combo))
        if all(
            _term_eval(tables, lhs, env) == _term_eval(tables, rhs, env)
            for nvars, lhs, rhs in spec["equations"]
            for env in itertools.product(carrier, repeat=nvars)
        ) and all(
            (_term_eval(tables, lhs, env), _term_eval(tables, rhs, env)) in le
            for nvars, lhs, rhs in spec["inequations"] + spec["order"]
            for env in itertools.product(carrier, repeat=nvars)
        ):
            count += 1
    return count


def _row_shape(descriptor: str) -> tuple[int, int]:
    """'M:|2|e3' -> (2, 3): carrier size and edge count of a one-sort row."""
    _, size, edges = descriptor.split("|")
    return int(size), int(edges[1:])


def report_problems(report) -> list[str]:
    out = [f"row {r.descriptor}: {r.detail}" for r in report.rows if not r.ok]
    if not report.rows:
        out.append("report has no carrier rows")
    for r in report.rows:
        if r.count_left != r.count_right or len(r.bijection) != r.count_left:
            out.append(f"row {r.descriptor}: counts or bijection disagree")
    return out


def theory_report_problems(spec, report) -> list[str]:
    """Every row passes, and on carriers of size <= 2 the algebra counts
    equal the brute-force enumeration of the spec."""
    out = report_problems(report)
    posets = small_posets()
    for r in report.rows:
        shape = _row_shape(r.descriptor)
        if shape in posets:
            carrier, le = posets[shape]
            want = brute_algebra_count(spec, carrier, le)
            if r.count_left != want:
                out.append(f"row {r.descriptor}: {r.count_left} algebras, brute force {want}")
    return out


def truncation_report_problems(kind: str, report) -> list[str]:
    """Identity truncations have one algebra per carrier; exception
    truncations (with the nullary arity) one per choice of error point."""
    out = report_problems(report)
    for r in report.rows:
        size, _ = _row_shape(r.descriptor)
        want = 1 if kind == "identity" else size
        if r.count_left != want:
            out.append(f"row {r.descriptor}: {r.count_left} algebras, expected {want}")
    return out
