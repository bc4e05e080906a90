"""The benchmark's workloads: seeded inputs, the ops that run them through
the program, and the checks each op's output must pass.

A workload is built once per process (its set-up) and then hands out rounds.
Round r is a fixed list of ops drawn from random.Random(f"{name}:{seed}:{r}"),
so a seed and a round number fix the inputs exactly.  Each round samples
every stratum (theory, size class, op kind) the same number of times and only
the choice inside a stratum depends on the seed, which keeps the mix of
cheap and expensive ops the same from seed to seed.

Program calls go through module attributes (`relcore.chase`, not a name
imported from it), so a tracer that rebinds those attributes sees them.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

from enrvar import cpo, dsl, isoenum, monad, relcore, syntax, translate

import checks

LE = relcore.LE


@dataclass
class Op:
    kind: str
    run: Callable[[], object]  # the program calls; this alone is timed
    check: Callable[[object], list]  # the independent checks on run's result


class Workload:
    name = ""
    # the rounds behind the counts of a traced run and the peak memory of an
    # untraced one: a fixed amount of work, which every run completes
    fixed_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.setup()

    def rng(self, r: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{r}")

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError


# -- closure: exponentials and the currying bijection ------------------------------

CLOSURE_BASES = ("set", "preord", "pos", "simp(2)", "qchain(3)")
# ops per base per round: CLOSURE_PER_BUCKET triples for each range of
# |Hom(Z x X, Y)|, the number of morphisms the op curries
CLOSURE_BUCKETS = ((0, 1), (2, 3), (4, 7), (8, 15), (16, 63), (64, 256))
CLOSURE_PER_BUCKET = 5
CLOSURE_DRAWS = 5000  # per base per round; the rarest bucket needs ~200
MAX_CURRIED = 256  # cap on |Hom(X, Y)|^|Z|, a bound on the maps one op curries
AFFORDABLE_MAPS = 4096  # cap on |Y|^(|Z||X|), as in the acceptance suite


def count_maps(carrier, edges, target_carrier, target_edges) -> int:
    """Edge-preserving maps by backtracking in carrier order; tells how many
    morphisms an op on a sampled triple will curry."""
    pos = {x: i for i, x in enumerate(carrier)}
    due: list[list] = [[] for _ in carrier]
    for rel, tup in edges:
        due[max(pos[x] for x in tup)].append((rel, tuple(pos[x] for x in tup)))
    image: list = [None] * len(carrier)

    def extend(k):
        if k == len(carrier):
            return 1
        total = 0
        for y in target_carrier:
            image[k] = y
            if all((rel, tuple(image[i] for i in ps)) in target_edges for rel, ps in due[k]):
                total += extend(k + 1)
        return total

    return extend(0)


class Closure(Workload):
    """Op: one triple (Z, X, Y) of models of size <= 3 over one base.  It
    builds [X, Y], enumerates Hom(Z x X, Y) and curries then uncurries every
    morphism.

    Op cost grows with the number of morphisms it curries, |Hom(Z x X, Y)|,
    and with the size of [X, Y].  Triples where |Hom(X, Y)|^|Z| (a bound on
    the first) exceeds MAX_CURRIED, or |Y|^(|Z||X|) exceeds AFFORDABLE_MAPS,
    are left out.  Each round draws random triples per base and keeps the
    first CLOSURE_PER_BUCKET whose count falls in each of CLOSURE_BUCKETS, so
    every round holds the same number of cheap, middling and costly ops."""

    name = "closure"
    fixed_rounds = 2

    def setup(self):
        self.bases = [
            (relcore.builtin_theory(label), isoenum.models_up_to(relcore.builtin_theory(label), 3))
            for label in CLOSURE_BASES
        ]
        self.verified: set = set()  # exponentials that already passed
        self.hom_xy: dict = {}  # (id X, id Y) -> |Hom(X, Y)|

    def round(self, r):
        rng = self.rng(r)
        ops = []
        for T, zoo in self.bases:
            picked: list[list] = [[] for _ in CLOSURE_BUCKETS]
            for _ in range(CLOSURE_DRAWS):
                if all(len(p) == CLOSURE_PER_BUCKET for p in picked):
                    break
                Z, X, Y = (rng.choice(zoo) for _ in range(3))
                key = (id(X), id(Y))
                if key not in self.hom_xy:
                    self.hom_xy[key] = count_maps(X.carrier, X.edges, Y.carrier, Y.edges)
                if (
                    self.hom_xy[key] ** len(Z.carrier) > MAX_CURRIED
                    or len(Y.carrier) ** (len(Z.carrier) * len(X.carrier)) > AFFORDABLE_MAPS
                ):
                    continue
                n = count_maps(*checks.pair_product(Z, X), Y.carrier, Y.edges)
                b = next(i for i, (lo, hi) in enumerate(CLOSURE_BUCKETS) if lo <= n <= hi)
                if len(picked[b]) < CLOSURE_PER_BUCKET:
                    picked[b].append((Z, X, Y))
            for Z, X, Y in itertools.chain(*picked):
                ops.append(Op(T.name, self._run(T, Z, X, Y), self._check(T, Z, X, Y)))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _run(T, Z, X, Y):
        def run():
            E = relcore.exponential(X, Y, T)
            fs = relcore.enumerate_morphisms(relcore.product([Z, X]), Y)
            triples = []
            for f in fs:
                g = relcore.curry(f, Z, X, Y, T)
                triples.append((f, g, relcore.uncurry(g, Z, X, Y, T)))
            return E, triples

        return run

    def _check(self, T, Z, X, Y):
        def check(result):
            E, triples = result
            problems = []
            key = (X, Y, T, E.carrier, E.edges)
            if key not in self.verified:
                problems += checks.exponential_problems(X, Y, T, E)
                if not problems:
                    self.verified.add(key)
            return problems + checks.currying_problems(Z, X, Y, E, triples)

        return check


# -- reflection: many tiny chases and completions ---------------------------------------

REFLECTION_CHASES = 10  # per base and carrier size 1..4, per round
REFLECTION_COMPLETIONS = 10  # per carrier size 1..4, per round


def random_le_structure(sig, n: int, p: float, rng: random.Random, name="x"):
    carrier = tuple(f"{name}{i}" for i in range(n))
    edges = frozenset(
        (LE, (a, b)) for a in carrier for b in carrier if rng.random() < p
    )
    return relcore.FinStructure(sig, carrier, edges)


def random_chain(le: set, carrier, rng: random.Random, longest: int) -> tuple:
    """A nonempty chain of the preorder `le`, grown greedily in random order."""
    order = list(carrier)
    rng.shuffle(order)
    chain = [order[0]]
    for x in order[1:]:
        if len(chain) == longest:
            break
        if all((x, u) in le or (u, x) in le for u in chain):
            chain.append(x)
    return tuple(chain)


def random_presentation(sig, n: int, p: float, covers: int, rng, longest: int = 3):
    """A preorder (closed by the checks' own closure, not by the chase) with
    seeded covers."""
    raw = random_le_structure(sig, n, p, rng, name="p")
    le = checks.reflexive_transitive_closure(raw.carrier, checks.le_pairs(raw))
    pre = relcore.FinStructure(sig, raw.carrier, frozenset((LE, e) for e in le))
    cover_list = tuple(
        (rng.choice(pre.carrier), random_chain(le, pre.carrier, rng, longest))
        for _ in range(covers)
    )
    return cpo.CpoPresentation(pre, cover_list)


class Reflection(Workload):
    """Ops: a chase of a structure on <= 4 elements over preord or pos, with
    the hom-set sizes from the structure and from its chase into every model
    of size <= 3; or the free completion of a presentation on <= 4 elements,
    with its presentation morphisms counted against every poset of size <= 3."""

    name = "reflection"
    fixed_rounds = 8

    def setup(self):
        self.bases = [relcore.builtin_theory("preord"), relcore.builtin_theory("pos")]
        self.targets = {T.name: isoenum.models_up_to(T, 3) for T in self.bases}
        self.posets = self.targets["pos"]
        self.sig = self.bases[0].signature

    def round(self, r):
        rng = self.rng(r)
        ops = []
        for T in self.bases:
            for n in range(1, 5):
                for _ in range(REFLECTION_CHASES):
                    X = random_le_structure(self.sig, n, 0.3, rng)
                    ops.append(Op(f"chase-{T.name}", self._chase(T, X), self._check_chase(T, X)))
        for n in range(1, 5):
            for _ in range(REFLECTION_COMPLETIONS):
                P = random_presentation(self.sig, n, 0.25, rng.randint(0, 2), rng)
                ops.append(Op("completion", self._completion(P), self._check_completion(P)))
        rng.shuffle(ops)
        return ops

    def _chase(self, T, X):
        targets = self.targets[T.name]

        def run():
            model, unit = relcore.chase(X, T)
            direct = [len(relcore.enumerate_morphisms(X, M)) for M in targets]
            chased = [len(relcore.enumerate_morphisms(model, M)) for M in targets]
            return model, unit, direct, chased

        return run

    def _check_chase(self, T, X):
        def check(result):
            model, unit, direct, chased = result
            return checks.chase_problems(X, T, model, unit, T.name) + checks.reflection_problems(
                X, model, self.targets[T.name], direct, chased
            )

        return check

    def _completion(self, P):
        posets = self.posets

        def run():
            completion, unit = cpo.free_omega_cpo(P)
            counts = []
            for X in posets:
                pres = sum(
                    1
                    for f in relcore.enumerate_morphisms(P.preorder, X)
                    if cpo.is_presentation_morphism(f, P, X)
                )
                counts.append((pres, len(relcore.enumerate_morphisms(completion, X))))
            return completion, unit, counts

        return run

    def _check_completion(self, P):
        def check(result):
            completion, unit, counts = result
            return checks.completion_problems(P, completion, unit, self.posets, counts)

        return check


# -- saturation: few calls with many rounds ------------------------------------------------

# (base, carrier size, edges per relation arity, chases per round)
SATURATION_CHASES = (
    ("pos", 30, {2: 60}, 10),
    ("preord", 20, {2: 40}, 10),
    ("simp(3)", 14, {1: 3, 2: 8, 3: 5}, 10),
    ("qchain(2)", 12, {2: 20}, 10),
    ("qchain(3)", 10, {2: 16}, 10),
)
SATURATION_COMPLETIONS = 42  # presentations per round
COMPLETION_SIZE = 48

# the free algebras built each round: (fixture theory, generators)
FREE_ALGEBRAS = (
    ("semilattice", 1), ("semilattice", 2), ("semilattice", 3),
    ("band", 2), ("ordered_band", 2),
    ("left_zero", 3), ("involution", 3), ("idempotent_map", 3),
)

# copies of the theories in the repository's fixtures/, kept here so that the
# benchmark's inputs do not move when a fixture is edited
FIXTURE_THEORIES = {
    "semilattice": """theory semilattice {
  base set
  sort A
  op join : A A -> A
  eq assoc [x: A, y: A, z: A] : join(join(x, y), z) == join(x, join(y, z))
  eq comm [x: A, y: A] : join(x, y) == join(y, x)
  eq idem [x: A] : join(x, x) == x
}""",
    "band": """theory band {
  base set
  sort A
  op mul : A A -> A
  eq assoc [x: A, y: A, z: A] : mul(mul(x, y), z) == mul(x, mul(y, z))
  eq idem [x: A] : mul(x, x) == x
}""",
    "ordered_band": """theory ordered_band {
  base preord
  sort B
  op mul : B B -> B
  eq assoc [x: B, y: B, z: B] : mul(mul(x, y), z) == mul(x, mul(y, z))
  eq idem [x: B] : mul(x, x) == x
  rel lower [x: B, y: B] : mul(x, y) <= x
}""",
    "left_zero": """theory left_zero {
  base set
  sort A
  op mul : A A -> A
  eq proj [x: A, y: A] : mul(x, y) == x
}""",
    "involution": """theory involution {
  base set
  sort A
  op f : A -> A
  eq inv [x: A] : f(f(x)) == x
}""",
    "idempotent_map": """theory idempotent_map {
  base set
  sort A
  op f : A -> A
  eq idem [x: A] : f(f(x)) == f(x)
}""",
}


def random_structure(T, n: int, edges_per_arity: dict, rng: random.Random):
    """Exactly edges_per_arity[k] distinct random edges per relation of arity k."""
    carrier = tuple(f"x{i}" for i in range(n))
    edges = set()
    for rel, ar in T.signature.symbols:
        want = edges_per_arity.get(ar, 0)
        mine: set = set()
        while len(mine) < want:
            mine.add((rel, tuple(rng.choice(carrier) for _ in range(ar))))
        edges |= mine
    return relcore.FinStructure(T.signature, carrier, frozenset(edges))


def chase_kind(T) -> str:
    return T.name if T.name in ("preord", "pos") else "fixpoint"


class Saturation(Workload):
    """Ops: a chase of a random structure with tens of elements; the free
    completion of a presentation with tens of elements and covers; or the free
    algebra of a fixture theory at an arity that saturates."""

    name = "saturation"

    def setup(self):
        self.bases = {label: relcore.builtin_theory(label) for label, *_ in SATURATION_CHASES}
        self.theories = {
            name: dsl.parse_theory(text).theories[name]
            for name, text in FIXTURE_THEORIES.items()
        }
        self.sig = self.bases["pos"].signature

    def round(self, r):
        rng = self.rng(r)
        ops = []
        for label, n, edges, count in SATURATION_CHASES:
            T = self.bases[label]
            for _ in range(count):
                X = random_structure(T, n, edges, rng)
                ops.append(Op(f"chase-{label}", self._chase(T, X), self._check_chase(T, X)))
        for _ in range(SATURATION_COMPLETIONS):
            P = random_presentation(self.sig, COMPLETION_SIZE, 0.03, 12, rng, longest=4)
            ops.append(Op("completion", self._completion(P), self._check_completion(P)))
        for name, n in FREE_ALGEBRAS:
            T = self.theories[name]
            ops.append(Op(f"free-{name}", self._free(T, n), self._check_free(name, T, n)))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _chase(T, X):
        return lambda: relcore.chase(X, T)

    @staticmethod
    def _check_chase(T, X):
        def check(result):
            model, unit = result
            return checks.chase_problems(X, T, model, unit, chase_kind(T))

        return check

    @staticmethod
    def _completion(P):
        return lambda: cpo.free_omega_cpo(P)

    @staticmethod
    def _check_completion(P):
        def check(result):
            completion, unit = result
            return checks.completion_problems(P, completion, unit, [], [])

        return check

    @staticmethod
    def _free(T, n):
        sorts = T.signature.sorts
        J = syntax.Arity.of(sorts, {sorts.sorts[0]: n})
        return lambda: monad.free_algebra(T, J)

    @staticmethod
    def _check_free(name, T, n):
        return lambda result: checks.free_algebra_problems(name, n, T, result)


# -- algebras: enumeration, translations and truncations ---------------------------------

# (kind, optional symbols, carrier bound, law counts): per round, one theory
# for each subset of the optional symbols and each (equations, inequations)
# count; random_theory_spec describes the kinds.  Relational theories get at
# least one equation: with none, the full signature has hundreds of algebras
# on a two-element antichain, and the run's peak memory turns on whether a
# seed draws such a theory.
ALGEBRA_THEORIES = (
    ("relational", (("g", 1), ("c", 0), ("m", 2)), 2, ((1, 1), (1, 2), (2, 1), (2, 2))),
    ("enriched", (("g", 1), ("c", 0)), 2, ((0, 0), (1, 0), (2, 0)) * 2),
    ("unary", (("c", 0),), 3, ((0, 1), (1, 1)) * 2),
)
HOM_PAIRS = 16  # algebra pairs whose hom structures are compared, per carrier
TRUNCATIONS = 36  # per round: identity/exception x set/pos, 9 each
TRUNCATION_BOUND = {"set": 3, "pos": 2}


def random_term(rng, symbols, nvars: int, depth: int):
    """A spec term: an int is a variable, a tuple (symbol, *args) applies."""
    leaves = [s for s, ar in symbols if ar == 0]
    if depth == 0 or rng.random() < 0.3:
        if leaves and rng.random() < 0.25:
            return (rng.choice(leaves),)
        return rng.randrange(nvars)
    symbol, arity = rng.choice(symbols)
    return (symbol,) + tuple(random_term(rng, symbols, nvars, depth - 1) for _ in range(arity))


def render_term(term) -> str:
    if isinstance(term, int):
        return "xy"[term]
    symbol, *args = term
    return symbol if not args else f"{symbol}({', '.join(render_term(a) for a in args)})"


def random_theory_spec(kind: str, extras, n_eq: int, n_ineq: int, rng: random.Random) -> dict:
    """A theory over pos with one sort M and n_eq random equations and n_ineq
    random inequations, as data the checks can evaluate.  Every kind has a
    unary f plus the given extra symbols; in the enriched kind f is indexed
    by the two-point chain lo <= hi, whose order acts as the inequation
    f@lo <= f@hi."""
    decls = [("f", 1, kind == "enriched")] + [(name, arity, False) for name, arity in extras]
    symbols = []
    for name, arity, indexed in decls:
        symbols += [(f"{name}@lo", arity), (f"{name}@hi", arity)] if indexed else [(name, arity)]

    def law():
        nvars = rng.randint(1, 2)
        while True:
            lhs = random_term(rng, symbols, nvars, 2)
            rhs = random_term(rng, symbols, nvars, 2)
            if lhs != rhs:
                return nvars, lhs, rhs

    equations = [law() for _ in range(n_eq)]
    inequations = [law() for _ in range(n_ineq)]
    return {
        "kind": kind,
        "decls": decls,
        "symbols": symbols,
        "equations": equations,
        "inequations": inequations,
        # the parameter order lo <= hi, as pointwise inequations
        "order": [(1, (f"{n}@lo", 0), (f"{n}@hi", 0)) for n, _, indexed in decls if indexed],
    }


def render_theory(name: str, spec: dict) -> str:
    lines = [f"theory {name} {{", "  base pos", "  sort M"]
    if any(indexed for _, _, indexed in spec["decls"]):
        lines += ["  param P {", "    elems [lo, hi]", "    reflexive", "    edge lo <= hi", "  }"]
    for op, arity, indexed in spec["decls"]:
        inputs = " ".join(["M"] * arity)
        lines.append(f"  op {op} : {inputs}{' ' if inputs else ''}-> M{' @ P' if indexed else ''}")

    def ctx(nvars):
        return ", ".join(f"{v}: M" for v in "xy"[:nvars])

    for i, (nvars, lhs, rhs) in enumerate(spec["equations"]):
        lines.append(f"  eq e{i} [{ctx(nvars)}] : {render_term(lhs)} == {render_term(rhs)}")
    for i, (nvars, lhs, rhs) in enumerate(spec["inequations"]):
        lines.append(f"  rel r{i} [{ctx(nvars)}] : {render_term(lhs)} <= {render_term(rhs)}")
    lines.append("}")
    return "\n".join(lines) + "\n"


class Algebras(Workload):
    """Ops: a seeded small theory over pos, reaching the program as
    theory-file text, checked against its enriched or relational translation
    by verify_theory_equivalence; or an identity or exception truncation over
    a seeded set of arities, checked by verify_presentation."""

    name = "algebras"
    fixed_rounds = 3

    def setup(self):
        self.bases = {b: relcore.builtin_theory(b) for b in TRUNCATION_BOUND}
        self.sorts = syntax.SortSet(("A",))

    def round(self, r):
        rng = self.rng(r)
        ops = []
        specs = []
        for kind, optional, bound, laws in ALGEBRA_THEORIES:
            for k in range(len(optional) + 1):
                for extras in itertools.combinations(optional, k):
                    for n_eq, n_ineq in laws:
                        specs.append((random_theory_spec(kind, extras, n_eq, n_ineq, rng), bound))
        text = "".join(render_theory(f"t{i}", spec) for i, (spec, _) in enumerate(specs))
        parsed = dsl.parse_theory(text).theories
        for i, (spec, bound) in enumerate(specs):
            T = parsed[f"t{i}"]
            ops.append(Op(f"theory-{spec['kind']}", self._theory(T, bound), self._check_theory(spec)))
        for i in range(TRUNCATIONS):
            kind = ("identity", "exception")[i % 2]
            base = ("set", "pos")[i // 2 % 2]
            if kind == "identity":
                counts = [k for k in (0, 1, 2) if rng.random() < 0.5] or [rng.randrange(3)]
            else:
                counts = [0] + [k for k in (1, 2) if rng.random() < 0.5]
            ops.append(Op(f"{kind}-{base}", self._truncation(kind, base, counts), self._check_truncation(kind)))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _theory(T, bound):
        def run():
            if isinstance(T, translate.EnrichedTheory):
                other, corr = translate.enriched_to_relational(T)
            else:
                other, corr = translate.relational_to_enriched(T)
            return translate.verify_theory_equivalence(T, other, bound, corr, hom_pair_limit=HOM_PAIRS)

        return run

    @staticmethod
    def _check_theory(spec):
        return lambda report: checks.theory_report_problems(spec, report)

    def _truncation(self, kind, base, counts):
        T = self.bases[base]
        S = self.sorts
        make = monad.identity_truncation if kind == "identity" else monad.exception_truncation
        bound = TRUNCATION_BOUND[base]

        def run():
            arities = [syntax.Arity.of(S, {"A": k} if k else {}) for k in counts]
            return monad.verify_presentation(make(T, S, arities), bound)

        return run

    @staticmethod
    def _check_truncation(kind):
        return lambda report: checks.truncation_report_problems(kind, report)


WORKLOADS = {w.name: w for w in (Closure, Reflection, Saturation, Algebras)}
