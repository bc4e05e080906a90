"""The theory-file DSL: one block language for theories, structures, algebras,
monad truncations, and completion presentations.

Block keywords: theory / model / algebra / monad / present, with inner
statements base / sort / param / op / eq / rel / chain / elems / edge /
carrier / arity / object / unit / ext / le / cover.  ASCII spellings == / <=
/ => / <| have unicode aliases; `#` starts a line comment.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import (
    Algebra,
    ClassicalTheoryWithRelations,
    EnrichedSignature,
    EnrichedTheory,
    OpDecl,
    Theory,
    theory_parts,
    underlying_classical,
)
from .cpo import CpoPresentation
from .monad import RelMonadData
from .relcore import (
    LE,
    FinStructure,
    HeytingAlgebra,
    HornTheory,
    StructureError,
    builtin_theory,
    heyting_chain,
    terminal,
)
from .syntax import (
    App,
    Arity,
    ChainRelation,
    Context,
    Equation,
    ExplicitChain,
    IteratedChain,
    RelationAtom,
    SortError,
    SortSet,
    Term,
    Var,
    extended_context,
)


# The deepest nesting of a term that the parser accepts: the passes that walk
# terms recurse once per level, and a deeper term would exhaust the
# interpreter's recursion limit in them.
MAX_TERM_DEPTH = 100


class DslError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"line {line}, col {col}: {message}" if line else message)
        self.message = message
        self.line = line
        self.col = col


_PUNCT = {
    "->": "ARROW",
    "==": "EQEQ",
    "<=": "LEQ",
    "<|": "COVER",
    "=>": "IMPLIES",
    "{": "LBRACE",
    "}": "RBRACE",
    "[": "LBRACK",
    "]": "RBRACK",
    "(": "LPAREN",
    ")": "RPAREN",
    ":": "COLON",
    ";": "SEMI",
    ",": "COMMA",
    "@": "AT",
    "~": "TILDE",
}
_UNICODE_ALIASES = {"≐": "==", "≤": "<=", "⟹": "=>", "◁": "<|"}


@dataclass
class Token:
    kind: str
    value: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    out: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c in _UNICODE_ALIASES:
            spelled = _UNICODE_ALIASES[c]
            out.append(Token(_PUNCT[spelled], spelled, line, col))
            i += 1
            col += 1
            continue
        two = text[i : i + 2]
        if two in _PUNCT:
            out.append(Token(_PUNCT[two], two, line, col))
            i += 2
            col += 2
            continue
        if c in _PUNCT:
            out.append(Token(_PUNCT[c], c, line, col))
            i += 1
            col += 1
            continue
        if c == '"':
            j = i + 1
            buf = []
            while j < n and text[j] != '"':
                if text[j] == "\n":
                    raise DslError("unterminated string", line, col)
                buf.append(text[j])
                j += 1
            if j >= n:
                raise DslError("unterminated string", line, col)
            out.append(Token("STRING", "".join(buf), line, col))
            col += j + 1 - i
            i = j + 1
            continue
        if c.isalpha() or c == "_" or c.isdigit():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise DslError(f"unexpected character {c!r}", line, col)
    out.append(Token("EOF", "", line, col))
    return out


@dataclass
class TheoryFile:
    theories: dict[str, Theory] = field(default_factory=dict)
    models: dict[str, FinStructure] = field(default_factory=dict)
    model_bases: dict[str, HornTheory] = field(default_factory=dict)
    algebras: dict[str, Algebra] = field(default_factory=dict)
    algebra_theories: dict[str, str] = field(default_factory=dict)
    monads: dict[str, RelMonadData] = field(default_factory=dict)
    presentations: dict[str, CpoPresentation] = field(default_factory=dict)
    order: list[tuple[str, str]] = field(default_factory=list)

    def sole_theory(self) -> Theory:
        if len(self.theories) != 1:
            raise DslError(f"expected exactly one theory block, found {len(self.theories)}")
        return next(iter(self.theories.values()))


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise DslError(message, tok.line, tok.col)

    def expect(self, kind: str, what: str | None = None) -> Token:
        t = self.peek()
        if t.kind != kind:
            self.fail(f"expected {what or kind}, found {t.value!r}", t)
        return self.next()

    def keyword(self) -> str | None:
        t = self.peek()
        return t.value if t.kind == "IDENT" else None

    def eat_keyword(self, word: str) -> bool:
        if self.keyword() == word:
            self.next()
            return True
        return False

    def skip_semis(self):
        while self.peek().kind == "SEMI":
            self.next()

    def ident(self, what: str = "identifier") -> str:
        return self.expect("IDENT", what).value

    def elem_id(self) -> str:
        return self.elem_tok().value

    def elem_tok(self) -> Token:
        if self.peek().kind in ("STRING", "IDENT"):
            return self.next()
        self.fail("expected an element id (identifier or string)")

    def int_lit(self) -> int:
        t = self.expect("IDENT", "number")
        if not t.value.isdigit():
            self.fail("expected a number", t)
        return int(t.value)

    # -- top level --------------------------------------------------------

    def parse_file(self) -> TheoryFile:
        tf = TheoryFile()
        self.skip_semis()
        while self.peek().kind != "EOF":
            t = self.peek()
            word = self.keyword()
            if word == "theory":
                name, theory = self.parse_theory(tf)
                tf.theories[name] = theory
                tf.order.append(("theory", name))
            elif word == "model":
                name, X, base = self.parse_model(tf)
                tf.models[name] = X
                tf.model_bases[name] = base
                tf.order.append(("model", name))
            elif word == "algebra":
                name, alg, tname = self.parse_algebra(tf)
                tf.algebras[name] = alg
                tf.algebra_theories[name] = tname
                tf.order.append(("algebra", name))
            elif word == "monad":
                name, m = self.parse_monad(tf)
                tf.monads[name] = m
                tf.order.append(("monad", name))
            elif word == "present":
                name, p = self.parse_present(tf)
                tf.presentations[name] = p
                tf.order.append(("present", name))
            else:
                self.fail(f"expected a block keyword, found {t.value!r}", t)
            self.skip_semis()
        return tf

    # -- base specs and structure bodies -----------------------------------

    def parse_basespec(self) -> HornTheory:
        t = self.peek()
        word = self.ident("base theory name")
        if word in ("set", "preord", "pos"):
            return builtin_theory(word)
        if word in ("simp", "qchain"):
            self.expect("LPAREN")
            ntok = self.peek()
            n = self.int_lit()
            self.expect("RPAREN")
            try:
                if word == "simp":
                    return builtin_theory("simp", n=n)
                return builtin_theory("qchain", n=n)
            except StructureError as e:
                self.fail(str(e), ntok)
        if word == "qcat":
            q = self.parse_lattice()
            try:
                return builtin_theory("qcat", q=q)
            except StructureError as e:
                self.fail(str(e), t)
        self.fail(f"unknown base theory {word!r}", t)

    def parse_lattice(self) -> HeytingAlgebra:
        self.expect("LBRACE")
        elems: tuple[str, ...] = ()
        meet: list[tuple[str, str, str]] = []
        join: list[tuple[str, str, str]] = []
        top = None
        while not self.eat_rbrace():
            word = self.ident("lattice clause")
            if word == "elems":
                elems = tuple(self.parse_id_list())
            elif word in ("meet", "join"):
                target = meet if word == "meet" else join
                self.expect("LBRACE")
                while not self.eat_rbrace():
                    self.expect("LPAREN")
                    a = self.elem_id()
                    self.expect("COMMA")
                    b = self.elem_id()
                    self.expect("RPAREN")
                    self.expect("ARROW")
                    c = self.elem_id()
                    target.append((a, b, c))
                    self.skip_separators()
            elif word == "top":
                top = self.elem_id()
            else:
                self.fail(f"unknown lattice clause {word!r}")
            self.skip_semis()
        if top is None:
            self.fail("lattice needs a top element")
        try:
            return HeytingAlgebra(elems, tuple(meet), tuple(join), top)
        except StructureError as e:
            self.fail(str(e))

    def eat_rbrace(self) -> bool:
        if self.peek().kind == "RBRACE":
            self.next()
            return True
        return False

    def skip_separators(self):
        while self.peek().kind in ("SEMI", "COMMA"):
            self.next()

    def parse_id_list(self) -> list[str]:
        return [t.value for t in self.parse_id_toks()]

    def parse_id_toks(self) -> list[Token]:
        self.expect("LBRACK")
        out = []
        while self.peek().kind != "RBRACK":
            out.append(self.elem_tok())
            self.skip_separators()
        self.next()
        return out

    def parse_structure_body(self, base: HornTheory, name: str) -> FinStructure:
        """elems [...] ; (reflexive)? ; (edge ...)*"""
        self.expect("LBRACE")
        carrier: list[str] = []
        edges: set = set()
        reflexive = False
        arity = base.signature.arity
        while not self.eat_rbrace():
            t = self.peek()
            word = self.ident("model clause")
            if word == "elems":
                carrier = self.parse_id_list()
            elif word == "reflexive":
                reflexive = True
            elif word == "edge":
                nxt = self.peek()
                # infix a <= b / a ~q b, or prefix R(a, b, ...)
                first = self.elem_id()
                op = self.peek()
                if op.kind == "LEQ":
                    self.next()
                    edges.add((LE, (first, self.elem_id())))
                elif op.kind == "TILDE":
                    self.next()
                    rel = "~" + self.ident("lattice element")
                    edges.add((rel, (first, self.elem_id())))
                elif op.kind == "LPAREN":
                    self.next()
                    args = []
                    while self.peek().kind != "RPAREN":
                        args.append(self.elem_id())
                        self.skip_separators()
                    self.next()
                    if first not in arity:
                        self.fail(f"unknown relation {first!r}", nxt)
                    edges.add((first, tuple(args)))
                else:
                    self.fail("expected an edge", op)
            else:
                self.fail(f"unknown model clause {word!r}", t)
            self.skip_semis()
        if reflexive:
            for rel, ar in base.signature.symbols:
                for x in carrier:
                    edges.add((rel, (x,) * ar))
        try:
            return FinStructure(base.signature, tuple(carrier), frozenset(edges))
        except StructureError as e:
            self.fail(f"model {name!r}: {e}")

    def parse_model(self, tf: TheoryFile):
        self.expect("IDENT")  # 'model'
        name = self.ident("model name")
        base = builtin_theory("set")
        if self.peek().kind == "COLON":
            self.next()
            base = self.parse_basespec()
        X = self.parse_structure_body(base, name)
        return name, X, base

    # -- theories ----------------------------------------------------------

    def parse_theory(self, tf: TheoryFile):
        self.expect("IDENT")  # 'theory'
        name = self.ident("theory name")
        self.expect("LBRACE")
        base: HornTheory | None = None
        sorts: list[str] = []
        params: dict[str, FinStructure] = {}
        ops: list[tuple] = []  # (name, inputs list, output, param name | None, token)
        laws: list[tuple] = []  # ('eq'|'rel'|'chain', payload..., token)
        while not self.eat_rbrace():
            tok = self.peek()
            word = self.ident("theory clause")
            if word == "base":
                base = self.parse_basespec()
            elif word == "sort":
                while self.peek().kind == "IDENT" and self.keyword() not in (
                    "base", "sort", "param", "op", "eq", "rel", "chain",
                ):
                    sorts.append(self.ident())
            elif word == "param":
                if base is None:
                    self.fail("declare the base before parameters", tok)
                pname = self.ident("parameter name")
                params[pname] = self.parse_structure_body(base, pname)
            elif word == "op":
                opname = self.ident("operation name")
                if self.peek().kind == "AT":
                    # decorated symbol name (flattened theories)
                    self.next()
                    opname = f"{opname}@{self.elem_id()}"
                self.expect("COLON")
                inputs = []
                while self.peek().kind == "IDENT":
                    inputs.append(self.ident())
                self.expect("ARROW")
                output = self.ident("output sort")
                pref = None
                if self.peek().kind == "AT":
                    self.next()
                    pref = self.ident("parameter name")
                ops.append((opname, inputs, output, pref, tok))
            elif word in ("eq", "rel", "chain"):
                label = None
                if self.peek().kind == "IDENT":
                    label = self.ident()
                ctx = self.parse_context()
                self.expect("COLON")
                if word == "eq":
                    lhs = self.parse_term()
                    self.expect("EQEQ")
                    rhs = self.parse_term()
                    laws.append(("eq", label, ctx, lhs, rhs, tok))
                elif word == "rel":
                    laws.append(("rel", label, ctx) + self.parse_atom() + (tok,))
                else:
                    laws.append(("chain", label, ctx) + self.parse_chainspec() + (tok,))
            else:
                self.fail(f"unknown theory clause {word!r}", tok)
            self.skip_semis()
        if base is None:
            self.fail("theory is missing its base clause")
        try:
            return name, self.build_theory(name, base, sorts, params, ops, laws)
        except (StructureError, SortError) as e:
            raise DslError(f"theory {name!r}: {e}") from e

    def parse_context(self) -> list[tuple[str, str]]:
        self.expect("LBRACK")
        entries = []
        while self.peek().kind != "RBRACK":
            v = self.ident("variable")
            self.expect("COLON")
            s = self.ident("sort")
            entries.append((v, s))
            self.skip_separators()
        self.next()
        return entries

    # raw term trees: (name, param-or-None, args tuple) with vars resolved later
    def parse_term(self, depth: int = 0):
        t = self.peek()
        if t.kind != "IDENT":
            self.fail("expected a term")
        if depth > MAX_TERM_DEPTH:
            self.fail(f"term nests deeper than {MAX_TERM_DEPTH}")
        name = self.next().value
        param = None
        if self.peek().kind == "AT":
            self.next()
            param = self.elem_id()
        args = None
        if self.peek().kind == "LPAREN":
            self.next()
            args = []
            while self.peek().kind != "RPAREN":
                args.append(self.parse_term(depth + 1))
                self.skip_separators()
            self.next()
        return (name, param, args, t)

    def parse_atom(self):
        t = self.peek()
        if t.kind == "TILDE":
            self.next()
            rel = "~" + self.ident("lattice element")
            self.expect("LPAREN")
            args = []
            while self.peek().kind != "RPAREN":
                args.append(self.parse_term())
                self.skip_separators()
            self.next()
            return (rel, args)
        first = self.parse_term()
        nxt = self.peek()
        if nxt.kind == "LEQ":
            self.next()
            return (LE, [first, self.parse_term()])
        # prefix relation: the "term" must be a bare name applied to args
        name, param, args, tok = first
        if param is None and args is not None:
            return (name, args)
        self.fail("expected a relation atom", nxt)

    def parse_chainspec(self):
        word = self.ident("chain form (sup or iter)")
        if word == "sup":
            self.expect("LBRACK")
            terms = []
            while self.peek().kind != "RBRACK":
                terms.append(self.parse_term())
                self.skip_separators()
            self.next()
            self.expect("EQEQ")
            limit = self.parse_term()
            return ("sup", terms, limit)
        if word == "iter":
            seed = self.parse_term()
            self.expect("COMMA")
            hole = self.ident("hole variable")
            self.expect("ARROW")
            step = self.parse_term()
            self.expect("EQEQ")
            limit = self.parse_term()
            return ("iter", seed, hole, step, limit)
        self.fail(f"unknown chain form {word!r}")

    def build_theory(self, name, base, sorts, params, ops, laws) -> Theory:
        if not sorts:
            raise DslError(f"theory {name!r} declares no sorts")
        sortset = SortSet(tuple(sorts))
        one = terminal(base.signature)
        decls = []
        for opname, inputs, output, pref, tok in ops:
            counts: dict[str, int] = {}
            for s in inputs:
                if s not in sortset.position:
                    self.fail(f"unknown input sort {s!r}", tok)
                counts[s] = counts.get(s, 0) + 1
            if output not in sortset.position:
                self.fail(f"unknown output sort {output!r}", tok)
            param = one
            if pref is not None:
                if pref not in params:
                    self.fail(f"unknown parameter {pref!r}", tok)
                param = params[pref]
            decls.append(OpDecl(opname, Arity.of(sortset, counts), output, param))
        sig = EnrichedSignature(sortset, base, tuple(decls))
        csig = underlying_classical(sig)

        equations: list[Equation] = []
        relations: list[RelationAtom] = []
        chains: list[ChainRelation] = []
        for law in laws:
            kind, label, ctx_entries = law[0], law[1], law[2]
            ctx = Context(tuple(ctx_entries))
            if kind == "eq":
                _, _, _, lraw, rraw, tok = law
                lhs = self.resolve_term(lraw, ctx, csig)
                rhs = self.resolve_term(rraw, ctx, csig)
                sort = self.sort_of(lhs, ctx, csig, tok)
                equations.append(Equation(ctx, lhs, rhs, sort, name=label))
            elif kind == "rel":
                _, _, _, rel, args_raw, tok = law
                args = tuple(self.resolve_term(a, ctx, csig) for a in args_raw)
                if not args:
                    self.fail("relation atoms need at least one argument", tok)
                sort = self.sort_of(args[0], ctx, csig, tok)
                relations.append(RelationAtom(ctx, rel, args, sort, name=label))
            else:
                spec = law[3:-1]
                tok = law[-1]
                if spec[0] == "sup":
                    _, terms_raw, limit_raw = spec
                    terms = tuple(self.resolve_term(t, ctx, csig) for t in terms_raw)
                    limit = self.resolve_term(limit_raw, ctx, csig)
                    sort = self.sort_of(limit, ctx, csig, tok)
                    chains.append(
                        ChainRelation(ctx, sort, ExplicitChain(terms), limit, name=label)
                    )
                else:
                    _, seed_raw, hole, step_raw, limit_raw = spec
                    seed = self.resolve_term(seed_raw, ctx, csig)
                    limit = self.resolve_term(limit_raw, ctx, csig)
                    sort = self.sort_of(limit, ctx, csig, tok)
                    hole_ctx = Context(ctx.entries + ((hole, sort),))
                    step = self.resolve_term(step_raw, hole_ctx, csig)
                    chains.append(
                        ChainRelation(
                            ctx, sort, IteratedChain(seed, step), limit, name=label
                        )
                    )
        if relations or chains:
            return ClassicalTheoryWithRelations(
                sig, tuple(relations), tuple(equations), tuple(chains), name=name
            )
        return EnrichedTheory(sig, tuple(equations), name=name)

    def resolve_term(self, raw, ctx: Context, csig) -> Term:
        name, param, args, tok = raw
        if param is None and args is None and name in ctx.name_index:
            return Var(ctx.name_index[name])
        symbol = name if param is None else f"{name}@{param}"
        if symbol not in csig.by_name:
            self.fail(f"unknown operation {symbol!r}", tok)
        resolved = tuple(self.resolve_term(a, ctx, csig) for a in (args or []))
        return App(symbol, resolved)

    def sort_of(self, t: Term, ctx: Context, csig, tok) -> str:
        from .syntax import check_term

        try:
            return check_term(csig, ctx, t)
        except SortError as e:
            self.fail(str(e), tok)

    # -- algebras ------------------------------------------------------------

    def parse_algebra(self, tf: TheoryFile):
        self.expect("IDENT")  # 'algebra'
        name = self.ident("algebra name")
        self.expect("COLON")
        tname = self.ident("theory name")
        if tname not in tf.theories:
            self.fail(f"unknown theory {tname!r}")
        theory = tf.theories[tname]
        sig = theory_parts(theory)[0]
        self.expect("LBRACE")
        carrier: dict[str, FinStructure] = {}
        tables: dict[str, dict] = {}
        while not self.eat_rbrace():
            tok = self.peek()
            word = self.ident("algebra clause")
            if word == "carrier":
                s = self.ident("sort")
                self.expect("ARROW") if self.peek().kind == "ARROW" else self.expect(
                    "COLON", "':'"
                )
                mname = self.ident("model name")
                if mname not in tf.models:
                    self.fail(f"unknown model {mname!r}", tok)
                carrier[s] = tf.models[mname]
            elif word == "op":
                opname = self.ident("operation name")
                symbol = opname
                if self.peek().kind == "AT":
                    self.next()
                    symbol = f"{opname}@{self.elem_id()}"
                self.expect("LBRACE")
                table = {}
                while not self.eat_rbrace():
                    self.expect("LPAREN")
                    point = []
                    while self.peek().kind != "RPAREN":
                        point.append(self.elem_id())
                        self.skip_separators()
                    self.next()
                    self.expect("ARROW")
                    table[tuple(point)] = self.elem_id()
                    self.skip_separators()
                tables[symbol] = table
            else:
                self.fail(f"unknown algebra clause {word!r}", tok)
            self.skip_semis()
        for s in sig.sorts.sorts:
            if s not in carrier:
                self.fail(f"algebra {name!r} is missing carrier for sort {s}")
        return name, Algebra(sig, carrier, tables), tname

    # -- monads ----------------------------------------------------------------

    def parse_monad(self, tf: TheoryFile):
        self.expect("IDENT")  # 'monad'
        name = self.ident("monad name")
        self.expect("LBRACE")
        base: HornTheory | None = None
        sorts: list[str] = []
        arities: dict[str, Arity] = {}
        arity_order: list[str] = []
        objects: dict[str, dict[str, FinStructure]] = {}
        units: dict[str, dict] = {}
        exts: list[tuple] = []
        sort_toks: list[Token] = []  # sorts named by object, unit and ext blocks
        while not self.eat_rbrace():
            tok = self.peek()
            word = self.ident("monad clause")
            if word == "base":
                base = self.parse_basespec()
            elif word == "sort":
                while self.peek().kind == "IDENT" and self.keyword() not in (
                    "base", "sort", "arity", "object", "unit", "ext",
                ):
                    if self.keyword() in sorts:
                        self.fail(f"sort {self.keyword()!r} is declared twice")
                    sorts.append(self.ident())
            elif word == "arity":
                if not sorts:
                    self.fail("an arity clause needs a preceding sort clause", tok)
                aname = self.ident("arity name")
                self.expect("LBRACE")
                counts: dict[str, int] = {}
                while not self.eat_rbrace():
                    stok = self.peek()
                    s = self.ident("sort")
                    if s not in sorts:
                        self.fail(f"arity uses unknown sort {s!r}", stok)
                    self.expect("COLON")
                    counts[s] = self.int_lit()
                    self.skip_separators()
                arities[aname] = Arity.of(SortSet(tuple(sorts)), counts)
                arity_order.append(aname)
            elif word == "object":
                if base is None:
                    self.fail("an object clause needs a preceding base clause", tok)
                aname = self.ident("arity name")
                self.expect("LBRACE")
                per_sort: dict[str, FinStructure] = {}
                while not self.eat_rbrace():
                    if not self.eat_keyword("sort"):
                        self.fail("expected a sort clause inside the object block")
                    sort_toks.append(self.peek())
                    s = self.ident("sort")
                    per_sort[s] = self.parse_structure_body(base, f"{name}.{aname}.{s}")
                    self.skip_semis()
                objects[aname] = per_sort
            elif word == "unit":
                aname = self.ident("arity name")
                self.expect("LBRACE")
                blocks: dict[str, list[Token]] = {}
                while not self.eat_rbrace():
                    sort_toks.append(self.peek())
                    s = self.ident("sort")
                    self.expect("COLON")
                    blocks[s] = self.parse_id_toks()
                    self.skip_separators()
                units[aname] = blocks
            elif word == "ext":
                src = self.ident("arity name")
                self.expect("ARROW")
                dst = self.ident("arity name")
                self.expect("LBRACK")
                kblocks: dict[str, list[str]] = {}
                while self.peek().kind != "RBRACK":
                    sort_toks.append(self.peek())
                    s = self.ident("sort")
                    self.expect("COLON")
                    kblocks[s] = self.parse_id_list()
                    self.skip_separators()
                self.next()
                self.expect("LBRACE")
                tables: dict[str, dict[str, Token]] = {}
                while not self.eat_rbrace():
                    sort_toks.append(self.peek())
                    s = self.ident("sort")
                    self.expect("COLON")
                    self.expect("LBRACE")
                    table = {}
                    while not self.eat_rbrace():
                        src_elem = self.elem_id()
                        self.expect("ARROW")
                        table[src_elem] = self.elem_tok()
                        self.skip_separators()
                    tables[s] = table
                    self.skip_separators()
                exts.append((src, dst, kblocks, tables, tok))
            else:
                self.fail(f"unknown monad clause {word!r}", tok)
            self.skip_semis()
        if base is None or not sorts:
            self.fail(f"monad {name!r} needs base and sort clauses")
        for stok in sort_toks:
            if stok.value not in sorts:
                self.fail(f"monad {name!r} never declares sort {stok.value!r}", stok)
        sortset = SortSet(tuple(sorts))
        arity_list = tuple(arities[a] for a in arity_order)
        obj = {}
        unit = {}
        for aname in arity_order:
            J = arities[aname]
            if aname not in objects:
                self.fail(f"monad {name!r}: missing object block for {aname}")
            per = {}
            for s in sortset.sorts:
                per[s] = objects[aname].get(
                    s, FinStructure(base.signature, (), frozenset())
                )
            obj[J] = per
            blocks = units.get(aname, {})
            for s, toks in blocks.items():
                for t in toks:
                    if t.value not in per[s].index:
                        self.fail(f"unit generator {t.value!r} is not in {aname} at {s}", t)
            unit[J] = tuple(tuple(t.value for t in blocks.get(s, [])) for s in sortset.sorts)
        ext = {}
        for src, dst, kblocks, tables, tok in exts:
            if src not in arities or dst not in arities:
                self.fail("ext clause names an unknown arity", tok)
            J, K = arities[src], arities[dst]
            for s, table in tables.items():
                for t in table.values():
                    if t.value not in obj[K][s].index:
                        self.fail(f"ext value {t.value!r} is not in {dst} at {s}", t)
            k = tuple(tuple(kblocks.get(s, [])) for s in sortset.sorts)
            ext[(J, K, k)] = {
                s: {x: t.value for x, t in tables.get(s, {}).items()} for s in sortset.sorts
            }
        return name, RelMonadData(base, sortset, arity_list, obj, unit, ext, name=name)

    # -- presentations -----------------------------------------------------------

    def parse_present(self, tf: TheoryFile):
        self.expect("IDENT")  # 'present'
        name = self.ident("presentation name")
        self.expect("LBRACE")
        carrier: list[str] = []
        edges: set = set()
        covers: list[tuple[str, tuple[str, ...]]] = []
        while not self.eat_rbrace():
            tok = self.peek()
            word = self.ident("presentation clause")
            if word == "elems":
                carrier = self.parse_id_list()
            elif word == "le":
                a = self.elem_id()
                self.expect("LEQ")
                edges.add((LE, (a, self.elem_id())))
            elif word == "cover":
                p = self.elem_id()
                self.expect("COVER")
                covers.append((p, tuple(self.parse_id_list())))
            else:
                self.fail(f"unknown presentation clause {word!r}", tok)
            self.skip_semis()
        preord = builtin_theory("preord")
        from .relcore import chase

        try:
            raw = FinStructure(preord.signature, tuple(carrier), frozenset(edges))
            closed = chase(raw, preord).model
            return name, CpoPresentation(closed, tuple(covers))
        except StructureError as e:
            self.fail(f"presentation {name!r}: {e}")


def parse_theory(text: str) -> TheoryFile:
    """Parse a theory file; errors carry line/column positions."""
    return _Parser(tokenize(text)).parse_file()


# -- printing ---------------------------------------------------------------------

def _is_plain_ident(s: str) -> bool:
    return bool(s) and (s[0].isalpha() or s[0] == "_" or s[0].isdigit()) and all(
        c.isalnum() or c == "_" for c in s
    )


def _fmt_id(s) -> str:
    from .relcore import render_id

    s = render_id(s)
    return s if _is_plain_ident(s) else f'"{s}"'


def _fmt_base(base: HornTheory) -> str:
    name = base.name or ""
    if name in ("set", "preord", "pos"):
        return name
    n = base.simp_bound
    if n is not None:
        return f"simp({n})"
    q = base.qcat_lattice
    if q is not None:
        if q == heyting_chain(len(q.elements)):
            return f"qchain({len(q.elements)})"
        meets = "; ".join(
            f"({a}, {b}) -> {q.meet_table[a, b]}" for a in q.elements for b in q.elements
        )
        joins = "; ".join(
            f"({a}, {b}) -> {q.join_table[a, b]}" for a in q.elements for b in q.elements
        )
        return (
            "qcat { elems [" + ", ".join(q.elements) + "]; "
            f"meet {{ {meets} }}; join {{ {joins} }}; top {q.top} }}"
        )
    raise DslError(f"cannot print non-builtin base theory {name!r}")


def _fmt_symbol(name: str) -> str:
    if "@" in name:
        head, param = name.split("@", 1)
        return f"{head}@{_fmt_id(param)}"
    return name


def _fmt_term(t: Term, ctx: Context) -> str:
    if isinstance(t, Var):
        return ctx.entries[t.index][0]
    shown = _fmt_symbol(t.op)
    if not t.args:
        # a bare constant shadowed by a context variable keeps its parentheses
        if any(v == t.op for v, _ in ctx.entries):
            return shown + "()"
        return shown
    return f"{shown}({', '.join(_fmt_term(a, ctx) for a in t.args)})"


def _fmt_ctx(ctx: Context) -> str:
    return "[" + ", ".join(f"{v}: {s}" for v, s in ctx.entries) + "]"


def _fmt_structure_body(X: FinStructure, indent: str) -> list[str]:
    lines = [f"{indent}elems [" + ", ".join(_fmt_id(x) for x in X.carrier) + "]"]
    idx = X.index
    for rel, tup in sorted(X.edges, key=lambda e: (e[0], tuple(idx[x] for x in e[1]))):
        if rel == LE:
            lines.append(f"{indent}edge {_fmt_id(tup[0])} <= {_fmt_id(tup[1])}")
        elif rel.startswith("~"):
            lines.append(f"{indent}edge {_fmt_id(tup[0])} {rel} {_fmt_id(tup[1])}")
        else:
            lines.append(
                f"{indent}edge {rel}(" + ", ".join(_fmt_id(x) for x in tup) + ")"
            )
    return lines


def _fmt_atom(atom: RelationAtom) -> str:
    args = [_fmt_term(a, atom.context) for a in atom.args]
    if atom.relation == LE and len(args) == 2:
        return f"{args[0]} <= {args[1]}"
    return f"{atom.relation}(" + ", ".join(args) + ")"


def print_theory(tf: TheoryFile) -> str:
    """Canonical text for a theory file; parse(print(tf)) equals tf."""
    out: list[str] = []
    for kind, name in tf.order:
        if kind == "theory":
            out.extend(_print_theory_block(name, tf.theories[name]))
        elif kind == "model":
            base = tf.model_bases[name]
            out.append(f"model {name} : {_fmt_base(base)} {{")
            out.extend(_fmt_structure_body(tf.models[name], "  "))
            out.append("}")
        elif kind == "algebra":
            out.extend(
                _print_algebra_block(name, tf.algebras[name], tf.algebra_theories[name], tf)
            )
        elif kind == "monad":
            out.extend(_print_monad_block(name, tf.monads[name]))
        elif kind == "present":
            out.extend(_print_present_block(name, tf.presentations[name]))
        out.append("")
    return "\n".join(out).rstrip() + "\n"


def _print_theory_block(name: str, T: Theory) -> list[str]:
    sig, equations, relations, chains = theory_parts(T)
    out = [f"theory {name} {{"]
    out.append(f"  base {_fmt_base(sig.base)}")
    out.append("  sort " + " ".join(sig.sorts.sorts))
    param_names: dict[int, str] = {}
    counter = 0
    one = terminal(sig.base.signature)
    for op in sig.ops:
        if op.param != one and id(op.param) not in param_names:
            counter += 1
            pname = f"P{counter}"
            param_names[id(op.param)] = pname
            out.append(f"  param {pname} {{")
            out.extend(_fmt_structure_body(op.param, "    "))
            out.append("  }")
    for op in sig.ops:
        inputs = " ".join(op.inputs.flat_sorts())
        head = f"  op {_fmt_symbol(op.name)} :{(' ' + inputs) if inputs else ''} -> {op.output}"
        if op.param != one:
            head += f" @ {param_names[id(op.param)]}"
        out.append(head)
    for eq in equations:
        label = f" {eq.name}" if eq.name else ""
        out.append(
            f"  eq{label} {_fmt_ctx(eq.context)} : "
            f"{_fmt_term(eq.lhs, eq.context)} == {_fmt_term(eq.rhs, eq.context)}"
        )
    for atom in relations:
        label = f" {atom.name}" if atom.name else ""
        out.append(f"  rel{label} {_fmt_ctx(atom.context)} : {_fmt_atom(atom)}")
    for ch in chains:
        label = f" {ch.name}" if ch.name else ""
        if isinstance(ch.chain, ExplicitChain):
            terms = ", ".join(_fmt_term(t, ch.context) for t in ch.chain.terms)
            out.append(
                f"  chain{label} {_fmt_ctx(ch.context)} : sup [{terms}] == "
                f"{_fmt_term(ch.limit, ch.context)}"
            )
        else:
            hole_ctx = extended_context(ch.context, ch.sort)
            out.append(
                f"  chain{label} {_fmt_ctx(ch.context)} : iter "
                f"{_fmt_term(ch.chain.seed, ch.context)}, "
                f"{hole_ctx.entries[-1][0]} -> {_fmt_term(ch.chain.step, hole_ctx)} == "
                f"{_fmt_term(ch.limit, ch.context)}"
            )
    out.append("}")
    return out


def _print_algebra_block(name: str, A: Algebra, tname: str, tf: TheoryFile) -> list[str]:
    out = [f"algebra {name} : {tname} {{"]
    model_names = {id(X): mname for mname, X in tf.models.items()}
    for s in A.signature.sorts.sorts:
        mname = model_names.get(id(A.carrier[s]))
        if mname is None:
            # fall back to matching by value
            for cand, X in tf.models.items():
                if X == A.carrier[s]:
                    mname = cand
                    break
        if mname is None:
            raise DslError(f"algebra {name!r} carrier at {s} is not a named model")
        out.append(f"  carrier {s} : {mname}")
    for symbol in sorted(A.interp):
        if "@" in symbol:
            head, param = symbol.split("@", 1)
            shown = f"op {head} @ {_fmt_id(param)}"
        else:
            shown = f"op {symbol}"
        entries = sorted(A.interp[symbol].items(), key=lambda kv: repr(kv))
        body = "; ".join(
            "(" + ", ".join(_fmt_id(x) for x in point) + f") -> {_fmt_id(v)}"
            for point, v in entries
        )
        out.append(f"  {shown} {{ {body} }}")
    out.append("}")
    return out


def _print_monad_block(name: str, M: RelMonadData) -> list[str]:
    out = [f"monad {name} {{"]
    out.append(f"  base {_fmt_base(M.base)}")
    out.append("  sort " + " ".join(M.sorts.sorts))
    labels = {J: f"J{i}" for i, J in enumerate(M.arities)}
    for J in M.arities:
        counts = dict(J.counts)
        body = ", ".join(f"{s}: {counts[s]}" for s, _ in J.counts)
        out.append(f"  arity {labels[J]} {{ {body} }}")
    for J in M.arities:
        out.append(f"  object {labels[J]} {{")
        for s in M.sorts.sorts:
            out.append(f"    sort {s} {{")
            out.extend(_fmt_structure_body(M.obj[J][s], "      "))
            out.append("    }")
        out.append("  }")
    for J in M.arities:
        blocks = "; ".join(
            f"{s}: [" + ", ".join(_fmt_id(x) for x in block) + "]"
            for s, block in zip(M.sorts.sorts, M.unit[J])
            if block
        )
        out.append(f"  unit {labels[J]} {{ {blocks} }}")
    for (J, K, k), table in sorted(
        M.ext.items(), key=lambda kv: (labels[kv[0][0]], labels[kv[0][1]], repr(kv[0][2]))
    ):
        kbody = "; ".join(
            f"{s}: [" + ", ".join(_fmt_id(x) for x in block) + "]"
            for s, block in zip(M.sorts.sorts, k)
            if block
        )
        parts = []
        for s in M.sorts.sorts:
            if not M.obj[J][s].carrier:
                continue
            entries = "; ".join(
                f"{_fmt_id(x)} -> {_fmt_id(v)}" for x, v in sorted(
                    table[s].items(), key=lambda kv: repr(kv)
                )
            )
            parts.append(f"{s}: {{ {entries} }}")
        out.append(f"  ext {labels[J]} -> {labels[K]} [{kbody}] {{ " + "; ".join(parts) + " }")
    out.append("}")
    return out


def _print_present_block(name: str, P: CpoPresentation) -> list[str]:
    out = [f"present {name} {{"]
    out.extend(
        line.replace("edge ", "le ", 1)
        for line in _fmt_structure_body(P.preorder, "  ")
    )
    for p, chain in P.covers:
        out.append(
            f"  cover {_fmt_id(p)} <| [" + ", ".join(_fmt_id(u) for u in chain) + "]"
        )
    out.append("}")
    return out
