"""Command-line front door: parse DSL files, dispatch to the engine, emit
human and JSON reports.

Exit codes: 0 success / property holds; 1 semantic failure (with witnesses in
the report); 2 usage or parse error.
"""
from __future__ import annotations

import argparse
import json
import sys

from .budget import BadBudget, Budget, BudgetExceeded
from .algebra import (
    algebra_to_json,
    enumerate_algebras,
    satisfies_theory,
    theory_parts,
    validate_algebra,
)
from .cpo import free_omega_cpo
from .dsl import DslError, TheoryFile, parse_theory, print_theory
from .monad import (
    check_relative_monad,
    free_algebra,
    theory_from_monad,
    verify_presentation,
)
from .relcore import (
    HornTheory,
    NotClosed,
    StructureError,
    builtin_theory,
    chase,
    enumerate_morphisms,
    exponential,
    is_model,
    render_id,
    structure_to_json,
)
from .syntax import Arity, SortError, SortSet
from .translate import (
    cpo_classical_to_enriched,
    cpo_enriched_to_classical,
    enriched_to_relational,
    relational_to_enriched,
    verify_theory_equivalence,
)

def _load_file(path: str) -> TheoryFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_theory(fh.read())
    except FileNotFoundError:
        raise DslError(f"no such file: {path}")


def _resolve_base(spec: str | None, tf: TheoryFile, model: str | None = None) -> HornTheory:
    """--theory accepts a builtin name or a theory file; without it, a model's
    declared base is used."""
    if spec is None:
        if model is not None and model in tf.model_bases:
            return tf.model_bases[model]
        bases = set(tf.model_bases.values())
        if len(bases) == 1:
            return next(iter(bases))
        raise DslError("ambiguous base theory; pass --theory")
    if spec in ("set", "preord", "pos") or spec.startswith(("simp(", "qchain(")):
        try:
            return builtin_theory(spec)
        except StructureError as e:
            raise DslError(f"--theory {spec}: {e}") from None
    inner = _load_file(spec)
    return theory_parts(inner.sole_theory())[0].base


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _models_of(tf: TheoryFile, name: str | None) -> list[tuple[str, object]]:
    if name is not None:
        if name not in tf.models:
            raise DslError(f"no model named {name!r} in the file")
        return [(name, tf.models[name])]
    if not tf.models:
        raise DslError("the file declares no model blocks")
    return [(n, tf.models[n]) for kind, n in tf.order if kind == "model"]


def cmd_check_model(args) -> int:
    tf = _load_file(args.file)
    failures = []
    rows = []
    for name, X in _models_of(tf, args.model):
        T = _resolve_base(args.theory, tf, name)
        ok = is_model(X, T)
        rows.append(f"{name}: {'model' if ok else 'NOT a model'} of {T.name}")
        if not ok:
            failures.append(name)
    _emit(
        args,
        {"schema": "enrvar/check-model@1", "pass": not failures, "failures": failures},
        rows,
    )
    return 1 if failures else 0


def cmd_free_model(args) -> int:
    tf = _load_file(args.file)
    payload = {"schema": "enrvar/free-model@1", "models": {}}
    lines = []
    for name, X in _models_of(tf, args.model):
        T = _resolve_base(args.theory, tf, name)
        model, unit = chase(X, T)
        payload["models"][name] = {
            "model": structure_to_json(model),
            "unit": {render_id(k): render_id(v) for k, v in unit.items()},
        }
        lines.append(f"free {T.name}-model on {name}:")
        lines.append(f"  carrier: {[render_id(x) for x in model.carrier]}")
        for rel, tup in sorted(model.edges, key=lambda e: (e[0], str(e[1]))):
            lines.append(f"  edge {rel}({', '.join(render_id(x) for x in tup)})")
        lines.append(
            "  unit: " + ", ".join(f"{render_id(k)} -> {render_id(v)}" for k, v in unit.items())
        )
    _emit(args, payload, lines)
    return 0


def cmd_exp(args) -> int:
    tf = _load_file(args.file)
    for nm in (args.x, args.y):
        if nm not in tf.models:
            raise DslError(f"no model named {nm!r} in the file")
    T = _resolve_base(args.theory, tf, args.x)
    try:
        E = exponential(tf.models[args.x], tf.models[args.y], T)
    except NotClosed as e:
        _emit(
            args,
            {"schema": "enrvar/exp@1", "pass": False, "error": str(e)},
            [f"not closed: {e}"],
        )
        return 1
    payload = {
        "schema": "enrvar/exp@1",
        "pass": True,
        "exponential": structure_to_json(E),
    }
    lines = [f"[{args.x}, {args.y}] over {T.name}: {len(E.carrier)} morphisms"]
    for rel, tup in sorted(E.edges, key=lambda e: (e[0], str(e[1]))):
        lines.append(f"  edge {rel}({', '.join(render_id(x) for x in tup)})")
    _emit(args, payload, lines)
    return 0


def cmd_check_algebra(args) -> int:
    tf = _load_file(args.file)
    names = [args.algebra] if args.algebra else list(tf.algebras)
    if not names:
        raise DslError("the file declares no algebra blocks")
    failures = []
    lines = []
    payload = {"schema": "enrvar/check-algebra@1", "algebras": {}}
    for name in names:
        if name not in tf.algebras:
            raise DslError(f"no algebra named {name!r} in the file")
        A = tf.algebras[name]
        T = tf.theories[tf.algebra_theories[name]]
        report = validate_algebra(A)
        holds = report.ok and satisfies_theory(A, T)
        if report.ok and not holds:
            report.problems.append("a theory law fails")
        lines.append(f"{name}: {'valid algebra' if holds else 'INVALID'}")
        lines.extend(f"  - {p}" for p in report.problems)
        payload["algebras"][name] = {
            "pass": holds,
            "problems": report.problems,
            "algebra": algebra_to_json(A),
        }
        if not holds:
            failures.append(name)
    payload["pass"] = not failures
    payload["failures"] = failures
    _emit(args, payload, lines)
    return 1 if failures else 0


def cmd_check_theory(args) -> int:
    tf = _load_file(args.file)
    lines = []
    payload = {"schema": "enrvar/check-theory@1", "blocks": {}}
    for kind, name in tf.order:
        if kind == "theory":
            T = tf.theories[name]
            sig, eqs, rels, chains = theory_parts(T)
            desc = (
                f"theory {name}: base={sig.base.name} sorts={len(sig.sorts.sorts)} "
                f"ops={len(sig.ops)} eqs={len(eqs)} rels={len(rels)} chains={len(chains)}"
            )
        else:
            desc = f"{kind} {name}"
        lines.append(desc)
        payload["blocks"][name] = desc
    lines.append("all blocks load and sort-check")
    _emit(args, payload, lines)
    return 0


_TRANSLATIONS = {
    "relational": enriched_to_relational,
    "enriched": relational_to_enriched,
    "cpo-classical": cpo_enriched_to_classical,
    "cpo-enriched": cpo_classical_to_enriched,
}


def cmd_translate(args) -> int:
    tf = _load_file(args.file)
    T = tf.sole_theory()
    out, _ = _TRANSLATIONS[args.to](T)
    result = TheoryFile()
    name = out.name or "translated"
    result.theories[name] = out
    result.order.append(("theory", name))
    text = print_theory(result)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_verify_equiv(args) -> int:
    ta = _load_file(args.file_a).sole_theory()
    tb = _load_file(args.file_b).sole_theory()
    report = verify_theory_equivalence(
        ta,
        tb,
        args.max_carrier,
        budget=Budget(args.budget),
        seed=args.seed,
    )
    lines = [f"correspondence: {report.label}"]
    for row in report.rows:
        status = "ok" if row.ok else f"FAIL ({row.detail})"
        lines.append(
            f"  {row.descriptor}: {row.count_left} ~ {row.count_right} algebras, "
            f"{row.hom_pairs_checked} hom pairs: {status}"
        )
    lines.append("PASS" if report.ok else "FAIL")
    _emit(args, report.to_json(), lines)
    return 0 if report.ok else 1


def cmd_check_monad(args) -> int:
    tf = _load_file(args.file)
    names = [args.monad] if args.monad else list(tf.monads)
    if not names:
        raise DslError("the file declares no monad blocks")
    failures = []
    lines = []
    for name in names:
        if name not in tf.monads:
            raise DslError(f"no monad named {name!r} in the file")
        report = check_relative_monad(tf.monads[name])
        lines.append(f"{name}: {'laws hold' if report.ok else 'laws FAIL'}")
        lines.extend(f"  - {v}" for v in report.violations)
        if not report.ok:
            failures.append(name)
    _emit(
        args,
        {"schema": "enrvar/check-monad@1", "pass": not failures, "failures": failures},
        lines,
    )
    return 1 if failures else 0


def cmd_theory_of_monad(args) -> int:
    tf = _load_file(args.file)
    names = [args.monad] if args.monad else list(tf.monads)
    if len(names) != 1:
        raise DslError("pass --monad to pick one monad block")
    M = tf.monads[names[0]]
    T = theory_from_monad(M)
    result = TheoryFile()
    name = T.name or "induced"
    result.theories[name] = T
    result.order.append(("theory", name))
    print(print_theory(result), end="")
    return 0


def _parse_arity(spec: str, sorts: SortSet) -> Arity:
    counts: dict[str, int] = {}
    if spec.isdigit():
        if len(sorts.sorts) != 1:
            raise DslError("bare arity numbers need a single-sorted theory")
        counts[sorts.sorts[0]] = int(spec)
    else:
        for part in spec.split(","):
            if not part:
                continue
            s, _, n = part.partition("=")
            if not n.isdigit():
                raise DslError(f"bad arity component {part!r} (want sort=count)")
            counts[s.strip()] = int(n)
    return Arity.of(sorts, {s: n for s, n in counts.items() if n > 0})


def cmd_free_algebra(args) -> int:
    tf = _load_file(args.file)
    T = tf.sole_theory()
    sig = theory_parts(T)[0]
    J = _parse_arity(args.arity, sig.sorts)
    res = free_algebra(T, J, depth_bound=args.depth, budget=Budget(args.budget))
    payload = {
        "schema": "enrvar/free-algebra@1",
        "saturated": res.saturated,
        "classes": res.class_count,
        "carriers": {
            s: structure_to_json(X) for s, X in res.algebra.carrier.items()
        },
        "generators": [
            [render_id(x) for x in block] for block in res.generators
        ],
    }
    lines = [
        f"free algebra on {J.label()}: {res.class_count} classes, "
        f"saturated={res.saturated}"
    ]
    for s, X in res.algebra.carrier.items():
        lines.append(f"  {s}: {[render_id(x) for x in X.carrier]}")
    _emit(args, payload, lines)
    return 0


def cmd_verify_presentation(args) -> int:
    tf = _load_file(args.file)
    names = [args.monad] if args.monad else list(tf.monads)
    if len(names) != 1:
        raise DslError("pass --monad to pick one monad block")
    M = tf.monads[names[0]]
    law_report = check_relative_monad(M)
    if not law_report.ok:
        _emit(
            args,
            {"schema": "enrvar/verify-presentation@1", "pass": False,
             "violations": law_report.violations},
            ["monad laws fail:"] + [f"  - {v}" for v in law_report.violations],
        )
        return 1
    report = verify_presentation(M, args.max_carrier, budget=Budget(args.budget))
    lines = []
    for row in report.rows:
        status = "ok" if row.ok else f"FAIL ({row.detail})"
        lines.append(
            f"  {row.descriptor}: {row.count_left} ~ {row.count_right} algebras: {status}"
        )
    lines.append("PASS" if report.ok else "FAIL")
    _emit(args, report.to_json(), lines)
    return 0 if report.ok else 1


def cmd_free_cpo(args) -> int:
    tf = _load_file(args.file)
    names = [args.present] if args.present else list(tf.presentations)
    if not names:
        raise DslError("the file declares no present blocks")
    payload = {"schema": "enrvar/free-cpo@1", "results": {}}
    lines = []
    for name in names:
        if name not in tf.presentations:
            raise DslError(f"no presentation named {name!r} in the file")
        poset, unit = free_omega_cpo(tf.presentations[name])
        payload["results"][name] = {
            "poset": structure_to_json(poset),
            "unit": {render_id(k): render_id(v) for k, v in unit.items()},
        }
        lines.append(f"free completion of {name}:")
        lines.append(f"  carrier: {[render_id(x) for x in poset.carrier]}")
        for rel, tup in sorted(poset.edges, key=lambda e: (e[0], str(e[1]))):
            lines.append(f"  {render_id(tup[0])} <= {render_id(tup[1])}")
        lines.append(
            "  unit: " + ", ".join(f"{render_id(k)} -> {render_id(v)}" for k, v in unit.items())
        )
    _emit(args, payload, lines)
    return 0


def cmd_enumerate(args) -> int:
    tf = _load_file(args.file)
    if args.morphisms:
        x, y = args.morphisms
        for nm in (x, y):
            if nm not in tf.models:
                raise DslError(f"no model named {nm!r} in the file")
        morphs = enumerate_morphisms(tf.models[x], tf.models[y], Budget(args.budget))
        payload = {
            "schema": "enrvar/enumerate@1",
            "count": len(morphs),
            "morphisms": [
                {render_id(k): render_id(v) for k, v in m.items()} for m in morphs
            ],
        }
        lines = [f"{len(morphs)} morphisms {x} -> {y}"] + [
            "  {" + ", ".join(f"{render_id(k)} -> {render_id(v)}" for k, v in m.items()) + "}"
            for m in morphs
        ]
        _emit(args, payload, lines)
        return 0
    if args.algebras:
        T = tf.sole_theory()
        sig = theory_parts(T)[0]
        carrier = {}
        spec = args.algebras
        if "=" in spec:
            for part in spec.split(","):
                s, _, mname = part.partition("=")
                if mname not in tf.models:
                    raise DslError(f"no model named {mname!r} in the file")
                carrier[s.strip()] = tf.models[mname]
        else:
            if len(sig.sorts.sorts) != 1:
                raise DslError("bare carrier names need a single-sorted theory")
            if spec not in tf.models:
                raise DslError(f"no model named {spec!r} in the file")
            carrier[sig.sorts.sorts[0]] = tf.models[spec]
        algs = enumerate_algebras(T, carrier, budget=Budget(args.budget))
        payload = {"schema": "enrvar/enumerate@1", "count": len(algs)}
        lines = [f"{len(algs)} algebras on the given carrier"]
        _emit(args, payload, lines)
        return 0
    raise DslError("pass --morphisms X Y or --algebras CARRIER")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="enrvar",
        description="engine for sorted equational theories over relational Horn bases",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def limit(text: str) -> int:  # argparse reports a ValueError as an invalid value
        if int(text) < 1:
            raise argparse.ArgumentTypeError(f"must be at least 1, not {text}")
        return int(text)

    def common(sp, theory=False, budget=False):
        sp.add_argument("--json", action="store_true", help="emit a JSON report")
        if theory:
            sp.add_argument("--theory", help="builtin base (set|preord|pos|simp(N)|qchain(N)) or theory file")
        if budget:
            sp.add_argument("--budget", type=limit, default=None, help="enumeration budget")

    sp = sub.add_parser("check-model", help="check structures against a Horn theory")
    sp.add_argument("file")
    sp.add_argument("--model", help="restrict to one model block")
    common(sp, theory=True)
    sp.set_defaults(fn=cmd_check_model)

    sp = sub.add_parser("free-model", help="chase a structure to its free model")
    sp.add_argument("file")
    sp.add_argument("--model", help="restrict to one model block")
    common(sp, theory=True)
    sp.set_defaults(fn=cmd_free_model)

    sp = sub.add_parser("exp", help="certified exponential of two models")
    sp.add_argument("file")
    sp.add_argument("x")
    sp.add_argument("y")
    common(sp, theory=True)
    sp.set_defaults(fn=cmd_exp)

    sp = sub.add_parser("check-algebra", help="validate algebra blocks")
    sp.add_argument("file")
    sp.add_argument("--algebra", help="restrict to one algebra block")
    common(sp)
    sp.set_defaults(fn=cmd_check_algebra)

    sp = sub.add_parser("check-theory", help="load and sort-check a file")
    sp.add_argument("file")
    common(sp)
    sp.set_defaults(fn=cmd_check_theory)

    sp = sub.add_parser("translate", help="translate between theory presentations")
    sp.add_argument("file")
    sp.add_argument("--to", required=True, choices=sorted(_TRANSLATIONS))
    sp.add_argument("-o", "--output", help="write the translated theory to a file")
    common(sp)
    sp.set_defaults(fn=cmd_translate)

    sp = sub.add_parser("verify-equiv", help="verify two theories have the same algebras")
    sp.add_argument("file_a")
    sp.add_argument("file_b")
    sp.add_argument("--max-carrier", type=int, default=2)
    sp.add_argument("--seed", type=int, default=None, help="seed for hom-pair sampling")
    common(sp, budget=True)
    sp.set_defaults(fn=cmd_verify_equiv)

    sp = sub.add_parser("check-monad", help="check relative-monad truncation laws")
    sp.add_argument("file")
    sp.add_argument("--monad", help="restrict to one monad block")
    common(sp)
    sp.set_defaults(fn=cmd_check_monad)

    sp = sub.add_parser("theory-of-monad", help="print the induced equational theory")
    sp.add_argument("file")
    sp.add_argument("--monad")
    common(sp)
    sp.set_defaults(fn=cmd_theory_of_monad)

    sp = sub.add_parser("free-algebra", help="bounded free algebra of a theory")
    sp.add_argument("file")
    sp.add_argument("--arity", required=True, help="generator counts, e.g. 2 or M=2,N=1")
    sp.add_argument("--depth", type=int, default=3)
    common(sp, budget=True)
    sp.set_defaults(fn=cmd_free_algebra)

    sp = sub.add_parser("verify-presentation", help="truncation algebras vs theory algebras")
    sp.add_argument("file")
    sp.add_argument("--monad")
    sp.add_argument("--max-carrier", type=int, default=2)
    common(sp, budget=True)
    sp.set_defaults(fn=cmd_verify_presentation)

    sp = sub.add_parser("free-cpo", help="free chain-complete poset of a presentation")
    sp.add_argument("file")
    sp.add_argument("--present", help="restrict to one presentation block")
    common(sp)
    sp.set_defaults(fn=cmd_free_cpo)

    sp = sub.add_parser("enumerate", help="enumerate morphisms or algebras")
    sp.add_argument("file")
    sp.add_argument("--morphisms", nargs=2, metavar=("X", "Y"))
    sp.add_argument("--algebras", metavar="CARRIER", help="model name or sort=model pairs")
    common(sp, budget=True)
    sp.set_defaults(fn=cmd_enumerate)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (DslError, SortError, BadBudget) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (StructureError, NotClosed, BudgetExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
