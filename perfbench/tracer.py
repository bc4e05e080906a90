"""Spans around calls into the program's layers, recorded from outside.

The tracer wraps the public functions listed in LAYERS.  A module that bound
one of them with `from .relcore import ...` holds its own reference, so
`install` rebinds every copy in every loaded enrvar module: calls between
modules are traced as well as the benchmark's own calls.

A span is (id, parent id, function, op id, start, end).  Spans stay in
memory, in flat arrays, until `write_spans` is called at the end of the run;
self time (a span's duration minus the part its child spans cover) and call
counts are kept per function as spans close.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from array import array

LAYERS = {
    "relcore": (
        "satisfies_formula", "is_model", "chase", "enumerate_morphisms", "product",
        "exponential", "curry", "uncurry", "is_pi_morphism",
    ),
    "isoenum": ("models_up_to", "all_structures"),
    "cpo": ("free_omega_cpo", "is_presentation_morphism"),
    "algebra": ("enumerate_algebras", "hom_object", "satisfies_theory", "is_homomorphism"),
    "translate": ("verify_theory_equivalence",),
    "monad": ("free_algebra", "verify_presentation", "enumerate_tj_algebras"),
    "dsl": ("parse_theory",),
}

TRACED = tuple(f"{m}.{f}" for m, fs in LAYERS.items() for f in fs)

# work counts observed at the layer boundaries; the first is a ratio that
# `metrics` computes from the distinct arguments seen
WORK = (
    "relcore.exponential.fresh_ratio",
    "relcore.enumerate_morphisms.maps",
    "relcore.chase.edges_added",
    "relcore.chase.elements_merged",
    "monad.free_algebra.classes",
    "algebra.enumerate_algebras.algebras",
)


def _chase_counts(tracer, args, result):
    X = args[0]
    unit = result.unit
    image = {(rel, tuple(unit[x] for x in tup)) for rel, tup in X.edges}
    tracer.work["relcore.chase.edges_added"] += len(result.model.edges - image)
    tracer.work["relcore.chase.elements_merged"] += len(X.carrier) - len(result.model.carrier)


def _exponential_args(tracer, args, result):
    tracer.exponential_args.add(args[:3])


OBSERVERS = {
    "relcore.exponential": _exponential_args,
    "relcore.enumerate_morphisms": lambda t, a, r: t.count("relcore.enumerate_morphisms.maps", len(r)),
    "relcore.chase": _chase_counts,
    "monad.free_algebra": lambda t, a, r: t.count("monad.free_algebra.classes", r.class_count),
    "algebra.enumerate_algebras": lambda t, a, r: t.count("algebra.enumerate_algebras.algebras", len(r)),
}


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(TRACED, 0)
        self.self_s = dict.fromkeys(TRACED, 0.0)
        self.work = dict.fromkeys(WORK, 0)
        self.exponential_args: set = set()
        self.op = -1  # the op whose calls are being traced; -1 is set-up
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0
        self._ids = array("q")
        self._parents = array("q")
        self._names = array("H")
        self._ops = array("q")
        self._starts = array("d")
        self._ends = array("d")
        self._installed: list[tuple[object, str, object]] = []

    def count(self, name: str, n: int) -> None:
        self.work[name] += n

    def wrap(self, qualname: str, fn):
        name_id = TRACED.index(qualname)
        observe = OBSERVERS.get(qualname)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self._next_id, 0.0]
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][1] += took
                self.calls[qualname] += 1
                self.self_s[qualname] += took - span[1]
                self._ids.append(span[0])
                self._parents.append(parent)
                self._names.append(name_id)
                self._ops.append(self.op)
                self._starts.append(start)
                self._ends.append(end)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function and rebind each module-level copy."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "enrvar" or n.startswith("enrvar."))
        ]
        for module_name, functions in LAYERS.items():
            home = sys.modules[f"enrvar.{module_name}"]
            for fname in functions:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{module_name}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._installed.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._installed):
            setattr(m, attr, original)
        self._installed.clear()

    def metrics(self, overhead_s: float) -> dict:
        out = {}
        for q in TRACED:
            out[f"{q}.calls"] = {"value": self.calls[q], "unit": "count"}
            out[f"{q}.self_s"] = {"value": self.self_s[q], "unit": "s"}
        calls = self.calls["relcore.exponential"]
        ratio = len(self.exponential_args) / calls if calls else 1.0
        out["relcore.exponential.fresh_ratio"] = {"value": ratio, "unit": "ratio"}
        for name in WORK[1:]:
            out[name] = {"value": self.work[name], "unit": "count"}
        out["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
        return out

    def write_spans(self, path) -> int:
        """One JSON object per line: id, parent, name, op, start, end (seconds
        on the process's performance counter)."""
        with open(path, "w") as fh:
            for i in range(len(self._ids)):
                fh.write(json.dumps([
                    self._ids[i], self._parents[i], TRACED[self._names[i]],
                    self._ops[i], round(self._starts[i], 7), round(self._ends[i], 7),
                ]) + "\n")
        return len(self._ids)
