"""Spans around trigcheck's layers, recorded from the benchmark's own code.

`Tracer.install` swaps each layer's public functions, and the FixNum and
FixFormat methods, for wrappers that record a span: its name, the span that
called it, start, end, and the operation it belongs to. It swaps every
binding of a wrapped function, not only the defining one: `fixtrig` holds
its own `cos_unbounded`, `cli` its own `to_decimal`, `verify.SUITES` its own
suite functions. `uninstall` puts the originals back.

Spans stay in memory in flat arrays until `dump` writes them out. A span's
self time is its duration minus the durations of its direct children, which
nest inside it because all work runs on one thread.
"""

from __future__ import annotations

import functools
import pickle
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

# span name -> (module, public functions it covers)
FUNCTIONS = {
    "exact.call": ("exact", ("parse_rational", "to_decimal", "rat_str")),
    "oracle.pi": ("oracle", ("pi_leibniz",)),
    "oracle.taylor": ("oracle", ("cos_taylor", "sin_taylor")),
    "oracle.zerone": ("oracle", ("cos_zerone", "sin_zerone")),
    "oracle.unbounded": ("oracle", ("cos_unbounded", "sin_unbounded")),
    "fixtrig.eval": ("fixtrig", ("cos_fixpoint", "sin_fixpoint",
                                 "paired_trace_cos", "paired_trace_sin")),
    "fixtrig.other": ("fixtrig", ("error_bound", "cos_term_count", "sin_term_count",
                                  "trace_to_csv", "trace_to_json_obj")),
    "floatrepro.scan": ("floatrepro", ("scan_table",)),
    "floatrepro.row": ("floatrepro", ("cos_code_in_c",)),
    "floatrepro.other": ("floatrepro", ("f32", "iteration_cap")),
    "verify.suite": ("verify", ("identities", "bounds", "appendix")),
    "cli.main": ("cli", ("main",)),
}
# span name -> (class in trigcheck.fixpoint, methods it covers)
METHODS = {
    "fixpoint.mul": ("FixNum", ("__mul__",)),
    "fixpoint.div": ("FixNum", ("__truediv__",)),
    "fixpoint.addsub": ("FixNum", ("__add__", "__sub__", "__neg__")),
    "fixpoint.other": ("FixFormat", ("parse", "exact", "from_int", "from_rat")),
}
MODULES = ("exact", "fixpoint", "oracle", "fixtrig", "floatrepro", "verify", "cli")


class Tracer:
    def __init__(self, tc) -> None:
        import trigcheck.cli  # noqa: F401  (verify and cli are not imported by the package)
        import trigcheck.verify  # noqa: F401

        self.names: list[str] = []
        self.span_name = array("H")
        self.parent = array("l")
        self.op_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op = -1
        self.counts: Counter = Counter()
        self._patches = []  # (setter, original, wrapper)

        posts = {"fixtrig.eval": self._count_fixtrig, "oracle.pi": self._count_iterations,
                 "oracle.taylor": self._count_iterations,
                 "oracle.zerone": self._count_iterations, "floatrepro.scan": self._count_rows}
        wrappers = {}
        for name, (module, functions) in FUNCTIONS.items():
            for fn_name in functions:
                original = getattr(getattr(tc, module), fn_name)
                wrappers[id(original)] = (original, self._wrap(original, name, posts.get(name)))
        for mod in [tc] + [getattr(tc, m) for m in MODULES]:
            for attr, value in vars(mod).items():
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patch(functools.partial(setattr, mod, attr), *wrappers[id(value)])
        for key, value in tc.verify.SUITES.items():
            self._patch(functools.partial(tc.verify.SUITES.__setitem__, key),
                        *wrappers[id(value)])
        for name, (cls_name, methods) in METHODS.items():
            cls = getattr(tc.fixpoint, cls_name)
            for method in methods:
                original = cls.__dict__[method]
                if isinstance(original, classmethod):
                    wrapper = classmethod(self._wrap(original.__func__, name))
                else:
                    wrapper = self._wrap(original, name)
                self._patch(functools.partial(setattr, cls, method), original, wrapper)

    def _patch(self, setter, original, wrapper) -> None:
        self._patches.append((setter, original, wrapper))

    def install(self) -> None:
        for setter, _, wrapper in self._patches:
            setter(wrapper)

    def uninstall(self) -> None:
        for setter, original, _ in self._patches:
            setter(original)

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, fn, name: str, post=None):
        ix = self._name_id(name)
        stack, names, parents, ops = self.stack, self.span_name, self.parent, self.op_id
        starts, ends = self.start, self.end
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            me = len(starts)
            names.append(ix)
            parents.append(stack[-1])
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append(me)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[me] = perf_counter()
                stack.pop()
            if post is not None:
                post(out)
            return out

        return span

    def run_op(self, fn, args):
        """One benchmark operation, as the root span of everything it calls."""
        self.op += 1
        return self._wrap(fn, "op")(*args)

    def _count_fixtrig(self, out) -> None:
        result = getattr(out, "result", out)
        self.counts["fixtrig.terms"] += result.n
        self.counts["fixtrig.trace_records"] += len(getattr(out, "records", ()))

    def _count_iterations(self, out) -> None:
        self.counts["oracle.iterations"] += out.iterations

    def _count_rows(self, out) -> None:
        self.counts["floatrepro.rows"] += len(out)

    def dump(self, path: Path) -> None:
        payload = {"names": self.names,
                   **{key: getattr(self, key).tobytes()
                      for key in ("span_name", "parent", "op_id", "start", "end")}}
        path.write_bytes(pickle.dumps(payload))

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds; plus counts."""
        n = len(self.start)
        children = [0.0] * n
        duration = [self.end[i] - self.start[i] for i in range(n)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                children[p] += duration[i]
        calls, total, own = Counter(), Counter(), Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            total[name] += duration[i]
            own[name] += duration[i] - children[i]
        reference = sum(1 for i in range(n)
                        if self.names[self.span_name[i]] == "oracle.unbounded"
                        and self.parent[i] >= 0
                        and self.names[self.span_name[self.parent[i]]] == "fixtrig.eval")
        return {"calls": dict(calls), "total_s": dict(total), "self_s": dict(own),
                "counts": dict(self.counts, **{"fixtrig.reference_calls": reference})}
