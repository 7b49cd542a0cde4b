"""Run the qeuler CLI with the public functions of every module wrapped in spans.

Usage: PYTHONPATH=src python perfbench/tracer.py <qeuler cli arguments>

The CLI's output on stdout is unchanged.  At exit one line
``perfbench-trace <json>`` goes to stderr with the aggregated spans:

* ``calls``: calls per span name (``layer.function``); a generator counts
  one call per resume;
* ``incl``: inclusive seconds per group, counting only the outermost span of
  a group so that nested and recursive calls are not counted twice;
* ``self``: self seconds per layer, a span's duration minus its children;
* ``counts``: work counters (term pairs, S_n sweeps, paths, tableaux, ...);
* ``edges``: calls per (caller layer, span name), which shows that bindings
  imported by name (``from .paths import path_from_steps``) are wrapped;
* ``checks``: ``CheckResult.elapsed`` of every check ``run_suites`` ran.

Every span is folded into these counters as it closes, so a million
``Poly.__mul__`` calls allocate no span objects.  Generators are timed over
their iteration, one segment per resume, not over the call creating them.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import inspect
import json
import math
import sys
import time
import types
from collections import Counter, defaultdict

MODULES = (
    "poly",
    "permutations",
    "paths",
    "tableaux",
    "bijections",
    "closedforms",
    "ansatz",
    "verify",
    "cli",
)

# Groups a span belongs to besides its layer; metric names follow them.
GROUPS = {
    "poly.Poly.__mul__": ("poly.mul",),
    "poly.exact_div_one_minus_q_pow": ("poly.div",),
    "poly.Poly.__init__": ("poly.new",),
    "poly.Poly.__add__": ("poly.add",),
    "poly.Poly.__sub__": ("poly.add",),
    "poly.Poly.__rsub__": ("poly.add",),
    "poly.Poly.__neg__": ("poly.add",),
    "poly.poly_sum": ("poly.add",),
    "poly.Poly.to_json_obj": ("cli.render",),
    "paths.path_from_steps": ("paths.build", "enum"),
    "paths.WeightedPath.weight": ("paths.weight", "enum"),
    "paths.enumerate_family": ("paths.enumerate",),
    "paths.cf_series": ("paths.cf_series",),
    "paths.euler_dyck_sum": ("paths.transfer",),
    "paths.touchard_dyck_sum": ("paths.transfer",),
    "paths.laguerre_sum": ("paths.transfer",),
    "paths.large_laguerre_sum": ("paths.transfer",),
    "paths.derangement_motzkin_sum": ("paths.transfer",),
    "paths.secant_core_path_sum": ("paths.transfer",),
    "paths.tangent_core_path_sum": ("paths.transfer",),
    "paths.schroder_signed_sum": ("paths.transfer",),
    "bijections.francon_viennot": ("bijections.fv",),
    "tableaux.fillings": ("tableaux.fillings",),
    "ansatz.normal_power": ("ansatz.normal_power",),
    "verify.render_reports": ("cli.render",),
    "cli.json.dumps": ("cli.render",),
    "cli.print": ("cli.render",),
}
# Whole layers that also belong to a group.
LAYER_GROUPS = {"bijections": ("enum",), "permutations": ("enum",)}
# Inclusive time of the first group spent inside the second.
NESTED = {"poly.mul": "paths.cf_series"}
# Private targets wrapped besides the public functions.
EXTRA = {
    "poly": ("Poly.__init__", "Poly.__mul__", "Poly.__add__", "Poly.__sub__",
             "Poly.__rsub__", "Poly.__neg__", "Poly.to_json_obj"),
    "paths": ("WeightedPath.weight",),
    "permutations": ("_wex_cr_counts", "_asc_312_counts", "_alt_312_counts"),
}


class Tracer:
    """Aggregating span recorder; one instance per traced process."""

    def __init__(self) -> None:
        self.stack: list[list] = [["main", 0.0]]  # [layer, child seconds]
        self.depth: dict[str, int] = {}
        self.incl: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.edges: Counter = Counter()
        self.checks: list[float] = []

    def span(self, fn, name: str, layer: str, before=None, after=None, materialize=False):
        """Wrap a function so that each call is one span of the given name.

        With materialize, the first argument (an iterable) is turned into a list
        before the span opens, so that a lazy producer passed to a consumer such
        as poly_sum is timed in the caller's span, where its work belongs.
        """
        groups = (layer,) + LAYER_GROUPS.get(layer, ()) + GROUPS.get(name, ())
        nested = [(g, NESTED[g]) for g in groups if g in NESTED]
        stack, depth, incl, self_s = self.stack, self.depth, self.incl, self.self_s
        edges, clock = self.edges, time.perf_counter
        for g in groups + tuple(outer for _, outer in nested):
            depth.setdefault(g, 0)

        def timed(call, args, kwargs):
            parent = stack[-1]
            edges[(parent[0], name)] += 1
            opened = [g for g in groups if not depth[g]]
            for g in groups:
                depth[g] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return call(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                parent[1] += dur
                self_s[layer] += dur - frame[1]
                for g in groups:
                    depth[g] -= 1
                for g in opened:
                    incl[g] += dur
                for g, outer in nested:
                    if g in opened and depth[outer]:
                        incl[g + "@" + outer] += dur

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                if before:
                    before(*args, **kwargs)
                it = fn(*args, **kwargs)
                try:
                    while True:
                        try:
                            item = timed(next, (it,), {})
                        except StopIteration:
                            return
                        if after:
                            after(item)
                        yield item
                finally:
                    it.close()
        else:
            def wrapper(*args, **kwargs):
                if before:
                    before(*args, **kwargs)
                if materialize:
                    args = (list(args[0]),) + args[1:]
                result = timed(fn, args, kwargs)
                if after:
                    after(result)
                return result

        return functools.wraps(fn)(wrapper)

    # -- work counters attached to particular spans ----------------------------

    def _mul_before(self, a, b) -> None:
        la = len(a._terms)
        lb = len(b._terms) if hasattr(b, "_terms") else 1
        self.counts["poly.mul.term_pairs"] += la * lb
        if la <= 1 or lb <= 1:
            self.counts["poly.mul.monomial_calls"] += 1

    def _enumerate_before(self, family, length, restricted=False) -> None:
        self.counts[f"paths.enumerate.request:{family}:{length}:{bool(restricted)}"] += 1

    def _count(self, key: str):
        def after(_item) -> None:
            self.counts[key] += 1
        return after

    def _collect_checks(self, reports) -> None:
        self.checks.extend(c.elapsed for r in reports for c in r.checks)

    def _census(self, cached):
        """Count n! per cache fill of an lru_cached S_n sweep."""
        def wrapper(n):
            misses = cached.cache_info().misses
            result = cached(n)
            if cached.cache_info().misses > misses:
                self.counts["permutations.sweep_perms"] += math.factorial(n)
            return result
        return functools.wraps(cached)(wrapper)

    def hooks(self, name: str) -> dict:
        return {
            "poly.Poly.__mul__": {"before": self._mul_before},
            "paths.enumerate_family": {"before": self._enumerate_before,
                                       "after": self._count("paths.enumerate.paths")},
            "tableaux.fillings": {"after": self._count("tableaux.count")},
            "verify.run_suites": {"after": self._collect_checks},
            "poly.poly_sum": {"materialize": True},
        }.get(name, {})

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every target and rebind each name that refers to it, in any module."""
        mods = {m: importlib.import_module(f"qeuler.{m}") for m in MODULES}
        wrapped: dict[int, object] = {}
        for layer, mod in mods.items():
            targets = [
                (attr, fn) for attr, fn in vars(mod).items()
                if not attr.startswith("_") and inspect.isfunction(fn)
                and fn.__module__ == mod.__name__
            ]
            for path in EXTRA.get(layer, ()):
                owner = mod
                for part in path.split("."):
                    owner = getattr(owner, part)
                targets.append((path, owner))
            for attr, fn in targets:
                name = f"{layer}.{attr}"
                inner = self._census(fn) if hasattr(fn, "cache_info") else fn
                wrapped[id(fn)] = self.span(inner, name, layer, **self.hooks(name))
        for mod in mods.values():
            namespaces = [mod] + [
                cls for cls in vars(mod).values()
                if inspect.isclass(cls) and cls.__module__ == mod.__name__
            ]
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if id(value) in wrapped and callable(value):
                        setattr(ns, attr, wrapped[id(value)])
        cli = mods["cli"]
        cli.json = types.SimpleNamespace(dumps=self.span(json.dumps, "cli.json.dumps", "cli"))
        cli.print = self.span(builtins.print, "cli.print", "cli")

    def summary(self) -> dict:
        calls: Counter = Counter()
        for (_, name), n in self.edges.items():
            calls[name] += n
        return {
            "calls": dict(calls),
            "incl": dict(self.incl),
            "self": dict(self.self_s),
            "counts": dict(self.counts),
            "edges": {f"{caller}>{name}": n for (caller, name), n in self.edges.items()},
            "checks": self.checks,
        }


def main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    from qeuler.cli import main as cli_main

    try:
        code = cli_main(argv)
    finally:
        sys.stdout.flush()
        sys.stderr.write("perfbench-trace " + json.dumps(tracer.summary()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
