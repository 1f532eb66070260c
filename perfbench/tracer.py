"""Spans and counters recorded around the thetasums layer boundaries.

The wrappers are installed from outside the package.  Every module and
class attribute in ``thetasums.*`` that refers to a wrapped function is
replaced, so the ``from ... import`` bindings in catalog, transfer, cli and
the package root go through the wrappers too.  The wrappers add no caching:
a call the package caches is still made, and a cache hit is read from the
function's own ``cache_info()``.

A span is [name, start, end, parent index]; spans stay in memory until
``dump`` writes them out.  A span's self time is its duration minus the
durations of its direct children (calls are single-threaded, so children
never overlap).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Metric names and units, as BENCHMARK.json lists them.
METRICS = {
    "catalog.load_s": "s",
    "catalog.entries": "count",
    "dsl.parse_s": "s",
    "dsl.parse_calls": "count",
    "catalog.check_self_s": "s",
    "catalog.rows": "count",
    "catalog.rows_failed": "count",
    "report.render_s": "s",
    "polygonal.sieve_s": "s",
    "polygonal.sieve_calls": "count",
    "polygonal.sieve_misses": "count",
    "polygonal.sieve_distinct_families": "count",
    "polygonal.sieve_useful_ratio": "ratio",
    "polygonal.sieve_folds": "count",
    "polygonal.sieve_bytes_computed": "bytes",
    "polygonal.mask_bytes_computed": "bytes",
    "polygonal.certify_calls": "count",
    "polygonal.certify_cache_hits": "count",
    "polygonal.gaps_s": "s",
    "polygonal.gaps_listed": "count",
    "polygonal.equiv_s": "s",
    "polygonal.equiv_calls": "count",
    "series.mul_s": "s",
    "series.mul_calls": "count",
    "series.mul_pairs_computed": "count",
    "series.mul_max_order": "coeffs",
    "theta.atom_s": "s",
    "theta.atom_calls": "count",
    "theta.product_s": "s",
    "theta.product_calls": "count",
    "theta.product_reuse_ratio": "ratio",
    "transfer.verify_self_s": "s",
    "transfer.verify_calls": "count",
    "transfer.verify_distinct": "count",
    "transfer.verify_useful_ratio": "ratio",
    "trace.overhead_s": "s",
}


def counts(layers: dict) -> dict:
    """The per-layer metrics that are not timings; these repeat exactly."""
    return {k: v for k, v in layers.items() if not k.endswith("_s")}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self.distinct: defaultdict = defaultdict(set)
        self.peak: Counter = Counter()

    def wrap(self, name, fn, observe=None):
        """fn inside a span; observe(args, result, missed) runs after each call.

        observe gets the arguments in parameter order, however they were
        passed, and whether the function's own cache missed.
        """
        info = getattr(fn, "cache_info", None)
        signature = inspect.signature(fn)
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            misses = info().misses if info else 0
            record = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                open_.pop()
            if observe is not None:
                bound = signature.bind(*args, **kwargs).arguments
                observe(list(bound.values()), result, info is None or info().misses > misses)
            return result

        if info:
            wrapper.cache_info = info
        return wrapper

    def inside(self, name) -> bool:
        return any(self.spans[i][0] == name for i in self._open)

    # -- aggregation ---------------------------------------------------------

    def _outermost(self):
        """Spans with no ancestor of the same name, by name."""
        out = defaultdict(list)
        for span in self.spans:
            name, parent = span[0], span[3]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                out[name].append(span)
        return out

    def _self_times(self) -> Counter:
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = Counter()
        for (name, start, end, _), c in zip(self.spans, child):
            total[name] += end - start - c
        return total

    def metrics(self) -> dict[str, float]:
        outer = self._outermost()
        own = self._self_times()
        c = self.counts

        def inclusive(name):
            return sum(end - start for _, start, end, _ in outer[name])

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "catalog.load_s": inclusive("catalog.load"),
            "catalog.entries": c["catalog.entries"],
            "dsl.parse_s": inclusive("dsl.parse"),
            "dsl.parse_calls": len(outer["dsl.parse"]),
            "catalog.check_self_s": own["catalog.run"] + own["catalog.check"],
            "polygonal.sieve_s": inclusive("polygonal.sieve"),
            "polygonal.sieve_calls": len(outer["polygonal.sieve"]),
            "polygonal.sieve_misses": c["sieve_misses"],
            "polygonal.sieve_distinct_families": len(self.distinct["sieve"]),
            "polygonal.sieve_useful_ratio": ratio(
                len(self.distinct["sieve"]), c["sieve_misses"]
            ),
            "polygonal.sieve_folds": c["sieve_folds"],
            "polygonal.sieve_bytes_computed": c["sieve_bytes"],
            "polygonal.mask_bytes_computed": c["mask_bytes"],
            "polygonal.certify_calls": len(outer["polygonal.certify"]),
            "polygonal.certify_cache_hits": c["certify_hits"],
            "polygonal.gaps_s": own["polygonal.certify"],
            "polygonal.gaps_listed": c["gaps_listed"],
            "polygonal.equiv_s": inclusive("polygonal.equiv"),
            "polygonal.equiv_calls": len(outer["polygonal.equiv"]),
            "series.mul_s": inclusive("series.mul"),
            "series.mul_calls": len(outer["series.mul"]),
            "series.mul_pairs_computed": c["mul_pairs"],
            "series.mul_max_order": self.peak["mul_order"],
            "theta.atom_s": inclusive("theta.atom"),
            "theta.atom_calls": len(outer["theta.atom"]),
            "theta.product_s": inclusive("theta.product"),
            "theta.product_calls": len(outer["theta.product"]),
            "theta.product_reuse_ratio": ratio(
                len(self.distinct["product"]), len(outer["theta.product"])
            ),
            "transfer.verify_self_s": own["transfer.verify"],
            "transfer.verify_calls": len(outer["transfer.verify"]),
            "transfer.verify_distinct": len(self.distinct["verify"]),
            "transfer.verify_useful_ratio": ratio(
                len(self.distinct["verify"]), len(outer["transfer.verify"])
            ),
        }

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, f)


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of every thetasums module, cli included."""
    from thetasums import catalog, dsl, polygonal, series, theta, transfer
    from thetasums import cli  # noqa: F401  (loaded so its bindings are wrapped too)

    c, distinct, peak = tracer.counts, tracer.distinct, tracer.peak
    sum_families = polygonal.sum_families

    def on_load(args, result, missed):
        c["catalog.entries"] += len(result)

    def on_sieve(args, result, missed):
        if missed:
            s, bound = args[0], args[1]
            c["sieve_misses"] += 1
            c["mask_bytes"] += (bound + 1) // 8
            distinct["sieve"].add(sum_families(s))

    def on_values(args, result, missed):
        # A value enumeration inside the sieve is one fold, unless it builds
        # the first term's mask.
        if tracer.inside("polygonal.sieve") and sys._getframe(2).f_code.co_name != "_term_mask":
            c["sieve_folds"] += 1
            c["sieve_bytes"] += (args[1] + 1) // 8

    def on_certify(args, result, missed):
        if missed:
            c["gaps_listed"] += len(result.missing)
        else:
            c["certify_hits"] += 1

    def on_mul(args, result, missed):
        a, b = args
        order = min(a.order, b.order)
        na = order - a.coeffs[:order].count(0)
        nb = order - b.coeffs[:order].count(0)
        c["mul_pairs"] += na * nb
        peak["mul_order"] = max(peak["mul_order"], order)

    def on_product(args, result, missed):
        distinct["product"].add((tuple(sorted(args[0])), args[1]))

    def on_verify(args, result, missed):
        distinct["verify"].add((args[0], args[1]))

    functions = [
        (dsl, "parse_theta_expression", "dsl.parse", None),
        (dsl, "parse_polygonal_sum", "dsl.parse", None),
        (dsl, "parse_chain", "dsl.parse", None),
        (catalog, "load_catalog", "catalog.load", on_load),
        (catalog, "run_catalog", "catalog.run", None),
        (catalog, "check_entry", "catalog.check", None),
        (polygonal, "sum_value_mask", "polygonal.sieve", on_sieve),
        (polygonal, "certify_universal", "polygonal.certify", on_certify),
        (polygonal, "equivalent_upto", "polygonal.equiv", None),
        (theta, "atom_series", "theta.atom", None),
        # The product cache expands atoms through the private cached helper.
        (theta, "_atom_series", "theta.atom", None),
        (theta, "product_series", "theta.product", on_product),
        (transfer, "verify_decomposition", "transfer.verify", on_verify),
    ]
    methods = [
        (series.Series, "mul", "series.mul", on_mul),
        (polygonal.QuadTerm, "values_upto", "polygonal.values", on_values),
    ]

    replaced = {}
    for module, attr, name, observe in functions:
        original = getattr(module, attr, None)
        if original is not None:
            replaced[id(original)] = (original, tracer.wrap(name, original, observe))
    for cls, attr, name, observe in methods:
        original = cls.__dict__.get(attr)
        if original is not None:
            setattr(cls, attr, tracer.wrap(name, original, observe))

    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "thetasums"]
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
