"""Per-layer tracing from outside the package.

The tracer rebinds the package's public functions at the names the calling
module looks them up under (``steinerk.verify.cartesian_product``,
``steinerk.cli.from_json`` and so on), records one span per call, and puts the
originals back afterwards. Spans (name, start, end, parent, operation id) stay
in memory until the run ends. The lru caches' own ``cache_info()`` counters are
read before and after the run and never cleared.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import defaultdict

# (module, attribute, span name, wrapper kind)
TARGETS = (
    ("steinerk", "verify_theorem", "verify.verify_theorem", "rows"),
    ("steinerk", "closed_form_table", "verify.closed_form_table", "rows"),
    ("steinerk", "steiner_k_diameter", "sdiam", "sdiam"),
    ("steinerk", "generate", "families.generate", "plain"),
    ("steinerk.cli", "main", "cli.main", "plain"),
    ("steinerk.cli", "from_json", "graphs.from_json", "plain"),
    ("steinerk.cli", "steiner_distance", "steiner", "steiner"),
    ("steinerk.verify", "steiner_distance", "steiner", "steiner"),
    ("steinerk.verify", "steiner_k_diameter", "sdiam", "sdiam"),
    ("steinerk.verify", "cartesian_product", "products.cartesian_product", "product"),
    ("steinerk.verify", "generate", "families.generate", "plain"),
    ("steinerk.bounds", "cartesian_distance_bounds", "bounds.cartesian_distance_bounds", "plain"),
    ("steinerk.bounds", "build_cartesian_tree", "bounds.build_cartesian_tree", "plain"),
    ("steinerk.bounds", "steiner_distance", "steiner", "steiner"),
    ("steinerk.bounds", "cartesian_product", "products.cartesian_product", "product"),
    ("steinerk.sdiam", "steiner_distance", "steiner", "steiner"),
    ("steinerk.families", "cartesian_product", "products.cartesian_product", "product"),
    ("steinerk.families", "lexicographic_product", "products.lexicographic_product", "plain"),
)

# lru caches the package already exposes: (module, attribute)
CACHES = {
    "superset": ("steinerk.steiner", "_superset_table"),
    "apsp": ("steinerk.steiner", "_apsp_matrix"),
}

STEINER_CLASSES = ("table", "meet", "dp")


def _cache_counts() -> dict[str, tuple[int, int]]:
    """(hits, misses) per known cache; (0, 0) for a cache the package no longer has."""
    out = {}
    for key, (mod, attr) in CACHES.items():
        fn = getattr(importlib.import_module(mod), attr, None)
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        out[key] = (info.hits, info.misses) if info else (0, 0)
    return out


class Tracer:
    def __init__(self, spectrum_limit: int):
        self.limit = spectrum_limit
        self.spans: list[list] = []  # [name, start, end, parent index, operation id]
        self.stack: list[int] = []
        self.op = -1
        self.saved: list[tuple] = []
        self.pairs: set = set()
        self.rows = 0
        self.sweep_sets = 0
        self.table_entries = 0
        self.child_misses = 0  # superset-table misses seen inside steiner spans
        self.correction = {key: [0, 0] for key in CACHES}
        self.counts_before: dict | None = None
        self.counts_after: dict | None = None

    # -- spans -------------------------------------------------------------

    def _call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _fits_table(self, g, kwargs) -> bool:
        """Whether g is within the spectrum limit the call will use."""
        limit = kwargs.get("spectrum_limit")
        return g.order <= (self.limit if limit is None else limit)

    def _steiner_class(self, g, terminals, kwargs) -> str:
        if self._fits_table(g, kwargs):
            return "table"
        return "meet" if len(set(terminals)) <= 4 else "dp"

    def _superset_misses(self) -> int:
        return _cache_counts()["superset"][1]

    def _wrap(self, name, kind, orig):
        tracer = self

        if kind == "plain":
            def wrapper(*args, **kwargs):
                return tracer._call(name, orig, *args, **kwargs)
        elif kind == "rows":
            def wrapper(*args, **kwargs):
                rows = tracer._call(name, orig, *args, **kwargs)
                tracer.rows += len(rows)
                return rows
        elif kind == "product":
            def wrapper(g, h, *args, **kwargs):
                tracer.pairs.add((g, h))
                return tracer._call(name, orig, g, h, *args, **kwargs)
        elif kind == "sdiam":
            def wrapper(g, k, *args, **kwargs):
                route = "table" if tracer._fits_table(g, kwargs) else "sweep"
                if route == "sweep":
                    tracer.sweep_sets += math.comb(g.order, k)
                misses = tracer._superset_misses()
                child_misses = tracer.child_misses
                try:
                    return tracer._call(f"sdiam.{route}", orig, g, k, *args, **kwargs)
                finally:
                    own = tracer._superset_misses() - misses - (tracer.child_misses - child_misses)
                    if route == "table" and own > 0:
                        tracer.table_entries += 1 << g.order
        else:  # steiner: value-only call, warm value-only call, then the real call
            def wrapper(g, terminals, *args, **kwargs):
                terminals = list(terminals)
                cls = tracer._steiner_class(g, terminals, kwargs)
                witness = kwargs.pop("witness", True)
                return tracer._call(f"steiner.call.{cls}", tracer._steiner_parts,
                                    cls, orig, g, terminals, witness, args, kwargs)
        return wrapper

    def _steiner_parts(self, cls, orig, g, terminals, witness, args, kwargs):
        before = self._superset_misses()
        value = self._call(f"steiner.value.{cls}", orig, g, terminals, *args,
                           witness=False, **kwargs)
        built = self._superset_misses() - before
        if cls == "table" and built > 0:
            self.table_entries += 1 << g.order
        if not witness:
            self.child_misses += built
            return value
        # the real call repeats the value lookups on warm caches; the warm
        # value-only call measures that part, and its cache traffic is counted
        # twice so that the counters read as an untraced run's would
        c0 = _cache_counts()
        self._call(f"steiner.rewarm.{cls}", orig, g, terminals, *args, witness=False, **kwargs)
        c1 = _cache_counts()
        for key in CACHES:
            for i in (0, 1):
                self.correction[key][i] += 2 * (c1[key][i] - c0[key][i])
        result = self._call(f"steiner.witness.{cls}", orig, g, terminals, *args,
                            witness=True, **kwargs)
        self.child_misses += self._superset_misses() - before
        return result

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for modname, attr, name, kind in TARGETS:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            self.saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(name, kind, orig))

    def restore(self) -> None:
        for mod, attr, orig in reversed(self.saved):
            setattr(mod, attr, orig)
        self.saved.clear()

    def start(self) -> None:
        self.counts_before = _cache_counts()

    def stop(self) -> None:
        self.counts_after = _cache_counts()

    # -- metrics -----------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict[str, tuple[float, str]]:
        n = len(self.spans)
        dur = [s[2] - s[1] for s in self.spans]
        child = [0.0] * n
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        sdiam_witness = 0.0
        for i, s in enumerate(self.spans):
            name = s[0]
            total[name] += dur[i]
            own[name] += dur[i] - child[i]
            calls[name] += 1
            if name.startswith("steiner.call.") and s[3] >= 0 and \
                    self.spans[s[3]][0].startswith("sdiam."):
                sdiam_witness += dur[i]

        def layer(prefix, table):
            return sum(v for k, v in table.items() if k.startswith(prefix))

        ms = 1000.0
        delta = {}
        for key in CACHES:
            after, before = self.counts_after[key], self.counts_before[key]
            fix = self.correction[key]
            delta[key] = tuple(after[i] - before[i] - fix[i] for i in (0, 1))
        t_hits, t_misses = delta["superset"]
        prod_calls = calls["products.cartesian_product"]
        sweep_s = own["sdiam.sweep"]
        out = {
            "verify.self_ms": (layer("verify.", own) * ms, "ms"),
            "verify.rows": (self.rows, "count"),
            "products.cartesian_ms": (total["products.cartesian_product"] * ms, "ms"),
            "products.cartesian_calls": (prod_calls, "count"),
            "products.distinct_pairs": (len(self.pairs), "count"),
            "products.rebuild_ratio": (prod_calls / len(self.pairs) if self.pairs else 0.0,
                                       "ratio"),
            "bounds.ms": (layer("bounds.", own) * ms, "ms"),
            "bounds.calls": (sum(v for k, v in calls.items() if k.startswith("bounds.")),
                             "count"),
        }
        for cls in STEINER_CLASSES:
            out[f"steiner.value_ms.{cls}"] = (total[f"steiner.value.{cls}"] * ms, "ms")
        for cls in STEINER_CLASSES:
            out[f"steiner.calls.{cls}"] = (calls[f"steiner.call.{cls}"], "count")
        for cls in STEINER_CLASSES:
            witness = total[f"steiner.witness.{cls}"] - total[f"steiner.rewarm.{cls}"]
            out[f"steiner.witness_ms.{cls}"] = (witness * ms, "ms")
        out.update({
            "steiner.tables_built": (t_misses, "count"),
            "steiner.table_entries_built": (self.table_entries, "count"),
            "steiner.table_reads_per_build": ((t_hits + t_misses) / t_misses if t_misses else 0.0,
                                              "ratio"),
            "steiner.apsp_built": (delta["apsp"][1], "count"),
            "sdiam.table_route_ms": (own["sdiam.table"] * ms, "ms"),
            "sdiam.sweep_route_ms": (sweep_s * ms, "ms"),
            "sdiam.sweep_sets_per_s": (self.sweep_sets / sweep_s if sweep_s else 0.0, "1/s"),
            "sdiam.witness_ms": (sdiam_witness * ms, "ms"),
            "graphs.from_json_ms": (total["graphs.from_json"] * ms, "ms"),
            "cli.self_ms": (own["cli.main"] * ms, "ms"),
            "families.generate_ms": (own["families.generate"] * ms, "ms"),
            "trace.overhead_s": (overhead_s, "s"),
        })
        return out

    def dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "span_fields": ["name", "start_us", "end_us", "parent", "op"],
            "names": names,
            "spans": [[index[s[0]], round((s[1] - t0) * 1e6), round((s[2] - t0) * 1e6), s[3], s[4]]
                      for s in self.spans],
            "cache_counts_before": self.counts_before,
            "cache_counts_after": self.counts_after,
            "cache_correction": self.correction,
        }
