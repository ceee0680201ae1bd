"""The benchmark's three workloads: seeded inputs, operations and output checks.

Each workload builds a finite list of calls from the seed (set-up), executes one
call at a time (timed), and checks a call's output records afterwards (untimed).
A call yields one or more operations; each operation is a (latency_s, record)
pair, where the record holds the outputs the digest covers and never a timing.
Every run executes the workload's first `prefix_calls` calls, at least MIN_OPS
operations, and digests their outputs.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import random
import sys
import time

MIN_OPS = 100  # every run completes at least this many operations


def num(x):
    """Output value in a form that compares equal across int/float spellings."""
    if x is None:
        return None
    if x == math.inf:
        return "inf"
    return int(x) if float(x).is_integer() else float(x)


def random_connected_edges(rng: random.Random, n: int, mean_degree: float = 3.0):
    """Random recursive spanning tree plus uniform extra edges up to the mean degree."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    target = round(mean_degree * n / 2)
    while len(edges) < target:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return sorted(edges)


def tree_ok(graph_edges, tree_edges, terminals, size) -> bool:
    """True iff tree_edges is a tree of the graph with `size` edges spanning terminals."""
    tree = [tuple(sorted(e)) for e in tree_edges]
    if len(tree) != size or len(set(tree)) != size:
        return False
    if size == 0:
        return len(set(terminals)) <= 1
    if not set(tree) <= set(map(tuple, graph_edges)):
        return False
    verts = {v for e in tree for v in e}
    if not set(terminals) <= verts or len(verts) != size + 1:
        return False
    parent = {v: v for v in verts}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in tree:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


class VerifyProducts:
    """verify_theorem("Cor2.2") and ("Thm2.1") on seeded Cartesian corpora.

    Factor orders are pinned per call (4x4 up to 8x8 products, 16-64 vertices) so
    that every run sees the same mix of solver routes; with the default 4-8 range
    the rare 4x5 products (one 2^20 table each) made throughput swing 3x by seed.
    One operation is one report row; its latency is the row's own elapsed time.
    """

    name = "verify-products"
    theorems = ("Cor2.2", "Thm2.1")
    factor_orders = (4, 5, 6, 7, 8)
    pairs_per_call = 4
    rounds = 200
    prefix_calls = 10  # one round: both theorems at every factor order

    def build(self, sk, seed):
        calls = []
        for r in range(self.rounds):
            for n in self.factor_orders:
                spec = sk.CorpusSpec(seed=seed * 1000 + r, min_order=n, max_order=n,
                                     pair_count=self.pairs_per_call)
                calls.extend((tid, spec) for tid in self.theorems)
        return calls

    def execute(self, sk, call):
        tid, spec = call
        rows = sk.verify_theorem(tid, spec, jobs=1)
        return [
            (r.elapsed, [r.theorem_id, r.instance, num(r.lower), num(r.exact),
                         num(r.upper), r.verdict, r.reason])
            for r in rows
        ]

    def check(self, sk, call, records):
        return [rec[5] == "PASS" for rec in records]


class SteinerQuery:
    """One `steinerk steiner -g - -S ...` query per distinct seeded graph, in-process.

    Orders 13-18 and 21-40 at mean degree 3, k = 3-7, cycled so that every run
    has the same order and k mix. Orders <= 18 build a whole 2^n table for one
    read; larger orders spend most of their time extracting the witness tree.
    Orders 16-18 come twice per cycle, so that their 0.05-0.25 s table builds
    are about a fifth of the queries and the 90th percentile falls among them
    rather than on the edge of that class. Orders 19 and 20 are left out: their
    0.2-1.1 s table builds, 7% of the queries but 60% of the time, made
    throughput and median latency swing by seed. sdiam-families builds the
    order-20 tables.
    """

    name = "steiner-query"
    orders = tuple(range(13, 19)) + (16, 17, 18) + tuple(range(21, 41))
    ks = (3, 4, 5, 6, 7)
    queries = 2000
    prefix_calls = 145  # one cycle: every (order, k) slot once

    def build(self, sk, seed):
        cli = importlib.import_module("steinerk.cli")
        rng = random.Random(f"{self.name}:{seed}")
        calls = []
        for i in range(self.queries):
            n = self.orders[i % len(self.orders)]
            k = self.ks[i % len(self.ks)]
            edges = random_connected_edges(rng, n)
            terms = sorted(rng.sample(range(n), k))
            text = json.dumps({"order": n, "edges": edges})
            argv = ["steiner", "-g", "-", "-S", ",".join(map(str, terms))]
            calls.append((cli, n, edges, terms, text, argv))
        return calls

    def execute(self, sk, call):
        cli, _, _, _, text, argv = call
        out, err = io.StringIO(), io.StringIO()
        saved_stdin = sys.stdin
        sys.stdin = io.StringIO(text)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                rc = cli.main(argv)
                latency = time.perf_counter() - t0
        finally:
            sys.stdin = saved_stdin
        return [(latency, [rc, out.getvalue(), err.getvalue()])]

    def check(self, sk, call, records):
        _, n, edges, terms, _, _ = call
        rc, stdout, _ = records[0]
        lines = stdout.splitlines()
        if rc != 0 or not lines or not lines[0].isdigit():
            return [False]
        dist = int(lines[0])
        tree = []
        if len(lines) > 1:
            if not lines[1].startswith("T: "):
                return [False]
            tree = [tuple(map(int, e.split("-"))) for e in lines[1][3:].split()]
        ok = dist >= len(terms) - 1 and tree_ok(edges, tree, terms, dist)
        if ok and n - len(terms) <= sk.oracle_guard():
            g = sk.Graph(n, edges)
            ok = sk.steiner_distance_oracle(g, terms).distance == dist
        return [ok]


class SdiamFamilies:
    """Steiner k-diameters: the table route on named families of order <= 20 and
    the colex sweep on larger graphs.

    Table calls run closed_form_table over a slice of a family's stated k
    range; one operation is one row, its latency the row's own elapsed time.
    Sweep calls run steiner_k_diameter with witness on grid 5x5, torus 5x5 and
    seeded random graphs of order 22-28; one operation is one (graph, k)
    diameter.
    """

    name = "sdiam-families"
    # family, params, kmin, kmax: each family's stated k range, which starts at
    # k = 3 (hamming's ends at its smallest dimension)
    tables = (
        ("hyper_petersen", (4,), 3, 20),
        ("grid", (4, 5), 3, 20),
        ("torus", (4, 4), 3, 16),
        ("hamming", (4, 4), 3, 4),
        ("hyper_petersen_lex", (4,), 3, 20),
        ("torus", (3, 6), 3, 18),
        ("grid", (3, 6), 3, 18),
    )
    ks_per_table_call = 6
    fixed_sweeps = (("grid", (5, 5), 3), ("grid", (5, 5), 4), ("torus", (5, 5), 3))
    random_orders = tuple(range(22, 29))
    random_ks = (3, 4)
    random_sweeps = 400
    # The fixed sweeps, then table calls of up to six k each, every one followed
    # by a random sweep, then random sweeps only. Spacing the table reads out
    # times them at many moments of the run rather than in one burst. A later
    # call finds its family's table still cached unless the sweep in between
    # built 16 tables or more; none of 168 sweeps measured built more than 14.
    # No family is visited again after its last k.

    @property
    def prefix_calls(self):
        """The fixed sweeps and every table call with its sweep."""
        width = self.ks_per_table_call
        table_calls = sum((hi - lo) // width + 1 for _, _, lo, hi in self.tables)
        return len(self.fixed_sweeps) + 2 * table_calls

    def build(self, sk, seed):
        rng = random.Random(f"{self.name}:{seed}")
        tables = []
        for fam, params, lo, hi in self.tables:
            spec = sk.FamilySpec(fam, params)
            for start in range(lo, hi + 1, self.ks_per_table_call):
                ks = range(start, min(start + self.ks_per_table_call, hi + 1))
                tables.append(("table", spec, ks))
        calls = [("sweep", sk.generate(sk.FamilySpec(fam, params)), k)
                 for fam, params, k in self.fixed_sweeps]
        for i in range(self.random_sweeps):
            if i < len(tables):
                calls.append(tables[i])
            n = self.random_orders[i % len(self.random_orders)]
            k = self.random_ks[i % len(self.random_ks)]
            calls.append(("sweep", sk.Graph(n, random_connected_edges(rng, n)), k))
        return calls

    def execute(self, sk, call):
        kind, what, k = call
        if kind == "table":
            rows = sk.closed_form_table(what, k, jobs=1)
            return [(r.elapsed, [r.k, r.predicted, num(r.computed), r.verdict, r.reason])
                    for r in rows]
        t0 = time.perf_counter()
        res = sk.steiner_k_diameter(what, k, jobs=1)
        latency = time.perf_counter() - t0
        tree = [list(e) for e in res.witness_tree]
        return [(latency, [res.k, num(res.value), list(res.witness_set), tree])]

    def check(self, sk, call, records):
        if call[0] == "table":
            order = sk.generate(call[1]).order
            return [rec[3] == "PASS" and rec[2] is not None
                    and rec[0] - 1 <= rec[2] <= order - 1 for rec in records]
        _, g, k = call
        _, value, wset, tree = records[0]
        ok = (
            isinstance(value, int)
            and k - 1 <= value <= g.order - 1
            and len(set(wset)) == k
            and tree_ok(g.edges, tree, wset, value)
            and sk.steiner_distance(g, wset, witness=False).distance == value
        )
        return [ok]


WORKLOADS = {w.name: w for w in (VerifyProducts(), SteinerQuery(), SdiamFamilies())}
