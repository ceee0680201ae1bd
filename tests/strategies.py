"""Shared hypothesis strategies for graph-valued properties, a witness-tree
checker that is independent of the package's own, so the tests never judge the
program with its own checker, a brute-force lexmin witness, a pure-Python
Dreyfus-Wagner table to pin the package's numpy one, a seeded sparse connected
graph, and a helper that forces the off-table routes."""

import itertools

import pytest
from hypothesis import strategies as st

from steinerk import Graph, config
from steinerk.graphs import induced_subgraph, is_connected
from steinerk.steiner import lexmin_spanning_tree


def off_table(fn, *args, **kwargs):
    """fn's answer with config.SPECTRUM_LIMIT at 0, so that no query reads a
    superset table: d_G(S) takes the meet-point and DP routes, sdiam the sweep."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(config, "SPECTRUM_LIMIT", 0)
        return fn(*args, **kwargs)


def sparse_connected(rng, n: int) -> Graph:
    """A random spanning tree plus extra edges up to mean degree 3."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < 3 * n // 2:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return Graph(n, edges)


@st.composite
def graphs(draw, min_order: int = 1, max_order: int = 8) -> Graph:
    n = draw(st.integers(min_order, max_order))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return Graph(n, [])
    edges = draw(st.sets(st.sampled_from(pairs)))
    return Graph(n, edges)


@st.composite
def connected_graphs(draw, min_order: int = 2, max_order: int = 8) -> Graph:
    g = draw(graphs(min_order, max_order))
    # splice in a random recursive tree so every vertex is reachable
    parents = [draw(st.integers(0, v - 1)) for v in range(1, g.order)]
    spine = [(p, v + 1) for v, p in enumerate(parents)]
    return Graph(g.order, list(g.edges) + spine)


@st.composite
def graph_with_terminals(draw, min_k: int = 2, max_k: int = 5, connected: bool = True):
    lo = max(2, min_k)
    g = draw(connected_graphs(min_order=lo, max_order=9) if connected
             else graphs(min_order=lo, max_order=9))
    k = draw(st.integers(min_k, min(max_k, g.order)))
    terms = draw(st.permutations(range(g.order)))[:k]
    return g, sorted(terms)


def is_valid_tree(g, edges, terminals) -> bool:
    """True iff edges form a tree of g whose vertices include every terminal."""
    verts = {v for e in edges for v in e}
    if not edges:
        return len(set(terminals)) <= 1
    if not set(terminals) <= verts:
        return False
    if len(edges) != len(verts) - 1:
        return False
    if any(not g.has_edge(u, v) for u, v in edges):
        return False
    adj = {v: [] for v in verts}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = set()
    stack = [next(iter(verts))]
    while stack:
        u = stack.pop()
        if u in seen:
            continue
        seen.add(u)
        stack.extend(adj[u])
    return seen == verts


def brute_lexmin_tree(g, terms, value):
    """The lexicographically smallest minimum Steiner tree: the smallest lexmin
    spanning tree over the connected supersets of terms with value + 1 vertices."""
    rest = [v for v in range(g.order) if v not in terms]
    return min(
        tuple(lexmin_spanning_tree(g, [*terms, *extra]))
        for extra in itertools.combinations(rest, value + 1 - len(terms))
        if is_connected(induced_subgraph(g, [*terms, *extra])[0])
    )


def reference_dreyfus_wagner_table(g, sup) -> list[list[int]]:
    """f[A][v] = size of the smallest tree spanning {sup[i] : bit i of A} and v,
    1 << 30 where none exists: the subset DP of Dreyfus and Wagner in pure
    Python, one mask at a time in ascending order, each merged over its
    splits and then grown by a bucket-queue BFS."""
    n = g.order
    k = len(sup)
    big = 1 << 30
    full = (1 << k) - 1
    f = [[big] * n for _ in range(full + 1)]
    for i, t in enumerate(sup):
        f[1 << i][t] = 0
    adj = g.adj
    for mask in range(1, full + 1):
        fm = f[mask]
        if mask & (mask - 1):
            low = mask & -mask
            sub = (mask - 1) & mask
            while sub:
                if sub & low:
                    fs = f[sub]
                    fo = f[mask ^ sub]
                    for v in range(n):
                        cand = fs[v] + fo[v]
                        if cand < fm[v]:
                            fm[v] = cand
                sub = (sub - 1) & mask
        buckets = [[] for _ in range(n + 1)]
        for v, val in enumerate(fm):
            if val <= n:
                buckets[val].append(v)
        for dist_val in range(n + 1):
            for v in buckets[dist_val]:
                if fm[v] != dist_val:
                    continue
                nd = dist_val + 1
                if nd > n:
                    continue
                for w in adj[v]:
                    if nd < fm[w]:
                        fm[w] = nd
                        buckets[nd].append(w)
    return f
