"""Exact Steiner distance: subset DP, closed 3/4-terminal forms, a superset-enumeration
oracle, and witness trees with a lexicographically-smallest tie-break."""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import config
from .graphs import INFINITE, Graph, bfs_distances, check_vertex, component_of

Distance = float  # int when finite, INFINITE otherwise


class SteinerResult(NamedTuple):
    distance: Distance
    tree_edges: tuple[tuple[int, int], ...]


def support(elements: Iterable[int]) -> tuple[int, ...]:
    """Distinct elements of a vertex multiset, ascending."""
    return tuple(sorted(set(elements)))


def _validate_terminals(g: Graph, terminals: Iterable[int]) -> tuple[int, ...]:
    sup = support(terminals)
    if not sup:
        raise ValueError("terminal set must be nonempty")
    for v in sup:
        check_vertex(g, v)
    return sup


def _induced_connected(g: Graph, verts: Sequence[int]) -> bool:
    vset = set(verts)
    if not vset:
        return False
    stack = [next(iter(vset))]
    seen = {stack[0]}
    while stack:
        u = stack.pop()
        for w in g.adj[u]:
            if w in vset and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(vset)


class _DSU:
    def __init__(self, items: Iterable[int]):
        self.parent = {x: x for x in items}

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def lexmin_spanning_tree(g: Graph, verts: Sequence[int]) -> list[tuple[int, int]] | None:
    """Spanning tree of the induced subgraph on verts with the smallest sorted edge
    list, by Kruskal over ascending edges; None if the induced subgraph is disconnected."""
    vset = set(verts)
    dsu = _DSU(vset)
    tree: list[tuple[int, int]] = []
    for u, v in g.edges:  # g.edges is sorted ascending
        if u in vset and v in vset and dsu.union(u, v):
            tree.append((u, v))
            if len(tree) == len(vset) - 1:
                break
    return tree if len(tree) == len(vset) - 1 else None


# ---------------------------------------------------------------------------
# value computation


@lru_cache(maxsize=256)
def _apsp_matrix(g: Graph) -> np.ndarray:
    """All-pairs BFS distances, unreachable pairs as a large sentinel."""
    n = g.order
    mat = np.full((n, n), 1 << 20, dtype=np.int64)
    for v in range(n):
        row = bfs_distances(g, v)
        for w, d in enumerate(row):
            if d != INFINITE:
                mat[v, w] = int(d)
    return mat


@lru_cache(maxsize=8)
def _popcounts(n: int) -> np.ndarray:
    """Set-bit count of every n-bit mask. Masks with bit b set are the upper
    half of the first 2^(b+1), so each doubling step adds one to a copy."""
    pop = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        pop = np.concatenate((pop, pop + 1))
    return pop


@lru_cache(maxsize=16)
def _superset_table(g: Graph) -> np.ndarray:
    """best[mask] = order of the smallest connected superset of mask (255 if none).

    Connectivity of every induced subgraph is computed by spreading component
    membership in parallel over all 2^order masks, then a superset-minimum
    transform propagates sizes downward.
    """
    n = g.order
    if n < 1:
        raise ValueError("spectrum table needs order >= 1")
    total = 1 << n
    masks = np.arange(total, dtype=np.int64)
    nbr = np.zeros(n, dtype=np.int64)
    for v in range(n):
        acc = 0
        for w in g.adj[v]:
            acc |= 1 << w
        nbr[v] = acc
    comp = masks & -masks
    while True:
        grown = comp.copy()
        for b in range(n):
            grown |= ((comp >> b) & 1) * nbr[b]
        grown &= masks
        if np.array_equal(grown, comp):
            break
        comp = grown
    best = np.where(comp == masks, _popcounts(n), np.uint8(255)).astype(np.uint8)
    best[0] = 255
    for b in range(n):
        half = best.reshape(-1, 2, 1 << b)
        np.minimum(half[:, 0, :], half[:, 1, :], out=half[:, 0, :])
    return best


def _one_extra_connects(g: Graph, sup: Sequence[int]) -> bool:
    sset = set(sup)
    for v in range(g.order):
        if v in sset:
            continue
        if _induced_connected(g, list(sup) + [v]):
            return True
    return False


def _meet_vertex_value(g: Graph, sup: Sequence[int]) -> int:
    # optimal 3-terminal tree is three shortest paths joined at one vertex
    rows = [bfs_distances(g, t) for t in sup]
    return int(min(sum(col) for col in zip(*rows)))


def _meet_pair_value(g: Graph, sup: Sequence[int]) -> int:
    # optimal 4-terminal tree has at most two branch vertices; try every
    # terminal pairing with both branch vertices ranging over the graph
    mat = _apsp_matrix(g)
    a, b, c, d = sup
    best = None
    for (p, q), (r, s) in (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))):
        left = mat[p] + mat[q]
        right = mat[r] + mat[s]
        totals = left[:, None] + mat + right[None, :]
        val = int(totals.min())
        best = val if best is None else min(best, val)
    return best


def _dreyfus_wagner_table(g: Graph, sup: Sequence[int]) -> list[list[int]]:
    """f[A][v] = size of the smallest tree spanning {sup[i] : bit i of A} and v,
    a large sentinel where none exists (Dreyfus-Wagner)."""
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
        # grow step: unit-weight multi-source relaxation with bucket queue
        buckets: list[list[int]] = [[] for _ in range(n + 1)]
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


def _dreyfus_wagner_value(g: Graph, sup: Sequence[int]) -> int:
    return min(_dreyfus_wagner_table(g, sup)[-1])


def _steiner_value(g: Graph, sup: Sequence[int], spectrum_override: int | None = None) -> Distance:
    """Exact Steiner distance of a support set already known to share a component."""
    k = len(sup)
    if k == 1:
        return 0
    if k == 2:
        row = bfs_distances(g, sup[0])
        return int(row[sup[1]])
    if _induced_connected(g, sup):
        return k - 1
    if _one_extra_connects(g, sup):
        return k
    if g.order <= config.spectrum_limit(spectrum_override):
        table = _superset_table(g)
        mask = 0
        for v in sup:
            mask |= 1 << v
        best = int(table[mask])
        return INFINITE if best == 255 else best - 1
    if k == 3:
        return _meet_vertex_value(g, sup)
    if k == 4:
        return _meet_pair_value(g, sup)
    return _dreyfus_wagner_value(g, sup)


# ---------------------------------------------------------------------------
# witness extraction

_SPLIT_CHUNK_ENTRIES = 1 << 18  # bounds the temporaries of one _optimal_edges chunk


def _optimal_edges(
    g: Graph, sup: Sequence[int], value: int, spectrum_limit: int | None = None
) -> list[tuple[int, int]]:
    """Edges of g that lie on some minimum Steiner tree for sup, ascending.

    With f[A][v] the smallest tree spanning the terminals A and v, edge (u, w)
    lies on a minimum tree iff f[A][u] + 1 + f[S-A][w] == value for some split
    A of S: every leaf of a minimum tree is a terminal, so cutting (u, w) leaves
    two terminal-holding subtrees, and any split with that sum joins two trees
    into a minimum one through (u, w). Row a of the split array is the subset
    {sup[i] : bit i of a}, so S-A is row full - a, the reversed row order.
    """
    full = (1 << len(sup)) - 1
    if len(sup) > 2 and g.order <= config.spectrum_limit(spectrum_limit):
        # the value came from the superset table (k = 2 never builds one):
        # f[A][v] = best[mask(A) | 1 << v] - 1
        masks = np.zeros(1, dtype=np.int64)
        for t in sup:
            masks = np.concatenate((masks, masks | (1 << t)))
        vbits = 1 << np.arange(g.order, dtype=np.int64)
        table = _superset_table(g)

        def split_rows(idx: np.ndarray) -> np.ndarray:
            return table[masks[idx, None] | vbits].astype(np.int32) - 1
    else:
        dw = _dreyfus_wagner_table(g, sup)

        def split_rows(idx: np.ndarray) -> np.ndarray:
            return np.array([dw[a] for a in idx.tolist()], dtype=np.int64)

    u = np.array([e[0] for e in g.edges], dtype=np.int64)
    w = np.array([e[1] for e in g.edges], dtype=np.int64)
    hit = np.zeros(len(g.edges), dtype=bool)
    step = max(1, _SPLIT_CHUNK_ENTRIES // max(1, g.order, len(g.edges)))
    for lo in range(0, full + 1, step):
        idx = np.arange(lo, min(lo + step, full + 1))
        # entries of value or more never meet the sum; capping them keeps it small
        f = np.minimum(split_rows(idx), value)
        rev = np.minimum(split_rows(full - idx), value)
        hit |= (f[:, u] + rev[:, w] == value - 1).any(axis=0)
    return [e for e, keep in zip(g.edges, hit.tolist()) if keep]


def _contracted_value(
    g: Graph,
    terminals: Sequence[int],
    forced: Sequence[tuple[int, int]],
    excluded: set[tuple[int, int]],
) -> Distance:
    """Minimum Steiner tree size containing the forced forest, avoiding excluded edges."""
    dsu = _DSU(range(g.order))
    for u, v in forced:
        dsu.union(u, v)
    need_roots = {dsu.find(t) for t in terminals}
    need_roots.update(dsu.find(u) for u, _ in forced)
    if len(need_roots) == 1:
        return 0
    root_edges = set()
    for e in g.edges:
        if e in excluded:
            continue
        ru, rv = dsu.find(e[0]), dsu.find(e[1])
        if ru != rv:
            root_edges.add((ru, rv) if ru < rv else (rv, ru))
    # components without a terminal, a forced edge or a usable edge are isolated
    # in the contracted graph and cannot carry the tree, so they are left out
    roots = need_roots.union(*root_edges)
    labels = {r: i for i, r in enumerate(sorted(roots))}
    contracted = Graph(len(labels), [(labels[a], labels[b]) for a, b in root_edges])
    need_t = tuple(sorted(labels[r] for r in need_roots))
    comp = component_of(contracted, need_t[0])
    if any(t not in comp for t in need_t):
        return INFINITE
    # a one-off 2^order table pays only where it is no dearer than the
    # 3^|need| subset DP; otherwise the meet-point and DP routes answer
    fits = contracted.order <= 16 and 1 << contracted.order <= 3 ** len(need_t)
    return _steiner_value(contracted, need_t, spectrum_override=16 if fits else 0)


def _lexmin_witness(
    g: Graph, sup: Sequence[int], value: Distance, spectrum_limit: int | None = None
) -> list[tuple[int, int]]:
    """Minimum Steiner tree for sup with the lexicographically smallest edge list."""
    if value == INFINITE or value == 0:
        return []
    k = len(sup)
    if value == k - 1:
        tree = lexmin_spanning_tree(g, sup)
        assert tree is not None
        return tree
    if value == k:
        sset = set(sup)
        best: list[tuple[int, int]] | None = None
        for v in range(g.order):
            if v in sset:
                continue
            tree = lexmin_spanning_tree(g, list(sup) + [v])
            if tree is not None and (best is None or tree < best):
                best = tree
        assert best is not None
        return best
    # general case: greedy over ascending edges; keep an edge whenever a tree of
    # the optimal size through the kept forest still exists without skipped
    # edges. An edge on no minimum tree would fail its trial, and every trial
    # has the same outcome without such edges, so only the others are tried.
    candidates = _optimal_edges(g, sup, value, spectrum_limit)
    chosen: list[tuple[int, int]] = []
    excluded = set(g.edges).difference(candidates)
    dsu = _DSU(range(g.order))
    for e in candidates:
        if len(chosen) == value:
            break
        if dsu.find(e[0]) == dsu.find(e[1]):
            excluded.add(e)
            continue
        trial = _contracted_value(g, sup, chosen + [e], excluded)
        if trial != INFINITE and trial + len(chosen) + 1 <= value:
            chosen.append(e)
            dsu.union(e[0], e[1])
        else:
            excluded.add(e)
    assert len(chosen) == value
    return chosen


# ---------------------------------------------------------------------------
# public entry points

def steiner_distance(
    g: Graph,
    terminals: Iterable[int],
    *,
    witness: bool = True,
    dp_limit: int | None = None,
    spectrum_limit: int | None = None,
) -> SteinerResult:
    """Minimum edge count of a connected subgraph of g containing the terminal support.

    Multiset terminals collapse to their support; one terminal gives 0, two give the
    classical shortest-path distance. The witness tree breaks ties toward the
    lexicographically smallest edge list; pass witness=False to skip extracting it.
    """
    sup = _validate_terminals(g, terminals)
    config.check_dp_limit(len(sup), dp_limit)
    if len(sup) == 1:
        return SteinerResult(0, ())
    comp = component_of(g, sup[0])
    if any(t not in comp for t in sup):
        return SteinerResult(INFINITE, ())
    value = _steiner_value(g, sup, spectrum_limit)
    if value != INFINITE:
        value = int(value)
    tree = _lexmin_witness(g, sup, value, spectrum_limit) if witness else []
    return SteinerResult(value, tuple(tree))


def steiner_distance_oracle(
    g: Graph,
    terminals: Iterable[int],
    *,
    guard: int | None = None,
) -> SteinerResult:
    """Independent brute-force Steiner distance by superset enumeration.

    Vertex supersets of the terminal support are scanned in increasing size (within
    a size, in ascending combination order of the added vertices); the first one
    inducing a connected subgraph is answered, with its lexicographically smallest
    spanning tree as a witness.
    """
    sup = _validate_terminals(g, terminals)
    margin = config.oracle_guard(guard)
    if g.order - len(sup) > margin:
        raise config.GuardExceeded(
            f"order {g.order} minus support {len(sup)} exceeds the enumeration guard {margin}"
        )
    if len(sup) == 1:
        return SteinerResult(0, ())
    comp = component_of(g, sup[0])
    if any(t not in comp for t in sup):
        return SteinerResult(INFINITE, ())
    extras = sorted(comp - set(sup))
    for extra_count in range(len(extras) + 1):
        for combo in itertools.combinations(extras, extra_count):
            w = list(sup) + list(combo)
            if _induced_connected(g, w):
                tree = lexmin_spanning_tree(g, w)
                assert tree is not None
                return SteinerResult(len(w) - 1, tuple(tree))
    raise AssertionError("component itself must connect the terminals")
