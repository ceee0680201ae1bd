"""Exact Steiner distance: subset DP, closed 3/4-terminal forms, a superset-enumeration
oracle, and witness trees with a lexicographically-smallest tie-break."""

from __future__ import annotations

import itertools
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import config
from .graphs import (
    INFINITE,
    Graph,
    bfs_distances,
    check_vertex,
    component_labels,
)

Distance = float  # int when finite, INFINITE otherwise

_SPREAD_BLOCK = 10  # vertices per neighbourhood lookup table in _superset_table
_SPLIT_CHUNK_ENTRIES = 1 << 18  # bounds the temporaries of one Dreyfus-Wagner or _optimal_edges chunk


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


@lru_cache(maxsize=8)
def _apsp_matrix(g: Graph) -> np.ndarray:
    """All-pairs BFS distances in edges, the order n for a pair in different
    components (no path). int32 holds the sum of five entries that
    _meet_pair_value takes, and halves the cache; eight order-MAX_ORDER
    matrices fill 512 MiB.

    Every source searches at once, one level per step: the next frontier is
    the float32 product frontier @ adjacency (BLAS) less the vertices already
    reached. Sources go in chunks of about _SPLIT_CHUNK_ENTRIES entries."""
    n = g.order
    dist = np.full((n, n), n, dtype=np.int32)
    adj = np.zeros((n, n), dtype=np.float32)
    if g.edges:
        u, w = np.array(g.edges).T
        adj[u, w] = adj[w, u] = 1
    step = max(1, _SPLIT_CHUNK_ENTRIES // max(1, n))
    for lo in range(0, n, step):
        block = dist[lo:lo + step]
        sources = np.arange(len(block))
        frontier = np.zeros(block.shape, dtype=bool)
        frontier[sources, sources + lo] = True
        seen = frontier.copy()
        level = 0
        while frontier.any():
            block[frontier] = level
            level += 1
            frontier = frontier.astype(np.float32) @ adj > 0
            frontier &= ~seen
            seen |= frontier
    return dist


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
    """best[mask] = d(mask), the edge count of a tree on the smallest connected
    superset of mask (its order less one), the order n where none exists; the
    empty mask reads 0, as a single vertex does.

    Connectivity of every induced subgraph is computed by spreading component
    membership in parallel over all 2^order masks, then a superset-minimum
    transform propagates distances downward. One spreading step takes the
    neighbourhood union of each block of _SPREAD_BLOCK vertices from a lookup
    table indexed by the block's bits of the component (Four Russians). Each
    block reads the components as the blocks before it left them, so growth
    carries on within one step.
    """
    n = g.order
    if n < 1:
        raise ValueError("spectrum table needs order >= 1")
    dtype = np.int32 if n <= 30 else np.int64
    masks = np.arange(1 << n, dtype=dtype)
    luts = []
    for lo in range(0, n, _SPREAD_BLOCK):
        # lut[p] = neighbours of the block vertices lo + i for the set bits i of p,
        # doubled one vertex at a time as _popcounts is
        lut = np.zeros(1, dtype=dtype)
        for v in range(lo, min(lo + _SPREAD_BLOCK, n)):
            acc = 0
            for w in g.adj[v]:
                acc |= 1 << w
            lut = np.concatenate((lut, lut | acc))
        luts.append((lo, lut))
    comp = masks & -masks
    while True:
        grown = comp
        for lo, lut in luts:
            idx = grown >> lo
            idx &= lut.size - 1
            spread = lut[idx]
            spread &= masks
            spread |= grown
            grown = spread
        if np.array_equal(grown, comp):
            break
        comp = grown
    # a connected mask reads its popcount less one; the empty mask's wraps to
    # the uint8 maximum, so the transform gives it the minimum over all masks, 0
    best = np.full(1 << n, n, dtype=np.uint8)
    np.subtract(_popcounts(n), 1, out=best, where=comp == masks)
    for b in range(n):
        half = best.reshape(-1, 2, 1 << b)
        np.minimum(half[:, 0, :], half[:, 1, :], out=half[:, 0, :])
    return best


def _extra_vertices(g: Graph, sup: Sequence[int]) -> Iterator[int]:
    """The vertices outside sup that join it into a connected induced
    subgraph, ascending, one search per vertex."""
    sset = set(sup)
    for v in range(g.order):
        if v not in sset and _induced_connected(g, [*sup, v]):
            yield v


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


@lru_cache(maxsize=8)
def _dw_levels(k: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per subset size s = 2..k: the k-bit masks of that size, ascending; their
    set bits' values, one row per mask, low bit first; and the
    0/1 matrix whose column j picks the bits of split j: the low bit and the
    higher bits at the set bits of j, for j < 2^(s-1) - 1."""
    masks = np.arange(1 << k, dtype=np.int64)
    pop = _popcounts(k)
    levels = []
    for s in range(2, k + 1):
        level = masks[pop == s]
        _, positions = np.nonzero((level[:, None] >> np.arange(k)) & 1)
        sel = (np.arange((1 << (s - 1)) - 1) << 1 | 1) >> np.arange(s)[:, None] & 1
        levels.append((level, 1 << positions.reshape(-1, s), sel))
    return levels


def _dw_merge(f: np.ndarray, level: np.ndarray, bits: np.ndarray, sel: np.ndarray) -> np.ndarray:
    """min over the splits B of each mask A of level, B holding A's low bit and
    B != A, of f[B] + f[A-B], capped at the order n; level, bits and sel as
    _dw_levels gives them."""
    n = f.shape[1]
    splits = sel.shape[1]
    rows = np.full((len(level), n), n, dtype=f.dtype)
    jstep = min(splits, max(1, _SPLIT_CHUNK_ENTRIES // n))
    mstep = max(1, _SPLIT_CHUNK_ENTRIES // (jstep * n))
    for lo in range(0, len(level), mstep):
        out = rows[lo:lo + mstep]
        for jlo in range(0, splits, jstep):
            part = bits[lo:lo + mstep] @ sel[:, jlo:jlo + jstep]
            sums = f[part]
            sums += f[level[lo:lo + mstep, None] ^ part]
            np.minimum(out, sums.min(axis=1), out=out)
    return rows


def _grow_dense(dist: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """rows[c][v] = min over u of rows[c][u] + d(u, v), capped at the order n:
    a min-plus product with dist, the all-pairs distances with n for no path,
    in chunks of rows."""
    n = len(dist)
    step = max(1, _SPLIT_CHUNK_ENTRIES // (n * n))
    for lo in range(0, len(rows), step):
        block = rows[lo:lo + step]
        np.minimum((block[:, :, None] + dist).min(axis=1), n, out=block)
    return rows


def _grow_sparse(g: Graph, rows: np.ndarray) -> np.ndarray:
    """The same grow step as _grow_dense, by a unit-weight multi-source
    relaxation with a bucket queue per row."""
    n = g.order
    adj = g.adj
    out = rows.tolist()
    for fm in out:
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
    return np.array(out, dtype=rows.dtype)


def _dreyfus_wagner_table(g: Graph, sup: Sequence[int]) -> np.ndarray:
    """f[A][v] = edge count of the smallest tree spanning {sup[i] : bit i of A}
    and v, the order n where none exists (Dreyfus-Wagner), filled one subset
    size at a time.

    Every split of a mask has smaller parts, so a whole level merges at once
    (_dw_merge) and then grows along edges. The grow step is a min-plus product
    with the all-pairs distance matrix where _reads_apsp holds, and a bucket
    BFS per row otherwise; both give the same rows. A tree has fewer than n
    edges, so the fill caps every entry at n, meaning no tree, and a sum of two
    entries fits the smallest integer type that holds 2n.
    """
    n = g.order
    k = len(sup)
    dtype = np.min_scalar_type(2 * n)
    if _reads_apsp(g, k):
        grow = partial(_grow_dense, _apsp_matrix(g).astype(dtype))
    else:
        grow = partial(_grow_sparse, g)
    f = np.full((1 << k, n), n, dtype=dtype)
    singles = 1 << np.arange(k)
    f[singles, list(sup)] = 0
    f[singles] = grow(f[singles])
    for level, bits, sel in _dw_levels(k):
        f[level] = grow(_dw_merge(f, level, bits, sel))
    return f


@lru_cache(maxsize=1)
def _query_dw_table(g: Graph, sup: tuple[int, ...]) -> np.ndarray:
    """One build serves a query's value and then its witness; one slot keeps one table alive."""
    return _dreyfus_wagner_table(g, sup)


def _dreyfus_wagner_value(g: Graph, sup: Sequence[int]) -> int:
    return int(_query_dw_table(g, tuple(sup))[-1].min())


def _reads_table(g: Graph, k: int) -> bool:
    """Whether a k-terminal query's value and witness both read g's superset
    table: a 2^order table where it is no dearer than the 3^k subset DP."""
    return k > 2 and g.order <= config.SPECTRUM_LIMIT and 1 << g.order <= 3 ** k


def _reads_apsp(g: Graph, k: int) -> bool:
    """Whether a k-terminal solve may read g's n x n distance matrix: its n^2
    entries are no more than the 2^k (n + 2m) steps of a BFS from each row."""
    n = g.order
    return n * n <= (1 << k) * (n + 2 * len(g.edges))


def _steiner_value(
    g: Graph, sup: Sequence[int], table: Callable[[Graph], np.ndarray] = _superset_table
) -> Distance:
    """Exact Steiner distance of a support set: INFINITE where it spans two
    components of g, else by the one route that _reads_table and _reads_apsp
    pick; table builds g's superset table where the route reads one."""
    k = len(sup)
    if k == 1:
        return 0
    labels = component_labels(g)
    root = labels[sup[0]]
    if any(labels[t] != root for t in sup[1:]):
        return INFINITE
    if k == 2:
        row = bfs_distances(g, sup[0])
        return int(row[sup[1]])
    if _induced_connected(g, sup):
        return k - 1
    if next(_extra_vertices(g, sup), None) is not None:
        return k
    if _reads_table(g, k):
        mask = 0
        for v in sup:
            mask |= 1 << v
        # the component holding sup is a connected superset, so the entry is below n
        return int(table(g)[mask])
    if k == 3:
        return _meet_vertex_value(g, sup)
    if k == 4 and _reads_apsp(g, k):
        return _meet_pair_value(g, sup)
    return _dreyfus_wagner_value(g, sup)


# ---------------------------------------------------------------------------
# witness extraction

def _split_rows(g: Graph, sup: Sequence[int]) -> Callable[[np.ndarray], np.ndarray]:
    """The rows of the split table for sup: rows(idx)[j][v] = f[A][v], the
    edge count of the smallest tree spanning v and A = {sup[i] : bit i of
    idx[j]}, the order n where none exists. They are read off g's superset
    table where _reads_table holds, else off the query's Dreyfus-Wagner table."""
    if not _reads_table(g, len(sup)):
        return _query_dw_table(g, tuple(sup)).__getitem__
    # f[A][v] = best[mask(A) | 1 << v]
    masks = np.zeros(1, dtype=np.int64)
    for t in sup:
        masks = np.concatenate((masks, masks | (1 << t)))
    vbits = 1 << np.arange(g.order, dtype=np.int64)
    table = _superset_table(g)

    def rows(idx: np.ndarray) -> np.ndarray:
        return table[masks[idx, None] | vbits]
    return rows


def _optimal_edges(g: Graph, sup: Sequence[int], value: int) -> list[tuple[int, int]]:
    """Edges of g that lie on some minimum Steiner tree for sup, ascending.

    With f[A][v] the smallest tree spanning the terminals A and v, edge (u, w)
    lies on a minimum tree iff f[A][u] + 1 + f[S-A][w] == value for some split
    A of S: every leaf of a minimum tree is a terminal, so cutting (u, w) leaves
    two terminal-holding subtrees, and any split with that sum joins two trees
    into a minimum one through (u, w). Row a of the split array is the subset
    {sup[i] : bit i of a}, so S-A is row full - a, the reversed row order.
    """
    full = (1 << len(sup)) - 1
    split_rows = _split_rows(g, sup)
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


def _min_tree(g: Graph, sup: Sequence[int], value: int) -> list[tuple[int, int]]:
    """One minimum Steiner tree for sup, ascending, by backtracking the split
    table from (all of sup, sup[0]).

    At (A, v) it takes the first split B of A, holding A's low bit, with
    f[B][v] + f[A-B][v] == f[A][v] and backtracks both parts from v; failing
    that, it steps along the edge to the smallest neighbour u with
    f[A][u] + 1 == f[A][v]. Above f = 0 one of the two holds (the Dreyfus-Wagner
    recurrence), so the pieces' sizes add up to value. Their union is connected
    and spans sup, so with at most value edges it is a minimum tree.
    """
    split_rows = _split_rows(g, sup)
    tree: list[tuple[int, int]] = []
    stack = [((1 << len(sup)) - 1, sup[0])]
    while stack:
        a, v = stack.pop()
        low = a & -a
        rest = a ^ low
        splits = []  # low with each proper subset of A - low, descending
        sub = rest
        while sub:
            sub = (sub - 1) & rest
            splits.append(sub | low)
        rows = split_rows(np.array([a] + splits + [a ^ b for b in splits]))
        f = rows[0].tolist()
        if splits:
            sums = rows[1:len(splits) + 1] + rows[len(splits) + 1:]
            best, pick = sums.min(axis=0).tolist(), sums.argmin(axis=0).tolist()
        while f[v]:
            if splits and best[v] == f[v]:
                b = splits[pick[v]]
                stack += [(b, v), (a ^ b, v)]
                break
            u = next(u for u in g.adj[v] if f[u] + 1 == f[v])
            tree.append((v, u) if v < u else (u, v))
            v = u
    assert len(tree) == value
    return sorted(tree)


def _trial(
    g: Graph,
    sup: Sequence[int],
    forced: list[tuple[int, int]],
    excluded: set[tuple[int, int]],
    budget: int,
    usable: set[tuple[int, int]],
) -> tuple[set[tuple[int, int]], set[tuple[int, int]]] | None:
    """One greedy trial: None unless a Steiner tree for sup through the forced
    forest, avoiding excluded edges, needs at most budget more edges. Else the
    greedy's refreshed certificate and usable set, from the contracted instance
    that decided it, each contracted edge standing for its smallest original.
    At value k - 1 or k (k = |need|) the certificate is that instance's
    witness, which needs no table, and usable is kept. Above k both come off
    its Dreyfus-Wagner table, which the DP route has just built; where a
    one-off superset table gave the value, or the forced forest already joins
    everything, there is no certificate."""
    dsu = _DSU(range(g.order))
    for u, v in forced:
        dsu.union(u, v)
    need_roots = {dsu.find(t) for t in sup}
    need_roots.update(dsu.find(u) for u, _ in forced)
    if len(need_roots) == 1:
        return set(), usable
    originals: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for e in g.edges:
        if e in excluded:
            continue
        ru, rv = dsu.find(e[0]), dsu.find(e[1])
        if ru != rv:
            originals.setdefault((ru, rv) if ru < rv else (rv, ru), []).append(e)
    # components without a terminal, a forced edge or a usable edge are isolated
    # in the contracted graph and cannot carry the tree, so they are left out
    roots = sorted(need_roots.union(*originals))
    labels = {r: i for i, r in enumerate(roots)}
    contracted = Graph(len(labels), [(labels[a], labels[b]) for a, b in originals])
    need = tuple(sorted(labels[r] for r in need_roots))
    # a table of the contracted graph is read once, so it stays out of the shared cache
    value = _steiner_value(contracted, need, _superset_table.__wrapped__)
    if value > budget:
        return None
    if value <= len(need):
        tree = _lexmin_witness(contracted, need, value)
    elif _reads_table(contracted, len(need)):
        return set(), usable
    else:
        tree = _min_tree(contracted, need, value)
        usable = {e for a, b in _optimal_edges(contracted, need, value)
                  for e in originals[roots[a], roots[b]]}
    return set(forced).union(originals[roots[a], roots[b]][0] for a, b in tree), usable


def _lexmin_witness(g: Graph, sup: Sequence[int], value: Distance) -> list[tuple[int, int]]:
    """Minimum Steiner tree for sup with the lexicographically smallest edge list."""
    if value == INFINITE or value == 0:
        return []
    k = len(sup)
    if value == k - 1:
        tree = lexmin_spanning_tree(g, sup)
        assert tree is not None
        return tree
    if value == k:
        return min(lexmin_spanning_tree(g, [*sup, v]) for v in _extra_vertices(g, sup))
    # general case: greedy over ascending edges; keep an edge whenever a tree of
    # the optimal size through the kept forest still exists without skipped
    # edges. An edge on no minimum tree would fail its trial, and every trial
    # has the same outcome without such edges, so only the others are tried.
    # The certificate is one such tree through the kept forest (empty where
    # none is known), and usable holds every edge on any such tree: an edge on
    # the certificate passes its trial and one outside usable fails it, so
    # neither needs a re-solve. The set of such trees only shrinks as edges are
    # kept or skipped, so a usable set taken earlier still holds every edge.
    candidates = _optimal_edges(g, sup, value)
    chosen: list[tuple[int, int]] = []
    excluded = set(g.edges).difference(candidates)
    certificate = set(_min_tree(g, sup, value))
    usable = set(candidates)
    dsu = _DSU(range(g.order))
    for e in candidates:
        if len(chosen) == value:
            break
        if e in certificate:
            keep = True
        elif e not in usable or dsu.find(e[0]) == dsu.find(e[1]):
            keep = False
        else:
            trial = _trial(g, sup, chosen + [e], excluded, value - len(chosen) - 1, usable)
            keep = trial is not None
            if keep:
                certificate, usable = trial
        if keep:
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
) -> SteinerResult:
    """Minimum edge count of a connected subgraph of g containing the terminal support.

    Multiset terminals collapse to their support; one terminal gives 0, two give the
    classical shortest-path distance, and a support spanning two components gives
    INFINITE with no tree. The witness tree breaks ties toward the
    lexicographically smallest edge list; pass witness=False to skip extracting it.
    """
    sup = _validate_terminals(g, terminals)
    config.check_dp_limit(len(sup))
    value = _steiner_value(g, sup)
    tree = _lexmin_witness(g, sup, value) if witness else []
    return SteinerResult(value, tuple(tree))


def steiner_distance_oracle(g: Graph, terminals: Iterable[int]) -> SteinerResult:
    """Independent brute-force Steiner distance by superset enumeration.

    Vertex supersets of the terminal support are scanned in increasing size (within
    a size, in ascending combination order of the added vertices); the first one
    inducing a connected subgraph is answered, with its lexicographically smallest
    spanning tree as a witness.
    """
    sup = _validate_terminals(g, terminals)
    margin = config.ORACLE_GUARD
    if g.order - len(sup) > margin:
        raise config.GuardExceeded(
            f"order {g.order} minus support {len(sup)} exceeds the enumeration guard {margin}"
        )
    labels = component_labels(g)
    root = labels[sup[0]]
    if any(labels[t] != root for t in sup):
        return SteinerResult(INFINITE, ())
    extras = [v for v in range(g.order) if labels[v] == root and v not in sup]
    for extra_count in range(len(extras) + 1):
        for combo in itertools.combinations(extras, extra_count):
            w = list(sup) + list(combo)
            if _induced_connected(g, w):
                tree = lexmin_spanning_tree(g, w)
                assert tree is not None
                return SteinerResult(len(w) - 1, tuple(tree))
    raise AssertionError("component itself must connect the terminals")
