"""Closed forms, bound pairs, and constructive witness trees for Steiner problems
on cartesian and lexicographic products."""

from __future__ import annotations

from collections import Counter
from typing import Iterable, NamedTuple, Sequence

from .graphs import (
    INFINITE,
    Graph,
    diameter,
    distance,
    is_complete,
    is_connected,
    is_path_graph,
    vertex_connectivity,
)
from .products import cartesian_product
from .sdiam import steiner_k_diameter
from .steiner import (
    Distance,
    SteinerResult,
    _induced_connected,
    lexmin_spanning_tree,
    steiner_distance,
)


class BoundPair(NamedTuple):
    lower: Distance
    upper: Distance


def _pair_support(
    g: Graph, h: Graph, s: Iterable[Sequence[int]]
) -> list[tuple[int, int]]:
    """Distinct (g,h) coordinate pairs of a product-vertex multiset, ascending."""
    pairs = set()
    for item in s:
        gi, hj = int(item[0]), int(item[1])
        if not (0 <= gi < g.order and 0 <= hj < h.order):
            raise ValueError(f"product vertex ({gi},{hj}) outside {g.order}x{h.order}")
        pairs.add((gi, hj))
    if not pairs:
        raise ValueError("terminal set must be nonempty")
    return sorted(pairs)


def _require_connected(*graphs: Graph) -> None:
    for graph in graphs:
        if not is_connected(graph):
            label = graph.name or "factor"
            raise ValueError(f"{label} must be connected")


def drop3_parameter(elements: Iterable[int]) -> int:
    """Minimum count of distinct values left after deleting three elements
    (with multiplicity) from the multiset: the distinct values less those
    deleted whole, rarest first while their multiplicities fit in three."""
    counts = sorted(Counter(elements).values())
    if sum(counts) < 3:
        raise ValueError("drop-3 parameter needs a multiset of size >= 3")
    left = 3
    gone = 0
    for c in counts:
        if c > left:
            break
        left -= c
        gone += 1
    return len(counts) - gone


def cartesian_distance_bounds(
    g: Graph, h: Graph, s: Iterable[Sequence[int]]
) -> BoundPair:
    """Additivity lower bound and the drop-3 upper bound for a cartesian terminal set."""
    _require_connected(g, h)
    pairs = _pair_support(g, h, s)
    if len(pairs) < 3:
        raise ValueError("need at least 3 distinct product vertices")
    s_g = [p[0] for p in pairs]
    s_h = [p[1] for p in pairs]
    d_g = steiner_distance(g, s_g, witness=False).distance
    d_h = steiner_distance(h, s_h, witness=False).distance
    r = drop3_parameter(s_g)
    t = drop3_parameter(s_h)
    lower = d_g + d_h
    upper = min(d_g + (r + 1) * d_h, d_h + (t + 1) * d_g)
    return BoundPair(lower, upper)


def cartesian_sdiam_bounds(g: Graph, h: Graph, k: int) -> BoundPair:
    """Range for the Steiner k-diameter of the cartesian product; collapses to the
    exact value k-1 when k lies within the product's connectivity margin."""
    _require_connected(g, h)
    total = g.order * h.order
    if not 3 <= k <= total:
        raise ValueError(f"k must satisfy 3 <= k <= {total}, got {k}")
    small, large = (g, h) if g.order <= h.order else (h, g)
    n, m = small.order, large.order

    # exact collapse: with few enough vertices missing, every k-set induces a
    # connected subgraph; only worth the connectivity computation when the
    # degree bound says the range can be reached
    min_degree = min(
        small.degree(u) + large.degree(v)
        for u in range(small.order)
        for v in range(large.order)
    )
    if k >= total - min_degree + 1:
        kappa = vertex_connectivity(cartesian_product(small, large).graph)
        if k >= total - kappa + 1:
            return BoundPair(k - 1, k - 1)

    if k <= n:
        sd_small = steiner_k_diameter(small, k, witness=False).value
        sd_large = steiner_k_diameter(large, k, witness=False).value
        lower = sd_small + sd_large
        upper = lower + (k - 3) * min(sd_small, sd_large)
    elif k <= m:
        sd_large = steiner_k_diameter(large, k, witness=False).value
        lower = n - 1 + sd_large
        upper = lower + (k - 3) * min(n - 1, sd_large)
    else:
        lower = n + m - 2
        upper = m - 1 + (k - 2) * (n - 1)
    return BoundPair(lower, upper)


def lex_distance_closed_form(
    g: Graph, h: Graph, s: Iterable[Sequence[int]]
) -> Distance:
    """Exact Steiner distance in the lexicographic product from factor data alone."""
    if not is_connected(g) or g.order < 2:
        raise ValueError(
            "closed form needs a connected first factor of order >= 2; "
            "use lex_distance_k3 for the disconnected 3-terminal taxonomy"
        )
    pairs = _pair_support(g, h, s)
    k = len(pairs)
    if k < 2:
        raise ValueError("need at least 2 distinct product vertices")
    g_support = sorted({p[0] for p in pairs})
    r = len(g_support)
    if r == 1:
        h_support = [p[1] for p in pairs]
        return k - 1 if _induced_connected(h, h_support) else k
    d_g = steiner_distance(g, g_support, witness=False).distance
    return d_g + k - r


def lex_distance_k3(g: Graph, h: Graph, s: Iterable[Sequence[int]]) -> Distance:
    """Three-terminal Steiner distance in the lexicographic product; the first
    factor may be disconnected, in which case the value can be INFINITE."""
    pairs = _pair_support(g, h, s)
    if len(pairs) != 3:
        raise ValueError("need exactly 3 distinct product vertices")
    g_support = sorted({p[0] for p in pairs})
    h_coords = [p[1] for p in pairs]
    if len(g_support) == 1:
        d_h = steiner_distance(h, h_coords, witness=False).distance
        if g.degree(g_support[0]) == 0:
            return d_h
        return min(d_h, 3)
    if len(g_support) == 2:
        d_gg = distance(g, g_support[0], g_support[1])
        return INFINITE if d_gg == INFINITE else int(d_gg) + 1
    return steiner_distance(g, g_support, witness=False).distance


def lex_sdiam_bounds(g: Graph, h: Graph, k: int) -> BoundPair:
    """Range for the Steiner k-diameter of the lexicographic product, taking the
    strongest applicable clause on each side."""
    if not is_connected(g):
        raise ValueError("first factor must be connected")
    n, m = g.order, h.order
    total = n * m
    if not 2 <= k <= total:
        raise ValueError(f"k must satisfy 2 <= k <= {total}, got {k}")
    if k <= n:
        upper = steiner_k_diameter(g, k, witness=False).value + k - 2
    else:
        upper = max(n + k - 3, k)
    lowers: list[Distance] = []
    if m + 1 <= k <= n:
        lowers.append(steiner_k_diameter(g, k, witness=False).value)
    if max(n, m + 1) <= k <= total:
        lowers.append(n - 1)
    if 2 <= k <= m:
        lowers.append(k - 1)
    return BoundPair(max(lowers), upper)


def sdiam3_lex_closed_form(g: Graph, h: Graph) -> Distance:
    """Steiner 3-diameter of the lexicographic product by the shape of the first factor."""
    _require_connected(g, h)
    if g.order < 2 or h.order < 2:
        raise ValueError("factors must have order >= 2")
    if is_complete(g):
        if h.order >= 3:
            return min(steiner_k_diameter(h, 3, witness=False).value, 3)
        return 2  # connected order-2 second factor: the product is complete
    if is_path_graph(g):
        return int(diameter(g)) + 1
    return steiner_k_diameter(g, 3, witness=False).value


# ---------------------------------------------------------------------------
# constructive witness trees


def _tree_adjacency(edges: Iterable[tuple[int, int]]) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return adj


def _subtree_span(
    tree_edges: Sequence[tuple[int, int]], targets: Iterable[int], root: int
) -> list[tuple[int, int]]:
    """Edges of the minimal subtree of a tree spanning targets plus the root."""
    goal = set(targets)
    goal.add(root)
    if len(goal) == 1:
        return []
    adj = _tree_adjacency(tree_edges)
    parent: dict[int, int] = {root: root}
    stack = [root]
    while stack:
        u = stack.pop()
        for w in adj.get(u, ()):
            if w not in parent:
                parent[w] = u
                stack.append(w)
    keep: set[tuple[int, int]] = set()
    for t in goal:
        node = t
        while node != root:
            up = parent[node]
            edge = (node, up) if node < up else (up, node)
            if edge in keep:
                break
            keep.add(edge)
            node = up
    return sorted(keep)


def _encode_edges(
    coord_edges: Iterable[tuple[tuple[int, int], tuple[int, int]]], h_order: int
) -> tuple[tuple[int, int], ...]:
    out = []
    for (ag, ah), (bg, bh) in coord_edges:
        a = ag * h_order + ah
        b = bg * h_order + bh
        out.append((a, b) if a < b else (b, a))
    return tuple(sorted(out))


def build_cartesian_tree(
    g: Graph, h: Graph, s: Iterable[Sequence[int]]
) -> SteinerResult:
    """Steiner tree in the cartesian product built from factor trees: one factor
    tree is laid down as a spine in a single layer and the other factor tree is
    replicated inside each occupied copy, minimizing over anchor choices."""
    _require_connected(g, h)
    pairs = _pair_support(g, h, s)
    if len(pairs) < 3:
        raise ValueError("need at least 3 distinct product vertices")
    g_support = sorted({p[0] for p in pairs})
    h_support = sorted({p[1] for p in pairs})
    tree_g = steiner_distance(g, g_support).tree_edges
    tree_h = steiner_distance(h, h_support).tree_edges
    verts_g = sorted({v for e in tree_g for v in e}) or list(g_support)
    verts_h = sorted({v for e in tree_h for v in e}) or list(h_support)
    by_g: dict[int, list[int]] = {}
    by_h: dict[int, list[int]] = {}
    for gi, hj in pairs:
        by_g.setdefault(gi, []).append(hj)
        by_h.setdefault(hj, []).append(gi)

    candidates: list[tuple[tuple[int, int], ...]] = []
    for anchor in verts_h:
        coord_edges = [((u, anchor), (v, anchor)) for u, v in tree_g]
        for gi, hs in by_g.items():
            for x, y in _subtree_span(tree_h, hs, anchor):
                coord_edges.append(((gi, x), (gi, y)))
        candidates.append(_encode_edges(coord_edges, h.order))
    for anchor in verts_g:
        coord_edges = [((anchor, x), (anchor, y)) for x, y in tree_h]
        for hj, gs in by_h.items():
            for u, v in _subtree_span(tree_g, gs, anchor):
                coord_edges.append(((u, hj), (v, hj)))
        candidates.append(_encode_edges(coord_edges, h.order))

    best = min(candidates, key=lambda edges: (len(edges), edges))
    return SteinerResult(len(best), best)


def build_lexicographic_tree(
    g: Graph, h: Graph, s: Iterable[Sequence[int]]
) -> SteinerResult:
    """Steiner tree in the lexicographic product: an intra-copy spanning tree,
    a star through a neighboring copy, or a mapped factor tree plus one
    attachment edge per extra terminal, matching the closed-form size."""
    if not is_connected(g) or g.order < 2:
        raise ValueError("first factor must be connected with order >= 2")
    pairs = _pair_support(g, h, s)
    copies: dict[int, list[int]] = {}
    for gi, hj in pairs:
        copies.setdefault(gi, []).append(hj)
    for hs in copies.values():
        hs.sort()
    g_support = sorted(copies)
    r = len(g_support)
    m = h.order

    if r == 1:
        g0 = g_support[0]
        hs = copies[g0]
        if len(hs) == 1:
            return SteinerResult(0, ())
        tree = lexmin_spanning_tree(h, hs)
        if tree is not None:
            coord_edges = [((g0, x), (g0, y)) for x, y in tree]
        else:
            hub = (min(g.adj[g0]), 0)
            coord_edges = [(hub, (g0, hj)) for hj in hs]
        return SteinerResult(len(coord_edges), _encode_edges(coord_edges, m))

    result_g = steiner_distance(g, g_support)
    tree_g = result_g.tree_edges
    adj_g = _tree_adjacency(tree_g)
    phi: dict[int, tuple[int, int]] = {}
    for v in adj_g:
        phi[v] = (v, copies[v][0]) if v in copies else (v, 0)
    coord_edges = [(phi[u], phi[v]) for u, v in tree_g]
    for gi in g_support:
        neighbor = min(adj_g[gi])
        for hj in copies[gi][1:]:
            coord_edges.append(((gi, hj), phi[neighbor]))
    return SteinerResult(len(coord_edges), _encode_edges(coord_edges, m))
