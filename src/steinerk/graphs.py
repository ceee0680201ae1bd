"""Simple undirected graphs: BFS metrics, induced subgraphs, vertex connectivity, JSON I/O."""

from __future__ import annotations

import json
from collections import deque
from functools import lru_cache
from typing import Iterable, Sequence

from . import config

INFINITE = float("inf")

Edge = tuple[int, int]


class Graph:
    """Immutable simple undirected graph on dense vertex ids 0..order-1."""

    __slots__ = ("order", "edges", "name", "adj", "_hash")

    def __init__(self, order: int, edges: Iterable[Sequence[int]], name: str = ""):
        if order < 0:
            raise ValueError("order must be nonnegative")
        normalized = set()
        for u, v in edges:
            if not (0 <= u < order and 0 <= v < order):
                raise ValueError(f"edge ({u},{v}) has an endpoint outside 0..{order - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            normalized.add((u, v) if u < v else (v, u))
        self.order = order
        self.edges: tuple[Edge, ...] = tuple(sorted(normalized))
        self.name = name
        adj: list[list[int]] = [[] for _ in range(order)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        # each list is ascending: a vertex's edges (u, v) with u < v come before
        # its edges (v, w) in the sorted edge list
        self.adj: tuple[tuple[int, ...], ...] = tuple(map(tuple, adj))
        self._hash = hash((order, self.edges))

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def size(self) -> int:
        return len(self.edges)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.order == other.order
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        label = self.name or "graph"
        return f"Graph({label}, order={self.order}, size={len(self.edges)})"

    def __getstate__(self):
        return (self.order, self.edges, self.name)

    def __setstate__(self, state):
        self.__init__(state[0], state[1], state[2])


def check_vertex(g: Graph, v: int) -> None:
    """Raise ValueError for an out-of-range vertex id."""
    if not (0 <= v < g.order):
        raise ValueError(f"vertex id {v} out of range for graph of order {g.order}")


def bfs_distances(g: Graph, source: int) -> list[float]:
    """Distances from source to every vertex; INFINITE where unreachable."""
    check_vertex(g, source)
    dist: list[float] = [INFINITE] * g.order
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if dist[w] == INFINITE:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def distance(g: Graph, u: int, v: int) -> float:
    """Shortest-path length between u and v; INFINITE across components."""
    check_vertex(g, v)
    return bfs_distances(g, u)[v]


def all_pairs_distances(g: Graph) -> list[list[float]]:
    """BFS distance matrix, INFINITE where unreachable."""
    return [bfs_distances(g, v) for v in range(g.order)]


def eccentricity(g: Graph, v: int) -> float:
    """Maximum distance from v to any vertex; INFINITE if g is disconnected."""
    return max(bfs_distances(g, v))


def diameter(g: Graph) -> float:
    """Maximum eccentricity; INFINITE if g is disconnected, 0 for order <= 1."""
    if g.order <= 1:
        return 0
    return max(eccentricity(g, v) for v in range(g.order))


@lru_cache(maxsize=8)
def component_labels(g: Graph) -> tuple[int, ...]:
    """Each vertex's connected component, named by its smallest vertex: one
    search per component, linear in order plus size. An entry keeps its graph
    alive, so the cache is as small as the distance-matrix cache."""
    labels = [-1] * g.order
    for v in range(g.order):
        if labels[v] < 0:
            labels[v] = v
            stack = [v]
            while stack:
                for w in g.adj[stack.pop()]:
                    if labels[w] < 0:
                        labels[w] = v
                        stack.append(w)
    return tuple(labels)


def is_connected(g: Graph) -> bool:
    """True iff g has at most one component (order 0 and 1 count as connected)."""
    # vertex 0's component is the only one iff every label is 0
    return not any(component_labels(g))


def induced_subgraph(g: Graph, w: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced by vertex set w, plus the old-id -> new-id remap table."""
    keep = sorted(set(w))
    for v in keep:
        check_vertex(g, v)
    remap = {old: new for new, old in enumerate(keep)}
    sub_edges = [
        (remap[u], remap[v]) for u, v in g.edges if u in remap and v in remap
    ]
    return Graph(len(keep), sub_edges, name=g.name and f"{g.name}[{len(keep)}]"), remap


def is_complete(g: Graph) -> bool:
    return len(g.edges) == g.order * (g.order - 1) // 2


def is_path_graph(g: Graph) -> bool:
    """True iff g is a path on order >= 1 vertices."""
    n = g.order
    if n == 0 or len(g.edges) != n - 1 or not is_connected(g):
        return False
    if n == 1:
        return True
    degrees = [g.degree(v) for v in range(n)]
    return degrees.count(1) == 2 and degrees.count(2) == n - 2


def vertex_connectivity(g: Graph) -> int:
    """Minimum number of vertex deletions that disconnect g (order-1 for complete graphs)."""
    n = g.order
    if n <= 1:
        return 0
    if not is_connected(g):
        return 0
    if is_complete(g):
        return n - 1
    edge_set = set(g.edges)
    best = n - 1
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) in edge_set:
                continue
            best = min(best, _min_vertex_cut(g, u, v, best))
    return best


def _min_vertex_cut(g: Graph, s: int, t: int, cap: int) -> int:
    # Menger via unit-capacity max flow on the vertex-split digraph.
    # Node 2v = "in" side of v, 2v+1 = "out" side; internal arc 2v -> 2v+1.
    n = g.order
    arcs: list[list[int]] = []  # arc: [to, cap]; paired arcs at 2i / 2i+1
    head: list[list[int]] = [[] for _ in range(2 * n)]

    def add_arc(a: int, b: int, c: int) -> None:
        head[a].append(len(arcs))
        arcs.append([b, c])
        head[b].append(len(arcs))
        arcs.append([a, 0])

    for v in range(n):
        add_arc(2 * v, 2 * v + 1, n if v in (s, t) else 1)
    for u, v in g.edges:
        add_arc(2 * u + 1, 2 * v, n)
        add_arc(2 * v + 1, 2 * u, n)

    source, sink = 2 * s + 1, 2 * t
    flow = 0
    while flow < cap:
        parent_arc = [-1] * (2 * n)
        parent_arc[source] = -2
        queue = deque([source])
        while queue and parent_arc[sink] == -1:
            a = queue.popleft()
            for idx in head[a]:
                to, c = arcs[idx]
                if c > 0 and parent_arc[to] == -1:
                    parent_arc[to] = idx
                    queue.append(to)
        if parent_arc[sink] == -1:
            break
        node = sink
        while node != source:
            idx = parent_arc[node]
            arcs[idx][1] -= 1
            arcs[idx ^ 1][1] += 1
            node = arcs[idx ^ 1][0]
        flow += 1
    return flow


def to_json(g: Graph) -> str:
    """Serialize to the interchange format; edges sorted for bit-exact output."""
    payload = {
        "name": g.name,
        "order": g.order,
        "edges": [[u, v] for u, v in g.edges],
    }
    return json.dumps(payload)


def from_json(text: str) -> Graph:
    """Parse the interchange format produced by to_json."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed graph JSON: {exc}") from exc
    except RecursionError:
        raise ValueError("malformed graph JSON: nested too deeply") from None
    if not isinstance(payload, dict) or "order" not in payload or "edges" not in payload:
        raise ValueError("malformed graph JSON: expected object with order and edges")
    order, edges = payload["order"], payload["edges"]
    # JSON true/false parse as bool, a subclass of int, so test the exact type
    if type(order) is not int:
        raise ValueError(f"malformed graph JSON: order must be an integer, got {order!r}")
    config.check_order(order)
    if not isinstance(edges, list):
        raise ValueError(f"malformed graph JSON: edges must be a list, got {edges!r}")
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e)):
            raise ValueError(f"malformed graph JSON: edge {e!r} is not a pair of integers")
    return Graph(order, edges, name=payload.get("name", ""))
