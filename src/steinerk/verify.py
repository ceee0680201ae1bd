"""Corpus-driven verification harness.

Every closed form and bound exposed by the bounds module is re-checked here
against exact solver values on seeded instances. Each check is registered
under a stable rule identifier; runs produce machine-readable reports.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable, Sequence

from . import bounds as bd
from . import config
from .config import GuardExceeded, oracle_guard
from .families import FAMILIES, FamilySpec, generate
from .graphs import (
    INFINITE,
    Graph,
    distance,
    is_connected,
    vertex_connectivity,
)
from .products import cartesian_product, lexicographic_product
from .sdiam import steiner_k_diameter
from .steiner import _DSU, Distance, steiner_distance, steiner_distance_oracle, support

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"


@dataclass
class BoundReport:
    theorem_id: str
    instance: str
    lower: float
    exact: float
    upper: float
    verdict: str
    elapsed: float = 0.0
    reason: str = ""


@dataclass
class TableRow:
    k: int
    predicted: str
    computed: float | None
    verdict: str
    elapsed: float = 0.0
    reason: str = ""


@dataclass(frozen=True)
class CorpusSpec:
    """Deterministic corpus description; the same spec always yields the same
    instances."""

    seed: int = 7
    min_order: int = 4
    max_order: int = 8
    pair_count: int = 200
    sets_per_instance: int = 50


# fixed for every corpus: the edge densities of its random graphs, and the
# named families that the single-graph rules check after their random graphs
DENSITIES = (0.3, 0.5, 0.8)
NAMED_FAMILIES = (
    FamilySpec("path", (7,)),
    FamilySpec("cycle", (8,)),
    FamilySpec("complete", (5,)),
    FamilySpec("star", (7,)),
    FamilySpec("petersen", ()),
    FamilySpec("grid", (3, 4)),
)


def _rng(corpus: CorpusSpec, salt: int) -> random.Random:
    return random.Random(corpus.seed * 1_000_003 + salt)


def random_graph(rng: random.Random, order: int, density: float, name: str = "") -> Graph:
    edges = [
        (u, v)
        for u in range(order)
        for v in range(u + 1, order)
        if rng.random() < density
    ]
    return Graph(order, edges, name=name)


def random_connected_graph(
    rng: random.Random, order: int, density: float, name: str = ""
) -> Graph:
    """Rejection sampler: redraw edge sets until the graph is connected."""
    for _ in range(5000):
        g = random_graph(rng, order, density, name)
        if is_connected(g):
            return g
    raise RuntimeError("rejection sampling failed to produce a connected graph")


def _single_graphs(corpus: CorpusSpec, salt: int, count: int) -> list[Graph]:
    rng = _rng(corpus, salt)
    out = []
    for i in range(count):
        n = rng.randint(corpus.min_order, corpus.max_order)
        d = rng.choice(DENSITIES)
        out.append(random_connected_graph(rng, n, d, f"r{salt}.{i}"))
    return out + [generate(spec) for spec in NAMED_FAMILIES]


def _factor_pairs(
    corpus: CorpusSpec,
    salt: int,
    count: int,
    g_orders: tuple[int, int],
    h_orders: tuple[int, int],
    h_connected: bool = True,
) -> list[tuple[Graph, Graph]]:
    rng = _rng(corpus, salt)
    out = []
    for i in range(count):
        n = rng.randint(*g_orders)
        m = rng.randint(*h_orders)
        dg = rng.choice(DENSITIES)
        dh = rng.choice(DENSITIES)
        g = random_connected_graph(rng, n, dg, f"G{salt}.{i}")
        if h_connected:
            h = random_connected_graph(rng, m, dh, f"H{salt}.{i}")
        else:
            h = random_graph(rng, m, dh, f"H{salt}.{i}")
        out.append((g, h))
    return out


def _sample_sets(rng: random.Random, universe: int, k: int, count: int) -> list[tuple[int, ...]]:
    seen: set[tuple[int, ...]] = set()
    cap = math.comb(universe, k)
    attempts = 0
    while len(seen) < min(count, cap) and attempts < 50 * count:
        seen.add(tuple(sorted(rng.sample(range(universe), k))))
        attempts += 1
    return sorted(seen)


def _set_payloads(rng: random.Random, pairs: Iterable[tuple[Graph, Graph]], op: str, tid: str,
                  ks: Callable[[int], Iterable[int]], per: int, **extra) -> list[dict]:
    """One payload per sampled terminal set: per sets of each size in ks(order)
    on each factor pair's product. ks may draw its sizes from rng, which it
    does before that pair's sets are sampled."""
    out = []
    for g, h in pairs:
        total = g.order * h.order
        for k in ks(total):
            for ids in _sample_sets(rng, total, k, per):
                out.append({"op": op, "tid": tid, "g": g, "h": h, "ids": list(ids), **extra})
    return out


def _mk(
    tid: str, instance: str, lower: float, exact: float, upper: float, t0: float
) -> BoundReport:
    verdict = PASS if lower <= exact <= upper else FAIL
    return BoundReport(tid, instance, lower, exact, upper, verdict, time.perf_counter() - t0)


def _skipped(tid: str, instance: str, exc: GuardExceeded) -> BoundReport:
    return BoundReport(tid, instance, 0, 0, 0, SKIPPED, 0.0, str(exc))


def _flag(tid: str, instance: str, ok: bool, t0: float) -> BoundReport:
    """Structural check without a numeric sandwich: encode pass as 0 in [0,0]."""
    return BoundReport(
        tid, instance, 0, 0 if ok else 1, 0, PASS if ok else FAIL,
        time.perf_counter() - t0,
    )


def _gname(g: Graph) -> str:
    return g.name or f"graph{g.order}"


def _set_str(ids: Sequence[int]) -> str:
    return "{" + ",".join(str(i) for i in ids) + "}"


# ---------------------------------------------------------------------------
# evaluators, one per payload op; each returns a list of report rows


def _ev_sdist_floor(p: dict) -> list[BoundReport]:
    t0 = time.perf_counter()
    g, ids = p["g"], p["ids"]
    d = steiner_distance(g, ids, witness=False).distance
    inst = f"{_gname(g)} S={_set_str(ids)}"
    return [_mk(p["tid"], inst, len(ids) - 1, d, INFINITE, t0)]


def _ev_sdiam_monotone(p: dict) -> list[BoundReport]:
    g = p["g"]
    out = []
    prev = None
    for k in range(2, g.order + 1):
        t0 = time.perf_counter()
        val = steiner_k_diameter(g, k, witness=False).value
        if prev is not None:
            out.append(_mk(p["tid"], f"{_gname(g)} k={k - 1}->{k}", prev, val, INFINITE, t0))
        prev = val
    return out


def _ev_spanning(p: dict) -> list[BoundReport]:
    g, sub = p["g"], p["sub"]
    out = []
    for k in range(2, g.order + 1):
        t0 = time.perf_counter()
        full = steiner_k_diameter(g, k, witness=False).value
        sparse = steiner_k_diameter(sub, k, witness=False).value
        out.append(_mk(p["tid"], f"{_gname(g)} k={k} |E'|={sub.size()}", full, sparse, INFINITE, t0))
    return out


def _ev_tree_shape(p: dict) -> list[BoundReport]:
    t0 = time.perf_counter()
    g, ids = p["g"], p["ids"]
    res = steiner_distance(g, ids)
    deg: dict[int, int] = {}
    for u, v in res.tree_edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    counts = sorted(deg.values(), reverse=True)
    is_path = all(c <= 2 for c in counts)
    is_spider = counts[:1] == [3] and all(c <= 2 for c in counts[1:])
    inst = f"{_gname(g)} S={_set_str(ids)} shape"
    return [_flag(p["tid"], inst, is_path or is_spider, t0)]


def _valid_tree(g: Graph, edges: Sequence[tuple[int, int]], terminals: Sequence[int]) -> bool:
    """Whether edges form a tree of g through every terminal: |V| - 1 edges of g
    on the tree's vertices and the terminals, none of them closing a cycle."""
    verts = {v for e in edges for v in e} | set(terminals)
    if len(edges) != len(verts) - 1 or any(not g.has_edge(u, v) for u, v in edges):
        return False
    dsu = _DSU(verts)
    return all(dsu.union(u, v) for u, v in edges)


def _product(op: str, g: Graph, h: Graph) -> tuple[Graph, str]:
    """The product graph of g and h and its instance stem: an op starting with
    cart gives GxH, any other the lexicographic product GoH."""
    if op.startswith("cart"):
        return cartesian_product(g, h).graph, f"{_gname(g)}x{_gname(h)}"
    return lexicographic_product(g, h).graph, f"{_gname(g)}o{_gname(h)}"


def _ev_pair(p: dict) -> list[BoundReport]:
    t0 = time.perf_counter()
    g, h, a, b = p["g"], p["h"], p["a"], p["b"]
    prod, stem = _product(p["op"], g, h)
    ga, ha = divmod(a, h.order)
    gb, hb = divmod(b, h.order)
    lo, up = PAIR_RULES[p["tid"]](g, h, (ga, ha), (gb, hb))
    inst = f"{stem} ({ga},{ha})-({gb},{hb})"
    return [_mk(p["tid"], inst, lo, distance(prod, a, b), up, t0)]


def _ev_set(p: dict) -> list[BoundReport]:
    t0 = time.perf_counter()
    tid, g, h, ids = p["tid"], p["g"], p["h"], p["ids"]
    prod, stem = _product(p["op"], g, h)
    pairs = [divmod(i, h.order) for i in ids]
    exact = steiner_distance(prod, ids, witness=False).distance
    inst = f"{stem} S={_set_str(ids)}"
    rows = [_mk(tid, inst, *SET_RULES[tid](g, h, pairs, exact), t0)]
    # optionally cross-checked against the superset oracle
    if p.get("oracle") and prod.order - len(support(ids)) <= min(14, oracle_guard()):
        t1 = time.perf_counter()
        oracle = steiner_distance_oracle(prod, ids)[0]
        rows.append(_mk(tid, inst + " oracle", oracle, exact, oracle, t1))
    return rows


def _ev_builder(p: dict) -> list[BoundReport]:
    t0 = time.perf_counter()
    tid, g, h, ids = p["tid"], p["g"], p["h"], p["ids"]
    prod, stem = _product(p["op"], g, h)
    pairs = [divmod(i, h.order) for i in ids]
    build = bd.build_cartesian_tree if p["op"].startswith("cart_") else bd.build_lexicographic_tree
    built = build(g, h, pairs)
    lo, _, up = SET_RULES[tid](g, h, pairs, built.distance)
    ok = _valid_tree(prod, built.tree_edges, ids) and lo <= built.distance <= up
    row = _flag(tid, f"{stem} S={_set_str(ids)} built", ok, t0)
    row.lower, row.exact, row.upper = lo, built.distance, up
    return [row]


def _ev_remark1(p: dict) -> list[BoundReport]:
    t0 = time.perf_counter()
    g = generate(FamilySpec("spider", (3, 2, 1, 1, 1)))
    h = generate(FamilySpec("path", (5,)))
    prod = cartesian_product(g, h).graph
    table_g, table_h = (
        {
            frozenset(sup): steiner_distance(f, list(sup), witness=False).distance
            for r in range(1, 5)
            for sup in itertools.combinations(range(5), r)
        }
        for f in (g, h)
    )
    found = None
    for ids in itertools.combinations(range(25), 4):
        gs = frozenset(i // 5 for i in ids)
        hs = frozenset(i % 5 for i in ids)
        if table_g[gs] != 4 or table_h[hs] != 4:
            continue
        exact = steiner_distance(prod, list(ids), witness=False).distance
        if exact >= 9:
            found = (ids, exact)
            break
    if found is None:
        return [BoundReport(p["tid"], "spider-x-P5 4-subset search", 9, 8, INFINITE, FAIL,
                            time.perf_counter() - t0)]
    ids, exact = found
    inst = f"spider(3,2,1,1,1)xP5 S={_set_str(ids)} dG=dH=4"
    return [_mk(p["tid"], inst, 9, exact, INFINITE, t0)]


def _ev_example1(p: dict) -> list[BoundReport]:
    t0 = time.perf_counter()
    n, x, g_set = p["n"], p["x"], p["g_set"]
    g = generate(FamilySpec("path", (n,)))
    h = generate(FamilySpec("star", (3,)))
    prod = cartesian_product(g, h)
    ids = [prod.encode(gi, hj) for gi in g_set for hj in range(3)]
    exact = steiner_distance(prod.graph, ids, witness=False).distance
    pred = n - 1 + 2 * x
    inst = f"P{n}xK1,2 x={x} blocks at {_set_str(g_set)}"
    rows = [_mk(p["tid"], inst, pred, exact, pred, t0)]
    t1 = time.perf_counter()
    _, up = bd.cartesian_distance_bounds(g, h, [divmod(i, 3) for i in ids])
    rows.append(_mk(p["tid"], inst + " upper-tight", up, exact, up, t1))
    return rows


# ---------------------------------------------------------------------------
# product rules of Sections 2-3 on vertex pairs and terminal sets, one
# prediction per rule id. The evaluators above serve both products and read
# these tables by the payload's tid.


def _projected(g: Graph, pairs: Sequence[tuple[int, int]], side: int) -> Distance:
    """Steiner distance in one factor of a product terminal set's projection."""
    return steiner_distance(g, [q[side] for q in pairs], witness=False).distance


def _additive(g: Graph, h: Graph, pairs: Sequence[tuple[int, int]]) -> Distance:
    return _projected(g, pairs, 0) + _projected(h, pairs, 1)


def _around(exact: Distance, lower: Distance, upper: Distance | None = None) -> tuple:
    """(lower, exact, upper) of a set rule's row; no upper means a closed form."""
    return lower, exact, lower if upper is None else upper


def _lex_pair(g: Graph, h: Graph, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """Lemma 3.1: the distance of two vertices of the lexicographic product."""
    if a[0] != b[0]:
        pred = distance(g, a[0], b[0])
    elif g.degree(a[0]) == 0:
        pred = distance(h, a[1], b[1])
    else:
        pred = min(distance(h, a[1], b[1]), 2)
    return pred, pred


def _cor21(g: Graph, h: Graph, pairs: Sequence[tuple[int, int]], exact: Distance) -> tuple:
    # the all-distinct specialization may never beat the true-parameter bound
    d_g, d_h = _projected(g, pairs, 0), _projected(h, pairs, 1)
    k = len(pairs)
    loose = min(d_g + (k - 2) * d_h, d_h + (k - 2) * d_g)
    _, tight = bd.cartesian_distance_bounds(g, h, pairs)
    return exact, tight, loose


# rule id -> ((g, h, (ga, ha), (gb, hb)) -> (lower, upper)) for one vertex pair
PAIR_RULES: dict[str, Callable[..., tuple[Distance, Distance]]] = {
    "Lemma2.1": lambda g, h, a, b: (distance(g, a[0], b[0]) + distance(h, a[1], b[1]),) * 2,
    "Lemma3.1": _lex_pair,
    "Lemma3.2": lambda g, h, a, b: (distance(g, a[0], b[0]), INFINITE),
}

# rule id -> ((g, h, pairs, exact) -> (lower, middle, upper)) for one terminal
# set; the middle is the exact product value except in Cor2.1's chain
SET_RULES: dict[str, Callable[..., tuple[Distance, Distance, Distance]]] = {
    "Lemma2.2": lambda g, h, pairs, exact: _around(exact, _additive(g, h, pairs), INFINITE),
    "Thm2.1": lambda g, h, pairs, exact: _around(exact, *bd.cartesian_distance_bounds(g, h, pairs)),
    "Cor2.1": _cor21,
    "Cor2.2": lambda g, h, pairs, exact: _around(exact, _additive(g, h, pairs)),
    "Lemma3.3": lambda g, h, pairs, exact: _around(exact, _projected(g, pairs, 0), INFINITE),
    "Lemma3.4": lambda g, h, pairs, exact: _around(exact, _projected(g, pairs, 0)),
    "Prop3.1": lambda g, h, pairs, exact: _around(exact, bd.lex_distance_k3(g, h, pairs)),
    "Thm3.1": lambda g, h, pairs, exact: _around(exact, bd.lex_distance_closed_form(g, h, pairs)),
}


# ---------------------------------------------------------------------------
# Steiner k-diameter predictions: the closed forms of Section 4 (Props
# 4.1-4.6), shared by the rules and the tables, and every other rule that
# bounds sdiam_k of one graph


def _cor23(g: Graph, h: Graph, k: int) -> tuple[Distance, Distance]:
    """Cor 2.3 is additive at k = 3, the only k its payloads carry."""
    pred = (steiner_k_diameter(g, 3, witness=False).value
            + steiner_k_diameter(h, 3, witness=False).value)
    return pred, pred


def _cycle(dims: Sequence[int], k: int) -> tuple[int, int]:
    v = dims[0] * (k - 1) // k
    return v, v


def _petersen(dims: Sequence[int], k: int) -> tuple[int, int] | None:
    """The Petersen graph, which is HP3 and HL3."""
    if not 3 <= k <= 10:
        return None
    v = k + 1 if k in (3, 4) else (k if k <= 7 else k - 1)
    return v, v


def _hyper_petersen(dims: Sequence[int], k: int) -> tuple[int, int] | None:
    if dims[0] == 3:
        return _petersen(dims, k)
    if k == 3:
        return 5, 5
    if 4 <= k <= 16:
        return k - 1, 9 + k // 2
    if 17 <= k <= 20:
        return k - 1, k - 1
    return None


def _hyper_petersen_lex(dims: Sequence[int], k: int) -> tuple[int, int] | None:
    if dims[0] == 3:
        return _petersen(dims, k)
    if not 3 <= k <= 20:
        return None
    v = k if k <= 7 else k - 1
    return v, v


def _grid(dims: Sequence[int], k: int) -> tuple[int, int] | None:
    n, m = dims
    if k < 3 or n < 3 or m < 3:
        return None
    return m + n - 2, m + n - 2 + (k - 3) * min(m - 1, n - 1)


def _lex_grid(dims: Sequence[int], k: int) -> tuple[int, int]:
    n, m = dims
    return (n - 1 if m + 1 <= k else k - 1), n + k - 3


def _mesh(dims: Sequence[int], k: int) -> tuple[int, int] | None:
    if k < 3:
        return None
    dims = sorted(dims, reverse=True)
    total = sum(dims)
    r = len(dims)
    return total - r, (k - 2) * (total - r + 1) + dims[0] - 1


def _lex_mesh(dims: Sequence[int], k: int) -> tuple[int, int]:
    lo = dims[0] - 1 if sum(dims[1:]) < k else k - 1
    return lo, dims[0] + k - 2


def _torus(dims: Sequence[int], k: int) -> tuple[int, int] | None:
    if k < 3:
        return None
    dims = sorted(dims, reverse=True)
    lo = sum(d * (k - 1) // k for d in dims)
    up = dims[0] * (k - 1) // k + (k - 2) * sum(d * (k - 1) // k for d in dims[1:])
    return lo, up


def _lex_torus(dims: Sequence[int], k: int) -> tuple[int, int]:
    rest = sum(dims[1:])
    if k <= dims[0]:
        up = dims[0] * (k - 1) // k + k - 2
    else:
        up = dims[0] + k - 3
    if rest + 1 <= k:
        lo = dims[0] * (k - 1) // k
    elif max(dims[0], rest) <= k:
        lo = dims[0] - 1
    elif 3 <= k <= rest:
        lo = k - 1
    else:
        lo = 0
    return lo, up


def _hamming(dims: Sequence[int], k: int) -> tuple[int, int] | None:
    # k starts at 3: the stated upper bound degenerates below the additive
    # lower bound at k=2 once there are two or more factors
    if not 3 <= k <= min(dims):
        return None
    r = len(dims)
    return r * (k - 1), (k - 1) * (k * r - 2 * r - k + 3)


# form key -> ((params, k) -> (lower, upper), or None for k outside the stated
# range). The family names of the table command take their family's dims; the
# lex_ forms are the lexicographic folds of the same factors, and range takes
# (order,). The rule ids and the two examples take the factor pair (g, h).
CLOSED_FORMS: dict[str, Callable[[Sequence, int], tuple[Distance, Distance] | None]] = {
    "complete": lambda dims, k: (k - 1, k - 1),
    "path": lambda dims, k: (dims[0] - 1, dims[0] - 1),
    "cycle": _cycle,
    "petersen": _petersen,
    "hyper_petersen": _hyper_petersen,
    "hyper_petersen_lex": _hyper_petersen_lex,
    "grid": _grid,
    "lex_grid": _lex_grid,
    "mesh": _mesh,
    "lex_mesh": _lex_mesh,
    "torus": _torus,
    "lex_torus": _lex_torus,
    "hamming": _hamming,
    "lex_hamming": lambda dims, k: (k - 1, k - 1),
    "range": lambda dims, k: (k - 1, dims[0] - 1),
    "example2": lambda gh, k: (2 * (gh[0].order - 1) + gh[1].order - 1,) * 2,
    "example3": lambda gh, k: (gh[0].order + k - 3,) * 2,
    "Cor2.3": lambda gh, k: _cor23(*gh, k),
    "Thm2.2": lambda gh, k: bd.cartesian_sdiam_bounds(*gh, k),
    "Thm3.2": lambda gh, k: bd.lex_sdiam_bounds(*gh, k),
    "Prop3.5": lambda gh, k: (bd.sdiam3_lex_closed_form(*gh),) * 2,
}


def _ev_closed_form(p: dict) -> list[BoundReport]:
    out = []
    for k in p["ks"]:
        for label, form, params, g in p["graphs"]:
            t0 = time.perf_counter()
            instance = f"{label} k={k}"
            try:
                # the builders pick every k inside the form's stated range
                lo, up = CLOSED_FORMS[form](params, k)
                exact = steiner_k_diameter(g, k, witness=False).value
            except GuardExceeded as exc:
                # one row per (graph, k) trip, so the rest of the payload still reports
                out.append(_skipped(p["tid"], instance, exc))
                continue
            out.append(_mk(p["tid"], instance, lo, exact, up, t0))
    return out


_OPS: dict[str, Callable[[dict], list[BoundReport]]] = {
    "sdist_floor": _ev_sdist_floor,
    "sdiam_monotone": _ev_sdiam_monotone,
    "spanning": _ev_spanning,
    "tree_shape": _ev_tree_shape,
    "cart_pair": _ev_pair,
    "cart_set": _ev_set,
    "cart_builder": _ev_builder,
    "lex_pair": _ev_pair,
    "lex_set": _ev_set,
    "lex_builder": _ev_builder,
    "remark1": _ev_remark1,
    "example1": _ev_example1,
    "closed_form": _ev_closed_form,
}


def _evaluate(payload: dict) -> list[BoundReport]:
    try:
        return _OPS[payload["op"]](payload)
    except GuardExceeded as exc:
        return [_skipped(payload.get("tid", "?"), payload.get("op", "?"), exc)]


# ---------------------------------------------------------------------------
# instance builders, one per registered rule


def _sdiam_payload(tid: str, ks: Iterable[int], *graphs: tuple) -> dict:
    """A closed_form payload: sdiam_k of each (label, form, params, graph) at each k."""
    return {"op": "closed_form", "tid": tid, "ks": list(ks), "graphs": list(graphs)}


def _product_entry(op: str, form: str, g: Graph, h: Graph) -> tuple:
    """(label, form, (g, h), product) of one product's k-diameter rows."""
    prod, stem = _product(op, g, h)
    return stem, form, (g, h), prod


def _inst_obs11(c: CorpusSpec) -> list[dict]:
    rng = _rng(c, 11)
    out = []
    for g in _single_graphs(c, 111, 20):
        for k in sorted({rng.randint(2, g.order) for _ in range(4)}):
            for ids in _sample_sets(rng, g.order, k, 5):
                out.append({"op": "sdist_floor", "tid": "Obs1.1", "g": g, "ids": list(ids)})
    return out


def _inst_obs12(c: CorpusSpec) -> list[dict]:
    rng = _rng(c, 12)
    out = []
    for g in _single_graphs(c, 121, 15):
        out.append({"op": "sdiam_monotone", "tid": "Obs1.2", "g": g})
        edges = list(g.edges)
        rng.shuffle(edges)
        kept = list(g.edges)
        removed = 0
        for e in edges:
            if removed >= max(1, g.size() // 4):
                break
            trial = [x for x in kept if x != e]
            if len(trial) < len(kept) and is_connected(Graph(g.order, trial)):
                kept = trial
                removed += 1
        sub = Graph(g.order, kept, name=f"{_gname(g)}-sub")
        out.append({"op": "spanning", "tid": "Obs1.2", "g": g, "sub": sub})
    return out


def _inst_thm13(c: CorpusSpec) -> list[dict]:
    return [_sdiam_payload("Thm1.3", range(2, g.order + 1), (_gname(g), "range", (g.order,), g))
            for g in _single_graphs(c, 131, 20)]


def _inst_obs21(c: CorpusSpec) -> list[dict]:
    rng = _rng(c, 21)
    out = []
    for g in _single_graphs(c, 211, 20):
        for ids in _sample_sets(rng, g.order, 3, 8):
            out.append({"op": "tree_shape", "tid": "Obs2.1", "g": g, "ids": list(ids)})
    return out


def _cart_pairs(c: CorpusSpec, salt: int, count: int) -> list[tuple[Graph, Graph]]:
    return _factor_pairs(c, salt, count, (c.min_order, c.max_order), (c.min_order, c.max_order))


def _inst_lemma21(c: CorpusSpec) -> list[dict]:
    rng = _rng(c, 210)
    out = []
    for g, h in _cart_pairs(c, 212, 25):
        total = g.order * h.order
        picks = sorted({tuple(sorted(rng.sample(range(total), 2))) for _ in range(12)})
        for a, b in picks:
            out.append({"op": "cart_pair", "tid": "Lemma2.1", "g": g, "h": h, "a": a, "b": b})
    return out


def _cart_set_instances(c: CorpusSpec, salt: int, tid: str, k_choices: Sequence[int],
                        sets_per: int) -> list[dict]:
    return _set_payloads(_rng(c, salt), _cart_pairs(c, salt + 1, c.pair_count), "cart_set", tid,
                         lambda total: k_choices, sets_per)


def _inst_lemma22(c: CorpusSpec) -> list[dict]:
    return _cart_set_instances(c, 220, "Lemma2.2", (3, 4, 5, 6), 3)


def _inst_thm21(c: CorpusSpec) -> list[dict]:
    half = max(1, c.sets_per_instance // 2)
    return _cart_set_instances(c, 230, "Thm2.1", (4, 5), half) + _inst_builders_cart(c)


def _inst_cor21(c: CorpusSpec) -> list[dict]:
    return _cart_set_instances(c, 240, "Cor2.1", (4, 5), 3)


def _inst_cor22(c: CorpusSpec) -> list[dict]:
    return _cart_set_instances(c, 250, "Cor2.2", (3,), c.sets_per_instance)


def _inst_cor23(c: CorpusSpec) -> list[dict]:
    return [_sdiam_payload("Cor2.3", [3], _product_entry("cart", "Cor2.3", g, h))
            for g, h in _factor_pairs(c, 260, 20, (3, 5), (3, 5))]


def _inst_thm22(c: CorpusSpec) -> list[dict]:
    out = []
    pairs = _factor_pairs(c, 270, 12, (3, 4), (3, 4)) + _factor_pairs(c, 271, 3, (4, 4), (5, 5))
    for g, h in pairs:
        total = g.order * h.order
        ks = sorted({k for k in (3, 4, 6, total) if 3 <= k <= total})
        out.append(_sdiam_payload("Thm2.2", ks, _product_entry("cart", "Thm2.2", g, h)))
    return out


def _inst_remark1(c: CorpusSpec) -> list[dict]:
    return [{"op": "remark1", "tid": "Remark1"}]


def _inst_example1(c: CorpusSpec) -> list[dict]:
    return [
        {"op": "example1", "tid": "Example1", "n": 5, "x": 4, "g_set": [0, 1, 2, 4]},
        {"op": "example1", "tid": "Example1", "n": 4, "x": 4, "g_set": [0, 1, 2, 3]},
        {"op": "example1", "tid": "Example1", "n": 6, "x": 4, "g_set": [0, 1, 3, 5]},
    ]


def _inst_example2(c: CorpusSpec) -> list[dict]:
    p5 = generate(FamilySpec("path", (5,)))
    return [_sdiam_payload("Example2", [4], _product_entry(
        "cart", "example2", p5, generate(FamilySpec("path", (m,))))) for m in (5, 6)]


def _inst_lemma31(c: CorpusSpec) -> list[dict]:
    rng = _rng(c, 310)
    out = []
    for i in range(25):
        n = rng.randint(2, 6)
        m = rng.randint(2, 5)
        g = random_graph(rng, n, rng.choice(DENSITIES), f"G31.{i}")
        h = random_graph(rng, m, rng.choice(DENSITIES), f"H31.{i}")
        total = n * m
        picks = sorted({tuple(sorted(rng.sample(range(total), 2))) for _ in range(10)})
        for a, b in picks:
            out.append({"op": "lex_pair", "tid": "Lemma3.1", "g": g, "h": h, "a": a, "b": b})
    return out


def _inst_lemma32(c: CorpusSpec) -> list[dict]:
    return [{**p, "tid": "Lemma3.2"} for p in _inst_lemma31(c)]


def _lex_pairs(c: CorpusSpec, salt: int, count: int) -> list[tuple[Graph, Graph]]:
    return _factor_pairs(c, salt, count, (3, 7), (2, 5), h_connected=False)


def _inst_lemma33(c: CorpusSpec) -> list[dict]:
    return _set_payloads(_rng(c, 330), _lex_pairs(c, 331, 40), "lex_set", "Lemma3.3",
                         lambda total: (3, min(6, total)), 2)


def _inst_lemma34(c: CorpusSpec) -> list[dict]:
    rng = _rng(c, 340)
    out = []
    for g, h in _lex_pairs(c, 341, 40):
        k = rng.randint(3, min(6, g.order))
        gs = rng.sample(range(g.order), k)
        ids = [gi * h.order + rng.randrange(h.order) for gi in gs]
        out.append({"op": "lex_set", "tid": "Lemma3.4", "g": g, "h": h, "ids": sorted(ids)})
    return out


def _inst_thm31(c: CorpusSpec) -> list[dict]:
    rng = _rng(c, 350)
    sets = _set_payloads(rng, _lex_pairs(c, 351, c.pair_count), "lex_set", "Thm3.1",
                         lambda total: (rng.randint(2, min(6, total)),), 1, oracle=True)
    return sets + _inst_builders_lex(c)


def _inst_prop31(c: CorpusSpec) -> list[dict]:
    rng = _rng(c, 360)
    out = []
    for i in range(12):
        # same copy, isolated base vertex
        n = rng.randint(3, 5)
        blob = random_graph(rng, n - 1, rng.choice(DENSITIES))
        g = Graph(n, [(u + 1, v + 1) for u, v in blob.edges], name=f"iso{i}")
        h = random_graph(rng, rng.randint(3, 5), rng.choice(DENSITIES), f"Hc1.{i}")
        hs = rng.sample(range(h.order), 3)
        ids = sorted(0 * h.order + x for x in hs)
        out.append({"op": "lex_set", "tid": "Prop3.1", "g": g, "h": h, "ids": ids})

        # same copy, base vertex with a neighbor
        g2 = random_connected_graph(rng, rng.randint(2, 5), rng.choice(DENSITIES), f"con{i}")
        h2 = random_graph(rng, rng.randint(3, 5), rng.choice(DENSITIES), f"Hc2.{i}")
        g0 = rng.randrange(g2.order)
        hs = rng.sample(range(h2.order), 3)
        out.append({"op": "lex_set", "tid": "Prop3.1", "g": g2, "h": h2,
                    "ids": sorted(g0 * h2.order + x for x in hs)})

        # two copies in different components
        na, nb = rng.randint(2, 3), rng.randint(2, 3)
        blob_a = random_graph(rng, na, 0.9)
        blob_b = random_graph(rng, nb, 0.9)
        g3 = Graph(na + nb, list(blob_a.edges) + [(u + na, v + na) for u, v in blob_b.edges],
                   name=f"split{i}")
        h3 = random_graph(rng, rng.randint(2, 4), rng.choice(DENSITIES), f"Hc3.{i}")
        ga, gb = rng.randrange(na), na + rng.randrange(nb)
        h_pair = rng.sample(range(h3.order), 2)
        ids = sorted([ga * h3.order + rng.randrange(h3.order),
                      gb * h3.order + h_pair[0], gb * h3.order + h_pair[1]])
        out.append({"op": "lex_set", "tid": "Prop3.1", "g": g3, "h": h3, "ids": ids})

        # two copies joined by a finite path
        g4 = random_connected_graph(rng, rng.randint(2, 5), rng.choice(DENSITIES), f"fin{i}")
        h4 = random_graph(rng, rng.randint(2, 4), rng.choice(DENSITIES), f"Hc4.{i}")
        ga, gb = rng.sample(range(g4.order), 2)
        h_pair = rng.sample(range(h4.order), 2)
        ids = sorted([ga * h4.order + rng.randrange(h4.order),
                      gb * h4.order + h_pair[0], gb * h4.order + h_pair[1]])
        out.append({"op": "lex_set", "tid": "Prop3.1", "g": g4, "h": h4, "ids": ids})

        # three distinct copies
        conn = rng.random() < 0.7
        n5 = rng.randint(3, 6)
        if conn:
            g5 = random_connected_graph(rng, n5, rng.choice(DENSITIES), f"tri{i}")
        else:
            g5 = random_graph(rng, n5, 0.3, f"tri{i}")
        h5 = random_graph(rng, rng.randint(2, 4), rng.choice(DENSITIES), f"Hc5.{i}")
        gs = rng.sample(range(n5), 3)
        ids = sorted(gi * h5.order + rng.randrange(h5.order) for gi in gs)
        out.append({"op": "lex_set", "tid": "Prop3.1", "g": g5, "h": h5, "ids": ids})
    return out


def _inst_thm32(c: CorpusSpec) -> list[dict]:
    rng = _rng(c, 370)
    out = []
    for g, h in _factor_pairs(c, 371, 15, (3, 4), (2, 4)):
        total = g.order * h.order
        # k starts at 3: the stated upper clause degenerates at k=2 (a complete
        # first factor gives diameter 1 there while capped same-copy pairs cost 2).
        ks = sorted({k for k in (3, 4, h.order + 1, total) if 3 <= k <= total})
        ks = rng.sample(ks, min(4, len(ks)))
        out.append(_sdiam_payload("Thm3.2", sorted(ks), _product_entry("lex", "Thm3.2", g, h)))
    return out


def _inst_example3(c: CorpusSpec) -> list[dict]:
    def named(family: str, n: int) -> Graph:
        return generate(FamilySpec(family, (n,)))

    def lex_path(n: int, h: Graph) -> dict:
        m = h.order
        ks = [k for k in range(3, 2 * m + 1)
              if k <= min(2 * m, n) or max(n, m + 1) <= k <= 2 * m]
        return _sdiam_payload("Example3", ks,
                              _product_entry("lex", "example3", named("path", n), h))

    def lex_complete(a: int, b: int, k: int) -> dict:
        # K_a o K_b is the lexicographic Hamming fold of K_a and K_b
        return _sdiam_payload("Example3", [k], _product_entry(
            "lex", "lex_hamming", named("complete", a), named("complete", b)))

    p2 = named("path", 2)
    return [lex_path(5, p2), lex_complete(4, 3, 4), lex_complete(3, 3, 3), lex_path(4, p2),
            lex_path(5, named("path", 3)), lex_path(6, Graph(2, [], name="2K1"))]


def _inst_prop35(c: CorpusSpec) -> list[dict]:
    pairs = _factor_pairs(c, 380, 15, (2, 5), (2, 5))
    named = [
        (("path", (4,)), ("cycle", (3,))),
        (("path", (5,)), ("path", (3,))),
        (("cycle", (6,)), ("path", (3,))),
        (("complete", (5,)), ("path", (3,))),
        (("complete", (3,)), ("complete", (2,))),
        (("star", (5,)), ("path", (2,))),
    ]
    pairs += [(generate(FamilySpec(*gs)), generate(FamilySpec(*hs))) for gs, hs in named]
    return [_sdiam_payload("Prop3.5", [3], _product_entry("lex", "Prop3.5", g, h))
            for g, h in pairs]


def _cart_and_lex(family: str, factor: str, dims: tuple[int, ...],
                  labels: tuple[str, str] | None = None) -> list[tuple]:
    """(label, form, dims, graph) of a named Cartesian family and of the
    left-folded lexicographic product of the same factors."""
    factors = [generate(FamilySpec(factor, (d,))) for d in dims]
    lex = reduce(lambda acc, f: lexicographic_product(acc, f).graph, factors)
    cart_label, lex_label = labels or (f"{family}{dims}", f"lex{family}{dims}")
    return [(cart_label, family, dims, generate(FamilySpec(family, dims))),
            (lex_label, f"lex_{family}", dims, lex)]


def _threshold_ks(dims: Sequence[int]) -> list[int]:
    """k = 3, 4, the order and the case thresholds of the lex forms, in range."""
    prod = math.prod(dims)
    rest = sum(dims[1:])
    return sorted({k for k in (3, 4, rest, rest + 1, prod) if 3 <= k <= prod})


def _inst_prop41(c: CorpusSpec) -> list[dict]:
    out = []
    for family in ("complete", "path", "cycle"):
        lo = 3 if family == "cycle" else 2
        for n in range(lo, 10):
            g = generate(FamilySpec(family, (n,)))
            out.append(_sdiam_payload("Prop4.1", range(2, n + 1), (g.name, family, (n,), g)))
    return out


def _inst_prop42(c: CorpusSpec) -> list[dict]:
    out = []
    for n, m in ((3, 3), (3, 4), (4, 4), (3, 5), (4, 5)):
        total = n * m
        ks = sorted({k for k in (3, m, m + 1, total) if 3 <= k <= total})
        graphs = _cart_and_lex("grid", "path", (n, m), (f"P{n}xP{m}", f"P{n}oP{m}"))
        out.append(_sdiam_payload("Prop4.2", ks, *graphs))
    return out


def _inst_prop43(c: CorpusSpec) -> list[dict]:
    return [_sdiam_payload("Prop4.3", _threshold_ks(dims), *_cart_and_lex("mesh", "path", dims))
            for dims in ((3, 2, 2), (4, 2, 2), (3, 3, 2), (2, 2, 2), (4, 3))]


def _inst_prop44(c: CorpusSpec) -> list[dict]:
    # one payload per product, so each torus's rows come before its lex fold's
    out = []
    cases = [(dims, _threshold_ks(dims)) for dims in ((3, 3), (4, 3), (5, 3))]
    for dims, ks in cases + [((3, 3, 3), [3])]:
        for entry in _cart_and_lex("torus", "cycle", dims):
            out.append(_sdiam_payload("Prop4.4", ks, entry))
    return out


def _inst_prop45(c: CorpusSpec) -> list[dict]:
    return [_sdiam_payload("Prop4.5", range(3, dims[-1] + 1),
                           *_cart_and_lex("hamming", "complete", dims))
            for dims in ((3, 3), (4, 3), (4, 4), (3, 3, 3))]


def _inst_prop46(c: CorpusSpec) -> list[dict]:
    out = []
    for family, n in (("hyper_petersen", 3), ("hyper_petersen_lex", 3),
                      ("hyper_petersen_lex", 4), ("hyper_petersen", 4)):
        g = generate(FamilySpec(family, (n,)))
        ks = range(3, 11 if n == 3 else 21)
        out.append(_sdiam_payload("Prop4.6", ks, (g.name, family, (n,), g)))
    return out


def _inst_obs41(c: CorpusSpec) -> list[dict]:
    out = []
    for g in _single_graphs(c, 410, 15):
        kappa = vertex_connectivity(g)
        ks = range(max(2, g.order - kappa + 1), g.order + 1)
        out.append(_sdiam_payload("Obs4.1", ks, (f"{_gname(g)} kappa={kappa}", "complete",
                                                 (g.order,), g)))
    return out


def _inst_builders_cart(c: CorpusSpec) -> list[dict]:
    rng = _rng(c, 510)
    return _set_payloads(rng, _cart_pairs(c, 511, 40), "cart_builder", "Thm2.1",
                         lambda total: (rng.randint(3, 6),), 3)


def _inst_builders_lex(c: CorpusSpec) -> list[dict]:
    rng = _rng(c, 520)
    return _set_payloads(rng, _lex_pairs(c, 521, 40), "lex_builder", "Thm3.1",
                         lambda total: (rng.randint(2, min(6, total)),), 3)


REGISTRY: dict[str, Callable[[CorpusSpec], list[dict]]] = {
    "Obs1.1": _inst_obs11,
    "Obs1.2": _inst_obs12,
    "Thm1.3": _inst_thm13,
    "Obs2.1": _inst_obs21,
    "Lemma2.1": _inst_lemma21,
    "Lemma2.2": _inst_lemma22,
    "Thm2.1": _inst_thm21,
    "Cor2.1": _inst_cor21,
    "Cor2.2": _inst_cor22,
    "Cor2.3": _inst_cor23,
    "Thm2.2": _inst_thm22,
    "Remark1": _inst_remark1,
    "Example1": _inst_example1,
    "Example2": _inst_example2,
    "Lemma3.1": _inst_lemma31,
    "Lemma3.2": _inst_lemma32,
    "Lemma3.3": _inst_lemma33,
    "Lemma3.4": _inst_lemma34,
    "Thm3.1": _inst_thm31,
    "Prop3.1": _inst_prop31,
    "Thm3.2": _inst_thm32,
    "Example3": _inst_example3,
    "Prop3.5": _inst_prop35,
    "Prop4.1": _inst_prop41,
    "Prop4.2": _inst_prop42,
    "Prop4.3": _inst_prop43,
    "Prop4.4": _inst_prop44,
    "Prop4.5": _inst_prop45,
    "Prop4.6": _inst_prop46,
    "Obs4.1": _inst_obs41,
}


def theorem_ids() -> tuple[str, ...]:
    return tuple(REGISTRY)


def verify_theorem(
    theorem_id: str, corpus: CorpusSpec | None = None, jobs: int = 1
) -> list[BoundReport]:
    """Check one registered rule on the seeded corpus; reports keep instance order."""
    if theorem_id not in REGISTRY:
        raise ValueError(f"unknown theorem id: {theorem_id}")
    corpus = corpus or CorpusSpec()
    payloads = REGISTRY[theorem_id](corpus)
    reports: list[BoundReport] = []
    if jobs > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunk = max(1, len(payloads) // (jobs * 4))
            for rows in pool.map(_evaluate, payloads, chunksize=chunk):
                reports.extend(rows)
    else:
        for payload in payloads:
            reports.extend(_evaluate(payload))
    return reports


# ---------------------------------------------------------------------------
# per-family closed-form tables


def closed_form_table(
    spec: FamilySpec, k_range: Iterable[int], jobs: int = 1
) -> list[TableRow]:
    """One row per k: the stated value or interval next to the computed one."""
    # CLOSED_FORMS also holds the lex folds and rule ids, which are no family
    if spec.family not in CLOSED_FORMS or spec.family not in FAMILIES:
        raise ValueError(f"no closed form registered for family {spec.family!r}")
    hyper = spec.family in ("hyper_petersen", "hyper_petersen_lex")
    if hyper and len(spec.params) == 1 and spec.params[0] > 4:
        raise ValueError(f"no stated table for {spec.family} of dimension {spec.params[0]}")
    g = generate(spec)
    rows = []
    for k in k_range:
        t0 = time.perf_counter()
        if not 2 <= k <= g.order:
            rows.append(TableRow(k, "", None, SKIPPED, 0.0, f"k outside 2..{g.order}"))
            continue
        pred = CLOSED_FORMS[spec.family](spec.params, k)
        if pred is None:
            rows.append(TableRow(k, "", None, SKIPPED, 0.0, "k outside the stated range"))
            continue
        if g.order > config.SPECTRUM_LIMIT and math.comb(g.order, k) > 200_000:
            rows.append(TableRow(k, _fmt_pred(pred), None, SKIPPED, 0.0,
                                 "exact sweep too large"))
            continue
        try:
            val = steiner_k_diameter(g, k, witness=False, jobs=jobs).value
        except GuardExceeded as exc:
            rows.append(TableRow(k, _fmt_pred(pred), None, SKIPPED, 0.0, str(exc)))
            continue
        lo, up = pred
        verdict = PASS if lo <= val <= up else FAIL
        rows.append(TableRow(k, _fmt_pred(pred), val, verdict, time.perf_counter() - t0))
    return rows


def _fmt_pred(pred: tuple[float, float]) -> str:
    lo, up = pred
    return str(int(lo)) if lo == up else f"[{int(lo)},{int(up)}]"


# ---------------------------------------------------------------------------
# report serialization


def _cell(x: float) -> str:
    if x == INFINITE:
        return "inf"
    return str(int(x)) if float(x).is_integer() else str(x)


def reports_to_csv(reports: Sequence[BoundReport]) -> str:
    lines = ["theorem_id,instance,lower,exact,upper,verdict,elapsed_ms"]
    for r in reports:
        inst = r.instance if not r.reason else f"{r.instance} ({r.reason})"
        inst = inst.replace(",", ";")
        lines.append(
            f"{r.theorem_id},{inst},{_cell(r.lower)},{_cell(r.exact)},"
            f"{_cell(r.upper)},{r.verdict},{round(r.elapsed * 1000, 3)}"
        )
    return "\n".join(lines) + "\n"


def _json_num(x: float | None) -> int | float | None:
    """null for INFINITE or None, an int when integral."""
    if x is None or x == INFINITE:
        return None
    return int(x) if float(x).is_integer() else x


def reports_to_json(reports: Sequence[BoundReport]) -> str:
    payload = [
        {
            "theorem_id": r.theorem_id,
            "instance": r.instance,
            "lower": _json_num(r.lower),
            "exact": _json_num(r.exact),
            "upper": _json_num(r.upper),
            "verdict": r.verdict,
            "elapsed_ms": round(r.elapsed * 1000, 3),
            "reason": r.reason,
        }
        for r in reports
    ]
    return json.dumps(payload, indent=2) + "\n"


def table_to_csv(rows: Sequence[TableRow]) -> str:
    lines = ["k,predicted,computed,verdict,elapsed_ms,reason"]
    for r in rows:
        comp = "" if r.computed is None else _cell(r.computed)
        lines.append(
            f"{r.k},{r.predicted},{comp},{r.verdict},"
            f"{round(r.elapsed * 1000, 3)},{r.reason.replace(',', ';')}"
        )
    return "\n".join(lines) + "\n"


def table_to_json(rows: Sequence[TableRow]) -> str:
    payload = [
        {
            "k": r.k,
            "predicted": r.predicted,
            "computed": _json_num(r.computed),
            "verdict": r.verdict,
            "elapsed_ms": round(r.elapsed * 1000, 3),
            "reason": r.reason,
        }
        for r in rows
    ]
    return json.dumps(payload, indent=2) + "\n"
