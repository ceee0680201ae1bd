import hashlib
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

import steinerk.steiner
from steinerk import (
    GuardExceeded,
    INFINITE,
    Graph,
    config,
    distance,
    steiner_distance,
    steiner_distance_oracle,
    support,
)
from steinerk.families import complete, cycle, path, spider, star
from steinerk.graphs import all_pairs_distances, component_labels, is_connected
from steinerk.products import cartesian_product
from steinerk.steiner import (
    _apsp_matrix,
    _dreyfus_wagner_table,
    _dreyfus_wagner_value,
    _dw_levels,
    _meet_pair_value,
    _meet_vertex_value,
    _popcounts,
    _reads_table,
    _steiner_value,
    _superset_table,
    lexmin_spanning_tree,
)

from strategies import (
    graph_with_terminals,
    is_valid_tree,
    off_table,
    reference_dreyfus_wagner_table,
)


def test_support_collapses_multisets():
    assert support([3, 1, 3, 2, 1]) == (1, 2, 3)
    assert support([5]) == (5,)


def test_single_terminal_costs_nothing():
    res = steiner_distance(cycle(5), [2, 2, 2])
    assert res.distance == 0 and res.tree_edges == ()


def test_two_terminals_reduce_to_shortest_path():
    g = cycle(8)
    res = steiner_distance(g, [0, 3])
    assert res.distance == distance(g, 0, 3) == 3
    assert is_valid_tree(g, res.tree_edges, [0, 3])


def test_cycle_three_terminals():
    res = steiner_distance(cycle(6), [0, 2, 4])
    assert res.distance == 4
    # lexicographically smallest optimal tree is pinned
    assert res.tree_edges == ((0, 1), (0, 5), (1, 2), (4, 5))


def test_spider_leaves():
    g = spider(3, 2, 1, 1, 1)
    res = steiner_distance(g, [2, 3, 4])
    assert res.distance == 4
    assert is_valid_tree(g, res.tree_edges, [2, 3, 4])


def test_star_leaves():
    res = steiner_distance(star(5), [0, 1, 2])
    assert res.distance == 3
    assert is_valid_tree(star(5), res.tree_edges, [0, 1, 2])


def test_terminals_across_components_are_unreachable():
    g = Graph(5, [(0, 1), (2, 3), (3, 4)])
    res = steiner_distance(g, [0, 4])
    assert res.distance == INFINITE and res.tree_edges == ()


def test_duplicate_terminals_use_support():
    g = path(6)
    assert steiner_distance(g, [2, 2, 5]).distance == 3


def test_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        steiner_distance(path(3), [])
    with pytest.raises(ValueError):
        steiner_distance(path(3), [0, 3])


def test_witness_is_deterministic():
    g = cycle(9)
    first = steiner_distance(g, [0, 3, 6])
    second = steiner_distance(g, [0, 3, 6])
    assert first == second


def test_witness_can_be_skipped():
    res = steiner_distance(cycle(6), [0, 2, 4], witness=False)
    assert res.distance == 4 and res.tree_edges == ()


def test_oracle_matches_on_complete_graph():
    val, tree = steiner_distance_oracle(complete(6), [0, 2, 5])
    assert val == 2
    assert is_valid_tree(complete(6), tree, [0, 2, 5])


def test_oracle_guard_trips():
    with pytest.raises(GuardExceeded):
        steiner_distance_oracle(cycle(30), [0, 10, 20])


def test_dp_guard_trips_beyond_limits():
    g = path(30)
    terms = list(range(18))
    with pytest.raises(GuardExceeded):
        steiner_distance(g, terms)


def test_guard_is_read_at_call_time(monkeypatch):
    # guards read config's constants at call time, not import time
    monkeypatch.setattr(config, "ORACLE_GUARD", 2)
    with pytest.raises(GuardExceeded):
        steiner_distance_oracle(cycle(8), [0, 4])
    monkeypatch.setattr(config, "ORACLE_GUARD", 22)
    assert steiner_distance_oracle(cycle(8), [0, 4]).distance == 4


def test_dp_limit_argument_override(monkeypatch):
    # spectrum handles order <= 20; pushing both limits down forces the guard
    monkeypatch.setattr(config, "DP_LIMIT", 3)
    with pytest.raises(GuardExceeded):
        off_table(steiner_distance, path(12), [0, 3, 7, 11])


def test_lexmin_spanning_tree_on_subset():
    g = cycle(4)
    tree = lexmin_spanning_tree(g, [0, 1, 2])
    assert tree == [(0, 1), (1, 2)]
    assert lexmin_spanning_tree(g, [0, 2]) is None


@settings(max_examples=60, deadline=None)
@given(graph_with_terminals(max_k=4))
def test_dp_matches_superset_oracle(case):
    g, terms = case
    got = steiner_distance(g, terms)
    want, _ = steiner_distance_oracle(g, terms)
    assert got.distance == want
    if got.distance != INFINITE:
        assert is_valid_tree(g, got.tree_edges, terms)
        assert len(got.tree_edges) == got.distance


def _engines(k):
    """The per-query engines that answer a k-terminal query above the table limit."""
    return {3: [_meet_vertex_value], 4: [_meet_pair_value]}.get(k, []) + [_dreyfus_wagner_value]


@settings(max_examples=40, deadline=None)
@given(graph_with_terminals(min_k=3, max_k=5))
def test_route_dispatch_agrees(case):
    # the spectrum table, the dispatch without it, and each engine forced
    # directly all give the oracle's value
    g, terms = case
    want = steiner_distance_oracle(g, terms).distance
    assert steiner_distance(g, terms, witness=False).distance == want
    assert off_table(steiner_distance, g, terms, witness=False).distance == want
    for engine in _engines(len(terms)):
        assert engine(g, terms) == want, engine.__name__


def _sparse_connected(rng, n):
    """A random spanning tree plus extra edges up to mean degree 3."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < 3 * n // 2:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return Graph(n, edges)


@pytest.mark.parametrize("seed", range(8))
def test_engines_agree_above_table_limit(seed):
    # orders 21-24 are above the spectrum limit, where real queries use these engines
    rng = random.Random(seed)
    g = _sparse_connected(rng, 21 + seed % 4)
    for k in (3, 4, 5):
        terms = sorted(rng.sample(range(g.order), k))
        want = steiner_distance_oracle(g, terms).distance
        assert steiner_distance(g, terms, witness=False).distance == want
        for engine in _engines(k):
            assert engine(g, terms) == want, engine.__name__


def test_dp_route_builds_one_table(monkeypatch):
    # above the table limit a 6-terminal value comes from Dreyfus-Wagner, and
    # the witness's split arrays read that same table instead of a second build
    g = _sparse_connected(random.Random(0), 30)
    terms = sorted(random.Random(1).sample(range(30), 6))
    full_builds = []
    build = steinerk.steiner._dreyfus_wagner_table

    def counting(h, sup):
        full_builds.append(h is g)
        return build(h, sup)

    monkeypatch.setattr(steinerk.steiner, "_dreyfus_wagner_table", counting)
    res = steiner_distance(g, terms)
    assert res.distance > len(terms)
    assert is_valid_tree(g, res.tree_edges, terms)
    assert sum(full_builds) == 1


def _dw_cases():
    """Seeded graphs of order 2-30 with 1-8 terminals, sparse draws mostly
    disconnected and a spanning tree added to 70 % of them, then two
    Cartesian 8x8 products at k = 5 and path(40) at k = 3."""
    rng = random.Random(10)
    for _ in range(300):
        n = rng.randint(2, 30)
        g = _random_graph(rng, n, rng.choice((0.05, 0.1, 0.2, 0.4)))
        if rng.random() < 0.7:
            g = Graph(n, list(g.edges) + [(rng.randrange(v), v) for v in range(1, n)])
        yield g, sorted(rng.sample(range(n), rng.randint(1, min(8, n))))
    for h in (cycle(8), path(8)):
        yield cartesian_product(cycle(8), h).graph, sorted(rng.sample(range(64), 5))
    yield path(40), [0, 17, 39]


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
def test_dreyfus_wagner_table_matches_reference(dense, monkeypatch):
    # every row included, entries where no tree exists reading the order n,
    # with each grow step forced on every case: the min-plus product, or the
    # BFS, whichever the rule n^2 <= 2^k (n + 2m) would pick
    monkeypatch.setattr(steinerk.steiner, "_reads_apsp", lambda g, k: dense)
    disconnected = 0
    for g, sup in _dw_cases():
        got = _dreyfus_wagner_table(g, sup)
        want = [[min(x, g.order) for x in row] for row in reference_dreyfus_wagner_table(g, sup)]
        assert got.tolist() == want, (g.edges, sup)
        disconnected += not is_connected(g)
    assert disconnected >= 40, disconnected


def _components():
    """cycle(5), path(4), complete(3) and an isolated vertex side by side."""
    parts, edges, lo = (cycle(5), path(4), complete(3), Graph(1, [])), [], 0
    for h in parts:
        edges += [(lo + u, lo + v) for u, v in h.edges]
        lo += h.order
    return Graph(lo, edges)


# name: (graph builder, _SPLIT_CHUNK_ENTRIES or None for the default). The
# seeded draws "0"-"3" are sparse and mostly disconnected; the chunked cases
# take several source chunks of a few rows each, the last one ragged
APSP_CASES = {
    **{str(seed): (lambda seed=seed: _random_graph(random.Random(seed), 1 + 9 * seed, 0.15), None)
       for seed in range(4)},
    "order_0": (lambda: Graph(0, []), None),
    "order_1": (lambda: Graph(1, []), None),
    "edgeless": (lambda: Graph(7, []), None),
    "components": (_components, None),
    "dense": (lambda: _random_graph(random.Random(4), 30, 0.8), None),
    "chunked_65": (lambda: _sparse_connected(random.Random(65), 65), 1000),
    "chunked_97": (lambda: _random_graph(random.Random(97), 97, 0.02), 1000),
    "chunked_130": (lambda: _sparse_connected(random.Random(130), 130), 1000),
}


@pytest.mark.parametrize("case", list(APSP_CASES))
def test_apsp_matrix_matches_all_pairs_distances(case, monkeypatch):
    # unreachable pairs read the order n
    build, chunk = APSP_CASES[case]
    if chunk is not None:
        monkeypatch.setattr(steinerk.steiner, "_SPLIT_CHUNK_ENTRIES", chunk)
    g = build()
    want = [[g.order if d == INFINITE else d for d in row] for row in all_pairs_distances(g)]
    got = _apsp_matrix.__wrapped__(g)
    assert got.dtype == np.int32
    assert got.shape == (g.order, g.order)
    assert got.tolist() == want


@pytest.mark.parametrize("case", list(APSP_CASES))
def test_component_labels_match_reachability(case):
    # u and v share a label iff v is reachable from u; the label is the
    # smallest reachable vertex
    g = APSP_CASES[case][0]()
    labels = component_labels(g)
    assert len(labels) == g.order
    for u, row in enumerate(all_pairs_distances(g)):
        reach = [d != INFINITE for d in row]
        assert [labels[v] == labels[u] for v in range(g.order)] == reach
        assert labels[u] == reach.index(True)


def test_apsp_cache_is_bounded():
    # a full cache of order-MAX_ORDER int32 matrices stays within 512 MiB
    assert _apsp_matrix.cache_info().maxsize * 4 * config.MAX_ORDER ** 2 <= 512 << 20


# (route, k): the engine _steiner_value would pick for a support inside one
# component. "table" runs at the largest order whose 2^n table is no dearer
# than 3^k; the others run off the table at order 12, with the distance
# matrix read (dense) or not
CROSS_CASES = [
    ("bfs", 2),
    *(("table", k) for k in range(3, 7)),
    ("meet_vertex", 3),
    ("meet_pair", 4),
    *(("dp_dense", k) for k in (5, 6)),
    *(("dp_sparse", k) for k in range(4, 7)),
]


@pytest.mark.parametrize("route,k", CROSS_CASES)
def test_steiner_value_is_infinite_across_components(route, k, monkeypatch):
    # two paths side by side; the support holds 0..k-2 and the last vertex
    if route == "table":
        n = max(n for n in range(k, 21) if 1 << n <= 3 ** k)
    else:
        n = 12
        monkeypatch.setattr(config, "SPECTRUM_LIMIT", 0)
        dense = route in ("meet_pair", "dp_dense")
        monkeypatch.setattr(steinerk.steiner, "_reads_apsp", lambda g, k: dense)
    g = Graph(n, [(v, v + 1) for v in range(n - 1) if v + 1 != n // 2])
    sup = (*range(k - 1), n - 1)
    assert _reads_table(g, k) == (route == "table")
    assert _steiner_value(g, sup) == INFINITE
    assert steiner_distance(g, sup) == (INFINITE, ())


def test_apsp_matrix_memory_is_bounded():
    # the result and the float32 adjacency take 4 MB each; the search
    # temporaries are chunked, where all 1000 sources at once peak near 17 MiB
    g = _sparse_connected(random.Random(1000), 1000)
    tracemalloc.start()
    try:
        _apsp_matrix.__wrapped__(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 14 << 20, f"peak {peak / 2**20:.1f} MiB"


def test_dreyfus_wagner_table_memory_is_bounded():
    # merge and grow temporaries are chunked, and the per-size masks are the
    # only plan kept; an unchunked fill peaks near 44 MiB here
    g = _sparse_connected(random.Random(2), 40)
    sup = sorted(random.Random(3).sample(range(40), 12))
    _dw_levels.cache_clear()
    tracemalloc.start()
    try:
        _dreyfus_wagner_table(g, sup)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 << 20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("n", [0, 1, 5, 12])
def test_popcounts_match_bit_counting(n):
    assert _popcounts(n).tolist() == [bin(m).count("1") for m in range(1 << n)]


def _random_graph(rng, n, p):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def _brute_superset_table(g):
    """Smallest connected superset order of every mask (255 if none): a BFS on
    each nonempty mask's induced subgraph, then a downward pass in which a mask
    takes the best of its one-vertex extensions."""
    n = g.order
    best = [255] * (1 << n)
    for mask in range(1, 1 << n):
        verts = [v for v in range(n) if mask >> v & 1]
        seen = {verts[0]}
        queue = [verts[0]]
        for u in queue:
            for w in g.adj[u]:
                if mask >> w & 1 and w not in seen:
                    seen.add(w)
                    queue.append(w)
        if len(seen) == len(verts):
            best[mask] = len(verts)
    for mask in range((1 << n) - 1, -1, -1):
        for v in range(n):
            if not mask >> v & 1:
                best[mask] = min(best[mask], best[mask | 1 << v])
    return best


@pytest.mark.parametrize("n", range(1, 13))
def test_superset_table_matches_brute_force(n):
    # orders 11 and 12 span two lookup-table blocks; sparse draws are disconnected,
    # and each draw is also taken with a random spanning tree added
    rng = random.Random(n)
    for p in (0.1, 0.25, 0.5, 0.9):
        drawn = _random_graph(rng, n, p)
        tree = [(rng.randrange(v), v) for v in range(1, n)]
        for g in (drawn, Graph(n, list(drawn.edges) + tree)):
            table = _superset_table.__wrapped__(g)
            assert table.dtype == np.uint8
            # the table holds d(mask) in edges, n where no connected superset exists
            want = [n if b == 255 else b - 1 for b in _brute_superset_table(g)]
            assert table.tolist() == want, g.edges


# sha256 of the uint8 table of _random_graph(random.Random(seed), n, 3 / (n - 1))
# mapped back to superset orders (255 for none), recorded before the table
# build was last rewritten
TABLE_DIGESTS = {
    (16, 1): "239700bfe0eeff2ec64ad76ba92ca9b8cf617e591bd8d8c16f46f4a1cc177e03",
    (18, 2): "6f8e50b99b0d56bd4dc4c49826611634dd15c3dd01af027afd5f4b529bcc484c",
    (20, 3): "5d61f067ef1db0c17e42a98c0d3cd1990a2c9c049b3c53843dbfd370f5d39498",
}


@pytest.mark.parametrize("n, seed", list(TABLE_DIGESTS))
def test_superset_table_digests_are_pinned(n, seed):
    g = _random_graph(random.Random(seed), n, 3 / (n - 1))
    table = _superset_table.__wrapped__(g)
    assert table.dtype == np.uint8
    orders = np.where(table == n, 255, table + 1).astype(np.uint8)
    assert hashlib.sha256(orders.tobytes()).hexdigest() == TABLE_DIGESTS[n, seed]


def test_order_20_table_build_memory_is_bounded():
    g = _random_graph(random.Random(3), 20, 3 / 19)
    _popcounts(20)  # cached across builds, so not part of one build's cost
    tracemalloc.start()
    try:
        _superset_table.__wrapped__(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 << 20, f"peak {peak / 2**20:.1f} MiB"
