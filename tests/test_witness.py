"""Witness trees against brute force: the tree `steiner_distance` returns is the
lexicographically smallest minimum Steiner tree, `_optimal_edges` is exactly
the union of all minimum Steiner trees, `_min_tree` is one of them, and the
witness does not depend on the route that computed the value."""

import hashlib
import itertools
import random
import tracemalloc
from functools import lru_cache

import pytest

import steinerk.steiner
from steinerk import INFINITE, Graph, config, steiner_distance, steiner_distance_oracle
from steinerk.families import cycle, path
from steinerk.graphs import component_labels
from steinerk.steiner import _min_tree, _optimal_edges, _reads_table, _superset_table

from strategies import brute_lexmin_tree, is_valid_tree, off_table, sparse_connected


def _random_connected(rng, n, p):
    """A random recursive spanning tree plus each other pair with probability p."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    return Graph(n, edges)


def _minimum_trees(g, terms, size):
    """Every edge subset of g with `size` edges that is a tree spanning terms."""
    need = sum(1 << t for t in terms)
    ends = [(1 << u) | (1 << v) for u, v in g.edges]
    trees = []
    for combo in itertools.combinations(range(len(g.edges)), size):
        verts = 0
        for i in combo:
            verts |= ends[i]
        # a tree with `size` edges has exactly size + 1 vertices
        if verts & need != need or bin(verts).count("1") != size + 1:
            continue
        edges = tuple(g.edges[i] for i in combo)
        if is_valid_tree(g, edges, terms):
            trees.append(edges)
    return trees


@lru_cache(maxsize=1)
def _brute_force_cases():
    """(seed, graph, terminals, value, minimum trees) on 400 seeded connected
    graphs of order 4-7, one terminal set for every k from 2 to the order."""
    cases = []
    for seed in range(400):
        rng = random.Random(seed)
        n = 4 + seed % 4
        g = _random_connected(rng, n, rng.choice((0.05, 0.15, 0.3)))
        for k in range(2, n + 1):
            terms = tuple(sorted(rng.sample(range(n), k)))
            value = steiner_distance_oracle(g, terms).distance
            cases.append((seed, g, terms, value, _minimum_trees(g, terms, value)))
    return cases


def test_witness_is_lexmin_minimum_tree():
    general = 0
    for seed, g, terms, value, trees in _brute_force_cases():
        assert trees, (seed, terms)
        res = steiner_distance(g, terms)
        assert res.distance == value, (seed, terms)
        assert res.tree_edges == min(trees), (seed, terms)
        general += value > len(terms)
    # the greedy's general case (value above k) is well represented
    assert general >= 100


@pytest.mark.parametrize("limit", [None, 0])
@pytest.mark.parametrize("chunk", [None, 64], ids=["one_chunk", "small_chunks"])
def test_optimal_edges_are_union_of_minimum_trees(limit, chunk, monkeypatch):
    # the split arrays are the query's Dreyfus-Wagner table on every route, so
    # a spectrum limit of 0 must not change them; 64-entry chunks split every
    # split array of these graphs into several row chunks, the last one ragged
    if limit is not None:
        monkeypatch.setattr(config, "SPECTRUM_LIMIT", limit)
    if chunk is not None:
        monkeypatch.setattr(steinerk.steiner, "_SPLIT_CHUNK_ENTRIES", chunk)
    for seed, g, terms, value, trees in _brute_force_cases():
        union = {e for tree in trees for e in tree}
        got = _optimal_edges(g, terms, value)
        assert set(got) == union, (seed, terms)


@pytest.mark.parametrize(
    "limit, chunk",
    [(None, None), (0, None), (None, 8), (0, 8)],
    ids=["None", "0", "None_chunked", "0_chunked"],
)
def test_min_tree_is_a_minimum_tree(limit, chunk, monkeypatch):
    # the DP-route greedy's first certificate. The split rows are the query's
    # Dreyfus-Wagner table on every route, so a spectrum limit of 0, which
    # takes every case off the table route, must not change the tree.
    # Every split table here fits one chunk, so by default it is read once;
    # 8-entry chunks fold each node's split sums over one or two splits at a
    # time in numpy, the last chunk ragged, and must pick the same tree
    if limit is not None:
        monkeypatch.setattr(config, "SPECTRUM_LIMIT", limit)
    table = 0
    for seed, g, terms, value, trees in _brute_force_cases():
        tree = _min_tree(g, terms, value)
        if chunk is not None:
            with monkeypatch.context() as m:
                m.setattr(steinerk.steiner, "_SPLIT_CHUNK_ENTRIES", chunk)
                assert _min_tree(g, terms, value) == tree, (seed, terms)
        assert tuple(tree) in trees, (seed, terms)
        table += _reads_table(g, len(terms))
    assert table >= 100 if limit is None else table == 0


def _route_cases():
    """64 seeded connected graphs of order 13-16, k from 3 to the order minus 2,
    mean degree 2-3: sparse enough that large terminal sets still need two or
    more Steiner vertices."""
    rng = random.Random(2024)
    for _ in range(64):
        n = rng.randint(13, 16)
        target = round(n * rng.uniform(2.0, 3.0) / 2)
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        while len(edges) < target:
            u, v = sorted(rng.sample(range(n), 2))
            edges.add((u, v))
        k = rng.randint(3, n - 2)
        yield Graph(n, edges), sorted(rng.sample(range(n), k))


def test_witness_route_agreement():
    # where the default route reads the superset table, the witness greedy
    # reads it one entry per edge; off the table it runs on Dreyfus-Wagner
    # split arrays and trials, and the tree must not move. Only the value > k
    # cases run either greedy
    general = table_general = 0
    for g, terms in _route_cases():
        reads = _superset_table.cache_info()
        default = steiner_distance(g, terms)
        after = _superset_table.cache_info()
        dp = off_table(steiner_distance, g, terms)
        assert default == dp, (g.order, terms)
        assert is_valid_tree(g, default.tree_edges, terms)
        above_k = default.distance > len(terms)
        general += above_k
        table_general += above_k and after.hits + after.misses > reads.hits + reads.misses
    assert general >= 5
    assert table_general >= 5


def test_certificates_halve_the_contracted_resolves(monkeypatch):
    # the greedy takes edges on its certificate and drops edges off the
    # minimum trees it knows of without a re-solve; the same 64 queries ran
    # 348 re-solves when every candidate edge took one. A trial whose kept
    # edges leave more parts than edges to spare fails before it contracts:
    # 19 of today's 40 trials re-solve, where all but one did before. Queries
    # on the table route run no trials; they ran 10 of 50 when they did
    trials, resolves = [], []
    trial, value = steinerk.steiner._trial, steinerk.steiner._steiner_value

    def counting_trial(*args):
        trials.append(args)
        return trial(*args)

    def counting_value(g, sup, *table):
        if table:  # only the contracted re-solves pass a one-off table builder
            resolves.append(sup)
        return value(g, sup, *table)

    monkeypatch.setattr(steinerk.steiner, "_trial", counting_trial)
    monkeypatch.setattr(steinerk.steiner, "_steiner_value", counting_value)
    for g, terms in _route_cases():
        steiner_distance(g, terms)
    assert len(trials) <= 348 // 2
    assert len(resolves) <= 25


def _witness_corpus():
    """4500 seeded queries: 1500 graphs of order 5-40 and mean degree 1-3, a
    random spanning tree in 80 % of them (the rest mostly disconnected), and
    three terminal sets of 2-9 vertices each."""
    rng = random.Random(1500)
    for _ in range(1500):
        n = rng.randint(5, 40)
        target = round(n * rng.uniform(1.0, 3.0) / 2)
        edges = set()
        if rng.random() < 0.8:
            edges = {(rng.randrange(v), v) for v in range(1, n)}
        while len(edges) < target:
            u, v = sorted(rng.sample(range(n), 2))
            edges.add((u, v))
        g = Graph(n, edges)
        for _ in range(3):
            yield g, sorted(rng.sample(range(n), rng.randint(2, min(9, n))))


# sha256 over the corpus's (order, terminals, value, witness) reprs, recorded
# before the greedy took certificates
WITNESS_DIGEST = "34a27459b02777ae5ab8b40eb5a341c38286b2232e2affa4b56125f2df0a6522"


def test_witness_digest_is_pinned():
    digest = hashlib.sha256()
    general = unreachable = 0
    for g, terms in _witness_corpus():
        res = steiner_distance(g, terms)
        digest.update(repr((g.order, terms, res.distance, res.tree_edges)).encode())
        general += res.distance != INFINITE and res.distance > len(terms)
        unreachable += res.distance == INFINITE
    assert general >= 2000 and unreachable >= 300, (general, unreachable)
    assert digest.hexdigest() == WITNESS_DIGEST


def test_two_terminal_witness_builds_no_table():
    # k = 2 answers by BFS, so its witness builds no superset table either.
    # Two shortest 3-15 paths tie at 12 edges; the one through 0 is lexmin.
    g = Graph(20, set(path(20).edges) | {(0, 7)})
    misses = _superset_table.cache_info().misses
    res = steiner_distance(g, [3, 15])
    via_0 = [(0, 1), (1, 2), (2, 3), (0, 7)] + [(v, v + 1) for v in range(7, 15)]
    assert res == (12, tuple(sorted(via_0)))
    assert _superset_table.cache_info().misses == misses


def _table_route_cases():
    """(graph, terminals) on 200 seeded graphs of order 6-12, a random tree
    plus up to two edges, every third one split into two such trees: one seeded
    terminal set for each k at which the query reads the superset table, most
    of those on a split graph inside its first tree; then path(20) and
    cycle(20) at k = 15."""
    rng = random.Random(29)
    for i in range(200):
        n = rng.randint(6, 12)
        cut = rng.randint(n - 3, n - 2) if i % 3 == 0 else n
        parts = [range(cut), range(cut, n)] if cut < n else [range(n)]
        edges = {(rng.randrange(part[0], v), v) for part in parts for v in part[1:]}
        for _ in range(rng.randint(0, 2)):
            edges.add(tuple(sorted(rng.sample(rng.choice(parts), 2))))
        g = Graph(n, edges)
        for k in range(3, n + 1):
            if _reads_table(g, k):
                pool = range(cut) if k <= cut and rng.random() < 0.8 else range(n)
                yield g, sorted(rng.sample(pool, k))
    # two 15-terminal witnesses on order 20; on the ring two 3-edge gaps tie
    yield path(20), [0, 1, 2, 4, 5, 7, 8, 9, 10, 12, 13, 14, 16, 18, 19]
    yield cycle(20), [v for v in range(20) if v not in (2, 3, 10, 18, 19)]


def test_table_route_witness_reads_only_the_superset_table(monkeypatch):
    # on the table route the witness greedy reads the query's cached superset
    # table once per edge: no trial, no Dreyfus-Wagner table and no one-off
    # superset table, and its tree is the brute-force lexmin minimum tree
    trials, built, one_off = [], [], []
    trial, dreyfus_wagner = steinerk.steiner._trial, steinerk.steiner._dreyfus_wagner_table
    build = _superset_table.__wrapped__
    monkeypatch.setattr(steinerk.steiner, "_trial", lambda *a: trials.append(a) or trial(*a))
    monkeypatch.setattr(steinerk.steiner, "_dreyfus_wagner_table",
                        lambda h, sup: built.append(h.order) or dreyfus_wagner(h, sup))
    monkeypatch.setattr(_superset_table, "__wrapped__",
                        lambda h: one_off.append(h.order) or build(h))
    general = forest = unreachable = 0
    for g, terms in _table_route_cases():
        res = steiner_distance(g, terms)
        if res.distance == INFINITE:
            assert res.tree_edges == (), (g.edges, terms)
            unreachable += 1
            continue
        assert res.tree_edges == brute_lexmin_tree(g, terms, res.distance), (g.edges, terms)
        general += res.distance > len(terms)
        forest += max(component_labels(g)) > 0
    assert trials == built == one_off == []
    assert general >= 70 and forest >= 60 and unreachable >= 150, (general, forest, unreachable)


def _order_21_24_case(seed):
    """A seeded random recursive tree of order 21-24 plus two random chords, and
    10-12 seeded terminals: above the spectrum limit, so the query takes the DP."""
    rng = random.Random(seed)
    n = rng.randint(21, 24)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(2)}
    return Graph(n, edges), sorted(rng.sample(range(n), rng.randint(10, 12)))


def _contracted_case(name):
    if name == "k5_dp":
        rng = random.Random(234)
        edges = {(rng.randrange(v), v) for v in range(1, 13)} | {(2, 9), (4, 11)}
        return Graph(13, edges), [1, 4, 6, 9, 12]
    return _order_21_24_case(198)


@pytest.mark.parametrize("name", ["k5_dp", "k12_order21"])
def test_contracted_tables_stay_out_of_cache(name, monkeypatch):
    # both queries take the DP: order 13 at k = 5, where 2^13 > 3^5, and order
    # 21, above the spectrum limit. The greedy's contracted re-solves (one of
    # order 17 for the order-21 query) build one-off superset tables; each is
    # read once, so none goes through the shared cache
    g, terms = _contracted_case(name)
    one_off = []
    build = _superset_table.__wrapped__
    monkeypatch.setattr(_superset_table, "__wrapped__", lambda h: one_off.append(h) or build(h))
    misses = _superset_table.cache_info().misses
    res = steiner_distance(g, terms)
    assert res.distance > len(terms)
    assert is_valid_tree(g, res.tree_edges, terms)
    assert one_off
    assert _superset_table.cache_info().misses == misses


def test_contracted_resolves_take_tables_up_to_the_spectrum_limit(monkeypatch):
    # an order-23 query with 12 terminals takes the DP; the greedy's contracted
    # graphs have order 11 to 17 and |need| large enough that 2^order <=
    # 3^|need|, so each reads a one-off table and the query's own is the only
    # Dreyfus-Wagner table built
    built = []
    dreyfus_wagner = steinerk.steiner._dreyfus_wagner_table

    def counting(g, sup):
        built.append(g.order)
        return dreyfus_wagner(g, sup)

    one_off = []
    build = _superset_table.__wrapped__
    monkeypatch.setattr(_superset_table, "__wrapped__", lambda h: one_off.append(h.order) or build(h))
    monkeypatch.setattr(steinerk.steiner, "_dreyfus_wagner_table", counting)
    steinerk.steiner._query_dw_table.cache_clear()
    g, terms = _order_21_24_case(321)
    res = steiner_distance(g, terms)
    assert (g.order, len(terms)) == (23, 12)
    assert res.distance > len(terms)
    assert res.distance == steiner_distance_oracle(g, terms).distance
    assert is_valid_tree(g, res.tree_edges, terms)
    assert [n for n in one_off if n > 16]
    assert built == [g.order]


def _large_k_case(name):
    if name == "path20_k15":
        return path(20), [0, 1, 2, 4, 5, 7, 8, 9, 10, 12, 13, 14, 16, 18, 19]
    if name == "cycle20_k15":
        return cycle(20), [v for v in range(20) if v not in (2, 3, 10, 18, 19)]
    if name == "path20_k18":
        return path(20), [*range(17), 19]
    rng = random.Random(120)
    g = sparse_connected(rng, 120)
    return g, sorted(rng.sample(range(120), 12))


# name: tracemalloc bound in MiB on a witness built with every table cache
# empty. The order-120 query takes Dreyfus-Wagner, and its table is larger
# than one chunk, so the certificate folds its split sums chunk by chunk in
# numpy (_fold_node): 2.19 MiB when each node gathered all its splits at once,
# 2.3 MiB since. The three order-20 queries read the superset table, whose
# witness reads one entry per edge, and peak at 3.0 MiB, the table build
# included. They peaked at 8.75, 8.75 and 54 MiB when they gathered split
# tables node by node, and at 5.2, 5.2 and 7.05 MiB when they folded them.
# The bounds are the gathered peaks plus 1 MiB, 9 MiB for path20_k18
LARGE_K_PEAKS_MIB = {"path20_k15": 9.75, "cycle20_k15": 9.75, "order120_k12": 3.19, "path20_k18": 9}


@pytest.mark.parametrize("name", list(LARGE_K_PEAKS_MIB))
def test_large_k_witness_memory_is_bounded(name):
    g, terms = _large_k_case(name)
    for cache in (_superset_table, steinerk.steiner._query_dw_table, steinerk.steiner._apsp_matrix,
                  steinerk.steiner._dw_levels, steinerk.steiner._popcounts):
        cache.cache_clear()
    tracemalloc.start()
    try:
        res = steiner_distance(g, terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # each value is above k, so the witness comes from a greedy
    assert res.distance > len(terms) and is_valid_tree(g, res.tree_edges, terms)
    assert peak <= LARGE_K_PEAKS_MIB[name] * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_sparse_order_20_witness_above_k():
    # a sparse graph where the optimum needs more Steiner vertices than the
    # two special cases (value k-1 and k) cover
    rng = random.Random(5)
    g = Graph(20, {(rng.randrange(v), v) for v in range(1, 20)} | {(0, 19), (3, 11)})
    terms = sorted(rng.sample(range(20), 12))
    res = steiner_distance(g, terms)
    assert res.distance == steiner_distance_oracle(g, terms).distance
    assert res.distance > len(terms)
    assert len(res.tree_edges) == res.distance
    assert is_valid_tree(g, res.tree_edges, terms)


def test_sparse_witnesses_build_no_large_apsp(monkeypatch):
    # at order 600 and mean degree 3 the matrix rule, n^2 <= 2^k (n + 2m),
    # fails for k <= 4: a 4-terminal value takes the DP instead of the meet,
    # and the 4-, 3- and 2-terminal witnesses' split tables grow by bucket BFS,
    # so none of them builds the 600 x 600 matrix
    rng = random.Random(600)
    n = 600
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < 3 * n // 2:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    g = Graph(n, edges)
    built = []
    apsp = steinerk.steiner._apsp_matrix

    def counting(h):
        misses = apsp.cache_info().misses
        mat = apsp(h)
        if apsp.cache_info().misses > misses:
            built.append(h.order)
        return mat

    monkeypatch.setattr(steinerk.steiner, "_apsp_matrix", counting)
    for k in (4, 3, 2):
        terms = sorted(rng.sample(range(n), k))
        res = steiner_distance(g, terms)
        assert res.distance > k
        assert len(res.tree_edges) == res.distance
        assert is_valid_tree(g, res.tree_edges, terms)
    assert n not in built


def test_value_k_witness_tries_only_connecting_vertices(monkeypatch):
    # three pairwise non-adjacent neighbours of one vertex cost k = 3 edges, and
    # the witness spans them plus one vertex. Only the vertices that join them
    # are tried: a Kruskal per vertex of the graph would run 1997 times here
    rng = random.Random(2000)
    n = 2000
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < 3 * n // 2:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    g = Graph(n, edges)
    terms = next(
        list(trio)
        for c in range(n)
        for trio in itertools.combinations(sorted(g.adj[c]), 3)
        if not any(b in g.adj[a] for a, b in itertools.combinations(trio, 2))
    )
    joining = [v for v in range(n) if all(t in g.adj[v] for t in terms)]
    tried = []
    spanning_tree = steinerk.steiner.lexmin_spanning_tree

    def counting(h, verts):
        tried.append(verts[-1])
        return spanning_tree(h, verts)

    monkeypatch.setattr(steinerk.steiner, "lexmin_spanning_tree", counting)
    res = steiner_distance(g, terms)
    assert res.distance == 3
    assert is_valid_tree(g, res.tree_edges, terms)
    assert tried == joining
