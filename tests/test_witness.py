"""Witness trees against brute force: the tree `steiner_distance` returns is the
lexicographically smallest minimum Steiner tree, `_optimal_edges` is exactly
the union of all minimum Steiner trees, and the witness does not depend on the
route that computed the value."""

import itertools
import random
from functools import lru_cache

import pytest

import steinerk.steiner
from steinerk import Graph, config, steiner_distance, steiner_distance_oracle
from steinerk.families import path
from steinerk.steiner import _optimal_edges, _superset_table

from strategies import is_valid_tree, off_table


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
    # a spectrum limit of 0 takes the split arrays from Dreyfus-Wagner instead
    # of the superset table; 64-entry chunks split every split array of these
    # graphs into several row chunks, the last one ragged
    if limit is not None:
        monkeypatch.setattr(config, "SPECTRUM_LIMIT", limit)
    if chunk is not None:
        monkeypatch.setattr(steinerk.steiner, "_SPLIT_CHUNK_ENTRIES", chunk)
    for seed, g, terms, value, trees in _brute_force_cases():
        union = {e for tree in trees for e in tree}
        got = _optimal_edges(g, terms, value)
        assert set(got) == union, (seed, terms)


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
    # where the default route reads the superset table, the split arrays come
    # off it; off the table they come from Dreyfus-Wagner, and the tree must
    # not move. Only the value > k cases build the witness from split arrays
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


def test_two_terminal_witness_builds_no_table():
    # k = 2 answers by BFS, so its witness builds no superset table either.
    # Two shortest 3-15 paths tie at 12 edges; the one through 0 is lexmin.
    g = Graph(20, set(path(20).edges) | {(0, 7)})
    misses = _superset_table.cache_info().misses
    res = steiner_distance(g, [3, 15])
    via_0 = [(0, 1), (1, 2), (2, 3), (0, 7)] + [(v, v + 1) for v in range(7, 15)]
    assert res == (12, tuple(sorted(via_0)))
    assert _superset_table.cache_info().misses == misses


@pytest.mark.parametrize(
    "terms, table_misses",
    [([0, 3, 6, 8, 12], 0), ([0, 1, 3, 5, 6, 8, 9, 10, 12], 1)],
    ids=["k5_dp", "k9_table"],
)
def test_contracted_tables_stay_out_of_cache(terms, table_misses):
    # at order 13 a query reads the superset table only where 2^13 <= 3^k, so
    # k = 5 takes the DP and k = 9 the table. The greedy's contracted re-solves
    # may build one-off tables too; each is read once, so only the query's own
    # table goes through the shared cache
    rng = random.Random(0)
    g = Graph(13, {(rng.randrange(v), v) for v in range(1, 13)} | {(2, 9), (4, 11)})
    misses = _superset_table.cache_info().misses
    res = steiner_distance(g, terms)
    assert res.distance > len(terms)
    assert is_valid_tree(g, res.tree_edges, terms)
    assert _superset_table.cache_info().misses == misses + table_misses


def test_contracted_resolves_take_tables_up_to_the_spectrum_limit(monkeypatch):
    # the greedy's contracted graphs here have order 17-20 and |need| large
    # enough that 2^order <= 3^|need|, so each reads a one-off table and none
    # runs the pure-Python Dreyfus-Wagner DP
    built = []
    dreyfus_wagner = steinerk.steiner._dreyfus_wagner_table

    def counting(g, sup):
        built.append(g.order)
        return dreyfus_wagner(g, sup)

    monkeypatch.setattr(steinerk.steiner, "_dreyfus_wagner_table", counting)
    terms = [0, 1, 2, 4, 5, 7, 8, 9, 10, 12, 13, 14, 16, 18, 19]
    res = steiner_distance(path(20), terms)
    assert res == (19, path(20).edges)
    assert [n for n in built if n > 16] == []


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
