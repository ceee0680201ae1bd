"""Witness trees against brute force: the tree `steiner_distance` returns is the
lexicographically smallest minimum Steiner tree, `_optimal_edges` is exactly
the union of all minimum Steiner trees, and the witness does not depend on the
route that computed the value."""

import itertools
import random
from functools import lru_cache

import pytest

import steinerk.steiner
from steinerk import Graph, steiner_distance, steiner_distance_oracle
from steinerk.families import path
from steinerk.steiner import _optimal_edges, _superset_table

from strategies import is_valid_tree


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


@pytest.mark.parametrize("spectrum_limit", [None, 0])
@pytest.mark.parametrize("chunk", [None, 64], ids=["one_chunk", "small_chunks"])
def test_optimal_edges_are_union_of_minimum_trees(spectrum_limit, chunk, monkeypatch):
    # 64-entry chunks split every split array of these graphs into several
    # row chunks, the last one ragged
    if chunk is not None:
        monkeypatch.setattr(steinerk.steiner, "_SPLIT_CHUNK_ENTRIES", chunk)
    for seed, g, terms, value, trees in _brute_force_cases():
        union = {e for tree in trees for e in tree}
        got = _optimal_edges(g, terms, value, spectrum_limit)
        assert set(got) == union, (seed, terms)


def _route_cases():
    """Seeded connected graphs of order 13-20, k 3-10, mean degree 2.2-4."""
    rng = random.Random(2024)
    for _ in range(16):
        n = rng.randint(13, 20)
        target = round(n * rng.uniform(2.2, 4.0) / 2)
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        while len(edges) < target:
            u, v = sorted(rng.sample(range(n), 2))
            edges.add((u, v))
        k = rng.randint(3, 10)
        yield Graph(n, edges), sorted(rng.sample(range(n), k))


def test_witness_route_agreement():
    # the default route reads split arrays off the superset table; with
    # spectrum_limit=0 they come from Dreyfus-Wagner, and the tree must not move
    general = 0
    for g, terms in _route_cases():
        table = steiner_distance(g, terms)
        dp = steiner_distance(g, terms, spectrum_limit=0)
        assert table == dp, (g.order, terms)
        assert is_valid_tree(g, table.tree_edges, terms)
        general += table.distance > len(terms)
    assert general >= 5


def test_two_terminal_witness_builds_no_table():
    # k = 2 answers by BFS, so its witness builds no superset table either.
    # Two shortest 3-15 paths tie at 12 edges; the one through 0 is lexmin.
    g = Graph(20, set(path(20).edges) | {(0, 7)})
    misses = _superset_table.cache_info().misses
    res = steiner_distance(g, [3, 15])
    via_0 = [(0, 1), (1, 2), (2, 3), (0, 7)] + [(v, v + 1) for v in range(7, 15)]
    assert res == (12, tuple(sorted(via_0)))
    assert _superset_table.cache_info().misses == misses


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
