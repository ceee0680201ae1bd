import random

import pytest
from hypothesis import given, settings

import steinerk.steiner
from steinerk import (
    GuardExceeded,
    INFINITE,
    Graph,
    distance,
    steiner_distance,
    steiner_distance_oracle,
    support,
)
from steinerk.families import complete, cycle, path, spider, star
from steinerk.steiner import (
    _dreyfus_wagner_value,
    _meet_pair_value,
    _meet_vertex_value,
    _popcounts,
    lexmin_spanning_tree,
)

from strategies import graph_with_terminals, is_valid_tree, off_table


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


def test_guard_env_override(monkeypatch):
    # guards read the environment at call time, not import time
    monkeypatch.setenv("STEINERK_ORACLE_GUARD", "2")
    with pytest.raises(GuardExceeded):
        steiner_distance_oracle(cycle(8), [0, 4])
    monkeypatch.setenv("STEINERK_ORACLE_GUARD", "22")
    assert steiner_distance_oracle(cycle(8), [0, 4]).distance == 4


def test_dp_limit_argument_override(monkeypatch):
    # spectrum handles order <= 20; pushing both limits down forces the guard
    monkeypatch.setenv("STEINERK_DP_LIMIT", "3")
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


@pytest.mark.parametrize("n", [0, 1, 5, 12])
def test_popcounts_match_bit_counting(n):
    assert _popcounts(n).tolist() == [bin(m).count("1") for m in range(1 << n)]
