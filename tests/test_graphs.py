import json

import pytest
from hypothesis import given, strategies as st

from steinerk import (
    INFINITE,
    Graph,
    all_pairs_distances,
    bfs_distances,
    diameter,
    distance,
    from_json,
    induced_subgraph,
    is_connected,
    to_json,
    vertex_connectivity,
)
from steinerk.families import complete, cycle, path, petersen, star
from steinerk.graphs import component_labels, eccentricity, is_complete, is_path_graph

from strategies import graphs


@given(graphs(), st.randoms(use_true_random=False))
def test_adjacency_is_ascending_whatever_the_edge_order(g, rng):
    # the edges are given shuffled, each in a random orientation
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges]
    rng.shuffle(edges)
    h = Graph(g.order, edges)
    for v in range(g.order):
        neighbours = [w for e in g.edges if v in e for w in e if w != v]
        assert h.adj[v] == tuple(sorted(neighbours))


def test_normalizes_and_dedupes_edges():
    g = Graph(3, [(1, 0), (0, 1), (1, 2)])
    assert g.edges == ((0, 1), (1, 2))
    assert g.degree(1) == 2
    assert g.neighbors(1) == (0, 2)
    assert g.has_edge(2, 1) and not g.has_edge(0, 2)
    assert g.size() == 2


def test_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(2, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(-1, [])


def test_graphs_hash_and_compare_by_structure():
    a = Graph(3, [(0, 1)], name="a")
    b = Graph(3, [(1, 0)], name="b")
    assert a == b and hash(a) == hash(b)
    assert a != Graph(3, [(0, 2)])


def test_distance_on_known_graphs():
    p4 = path(4)
    assert distance(p4, 0, 3) == 3
    assert distance(p4, 2, 2) == 0
    assert diameter(cycle(6)) == 3
    assert eccentricity(cycle(6), 0) == 3
    two_parts = Graph(4, [(0, 1), (2, 3)])
    assert distance(two_parts, 0, 3) == INFINITE
    assert diameter(two_parts) == INFINITE
    assert component_labels(two_parts) == (0, 0, 2, 2)
    assert not is_connected(two_parts)


def test_distance_rejects_unknown_vertex():
    with pytest.raises(ValueError):
        distance(path(3), 0, 3)


@given(graphs(min_order=2, max_order=8))
def test_bfs_distance_symmetry(g):
    rows = all_pairs_distances(g)
    for u in range(g.order):
        for v in range(g.order):
            assert rows[u][v] == rows[v][u]
            assert rows[u][v] == distance(g, u, v)


@given(graphs(min_order=3, max_order=8))
def test_triangle_inequality(g):
    rows = [bfs_distances(g, v) for v in range(g.order)]
    for u in range(g.order):
        for v in range(g.order):
            for w in range(g.order):
                assert rows[u][w] <= rows[u][v] + rows[v][w]


def test_induced_subgraph_remaps_ids():
    g = cycle(5)
    sub, remap = induced_subgraph(g, [1, 2, 4])
    assert sub.order == 3
    assert remap == {1: 0, 2: 1, 4: 2}
    assert sub.edges == ((0, 1),)


def test_shape_predicates():
    assert is_complete(complete(4))
    assert not is_complete(cycle(4))
    assert is_path_graph(path(5))
    assert is_path_graph(path(1))
    assert not is_path_graph(cycle(5))
    assert not is_path_graph(star(4))


def test_vertex_connectivity_known_values():
    assert vertex_connectivity(petersen()) == 3
    assert vertex_connectivity(complete(5)) == 4
    assert vertex_connectivity(path(5)) == 1
    assert vertex_connectivity(cycle(6)) == 2
    assert vertex_connectivity(star(5)) == 1
    assert vertex_connectivity(Graph(4, [(0, 1), (2, 3)])) == 0
    assert vertex_connectivity(Graph(1, [])) == 0


def test_json_round_trip():
    g = petersen()
    again = from_json(to_json(g))
    assert again == g and again.name == g.name
    payload = json.loads(to_json(g))
    assert set(payload) == {"name", "order", "edges"}


def test_json_rejects_garbage():
    with pytest.raises(ValueError, match="malformed graph JSON"):
        from_json("{not json")
    with pytest.raises(ValueError, match="malformed graph JSON"):
        from_json('{"order": 3}')
    with pytest.raises(ValueError, match="malformed graph JSON"):
        from_json('[1, 2]')
