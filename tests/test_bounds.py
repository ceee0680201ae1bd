import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinerk import (
    INFINITE,
    Graph,
    build_cartesian_tree,
    build_lexicographic_tree,
    cartesian_distance_bounds,
    cartesian_product,
    cartesian_sdiam_bounds,
    drop3_parameter,
    lex_distance_closed_form,
    lex_distance_k3,
    lex_sdiam_bounds,
    lexicographic_product,
    sdiam3_lex_closed_form,
    steiner_distance,
    steiner_k_diameter,
)
from steinerk.families import complete, cycle, path, star

from strategies import connected_graphs, is_valid_tree


# --- the drop-3 surplus parameter ---


def test_drop3_examples():
    assert drop3_parameter([1, 2, 3, 4, 5]) == 2
    assert drop3_parameter([1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4]) == 3
    assert drop3_parameter([7, 7, 7, 7, 7]) == 1
    # at k=3 nothing survives the deletion
    assert drop3_parameter([7, 7, 7]) == 0
    assert drop3_parameter([1, 2, 3]) == 0


def _drop3_by_enumeration(elems):
    """Reference: the fewest distinct values over every choice of three
    positions to delete."""
    return min(
        len({e for i, e in enumerate(elems) if i not in combo})
        for combo in itertools.combinations(range(len(elems)), 3)
    )


@given(st.lists(st.integers(0, 5), min_size=3, max_size=10))
def test_drop3_matches_enumeration(elems):
    assert drop3_parameter(elems) == _drop3_by_enumeration(elems)


def test_drop3_requires_three_elements():
    with pytest.raises(ValueError):
        drop3_parameter([1, 2])


# --- Cartesian distance bounds ---


def test_cartesian_bounds_on_grid_corners():
    p3 = path(3)
    s = [(0, 0), (0, 2), (2, 0), (2, 2)]
    lo, up = cartesian_distance_bounds(p3, p3, s)
    assert (lo, up) == (4, 6)
    prod = cartesian_product(p3, p3)
    ids = [prod.encode(*q) for q in s]
    exact = steiner_distance(prod.graph, ids, witness=False).distance
    assert lo <= exact <= up
    assert exact == 6


def test_cartesian_bounds_additive_at_three_terminals():
    p4, c5 = path(4), cycle(5)
    s = [(0, 0), (1, 2), (3, 4)]
    lo, up = cartesian_distance_bounds(p4, c5, s)
    assert lo == up  # k=3 pins the value to the factor sum
    prod = cartesian_product(p4, c5)
    exact = steiner_distance(prod.graph, [prod.encode(*q) for q in s]).distance
    assert exact == lo


def test_cartesian_bounds_need_three_distinct():
    with pytest.raises(ValueError):
        cartesian_distance_bounds(path(3), path(3), [(0, 0), (0, 0), (1, 1)])
    with pytest.raises(ValueError):
        cartesian_distance_bounds(Graph(3, [(0, 1)]), path(3), [(0, 0), (1, 1), (2, 2)])


# --- Cartesian k-diameter bounds ---


def test_cartesian_sdiam_spec_values():
    assert cartesian_sdiam_bounds(path(3), path(3), 3) == (4, 4)
    assert cartesian_sdiam_bounds(path(5), path(5), 4) == (8, 12)
    # high k collapses through the connectivity shortcut
    assert cartesian_sdiam_bounds(complete(3), complete(3), 6) == (5, 5)


def test_cartesian_sdiam_rejects_bad_k():
    with pytest.raises(ValueError):
        cartesian_sdiam_bounds(path(3), path(3), 2)
    with pytest.raises(ValueError):
        cartesian_sdiam_bounds(path(3), path(3), 10)
    with pytest.raises(ValueError):
        cartesian_sdiam_bounds(Graph(3, [(0, 1)]), path(3), 3)


def test_cartesian_sdiam_sandwiches_exact():
    for g, h, k in ((path(4), cycle(5), 4), (star(4), path(3), 5), (cycle(4), cycle(4), 3)):
        lo, up = cartesian_sdiam_bounds(g, h, k)
        exact = steiner_k_diameter(cartesian_product(g, h).graph, k, witness=False).value
        assert lo <= exact <= up


# --- lexicographic closed forms ---


def test_lex_closed_form_spec_cases():
    k2, p3 = complete(2), path(3)
    assert lex_distance_closed_form(k2, p3, [(0, 0), (0, 1), (0, 2)]) == 2
    empty3 = Graph(3, [])
    assert lex_distance_closed_form(k2, empty3, [(0, 0), (0, 1), (0, 2)]) == 3
    assert lex_distance_closed_form(p3, Graph(2, []), [(0, 0), (0, 1), (2, 0)]) == 3
    # distinct first coordinates reduce to the first factor alone
    assert lex_distance_closed_form(p3, p3, [(0, 0), (1, 2), (2, 1)]) == 2


def test_lex_closed_form_rejects_disconnected_first_factor():
    split = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="lex_distance_k3"):
        lex_distance_closed_form(split, path(2), [(0, 0), (3, 1), (2, 0)])


def test_lex_k3_case_taxonomy():
    h = path(3)
    iso = Graph(3, [(1, 2)])  # vertex 0 has no neighbors
    assert lex_distance_k3(iso, h, [(0, 0), (0, 1), (0, 2)]) == 2  # plain d_H
    con = path(2)
    assert lex_distance_k3(con, Graph(3, []), [(0, 0), (0, 1), (0, 2)]) == 3  # capped at 3
    split = Graph(4, [(0, 1), (2, 3)])
    assert lex_distance_k3(split, h, [(0, 0), (3, 0), (3, 1)]) == INFINITE
    assert lex_distance_k3(path(3), h, [(0, 0), (2, 0), (2, 1)]) == 3  # d_G + 1
    assert lex_distance_k3(path(3), h, [(0, 0), (1, 0), (2, 1)]) == 2  # three copies


def test_lex_k3_needs_exactly_three():
    with pytest.raises(ValueError):
        lex_distance_k3(path(3), path(3), [(0, 0), (0, 1)])


def test_lex_closed_form_matches_exact():
    g, h = path(4), cycle(4)
    prod = lexicographic_product(g, h)
    for s in (
        [(0, 0), (0, 1), (3, 2)],
        [(1, 0), (1, 1), (1, 2), (1, 3)],
        [(0, 0), (1, 1), (2, 2), (3, 3)],
        [(0, 0), (0, 3), (2, 1), (3, 0)],
    ):
        pred = lex_distance_closed_form(g, h, s)
        ids = [prod.encode(*q) for q in s]
        assert pred == steiner_distance(prod.graph, ids, witness=False).distance


# --- lexicographic k-diameter bounds ---


def test_lex_sdiam_spec_values():
    lo, up = lex_sdiam_bounds(path(5), path(2), 4)
    assert up == 6
    exact = steiner_k_diameter(lexicographic_product(path(5), path(2)).graph, 4).value
    assert exact == 6
    # products of cliques are complete, so every k collapses
    for k in (2, 3, 5, 12):
        lo, up = lex_sdiam_bounds(complete(3), complete(4), k)
        exact = steiner_k_diameter(lexicographic_product(complete(3), complete(4)).graph,
                                   k, witness=False).value
        assert exact == k - 1
        assert lo <= exact
        if k >= 3:
            assert exact <= up
    assert lex_sdiam_bounds(path(5), path(3), 2).lower == 1


def test_lex_sdiam_rejects_bad_inputs():
    with pytest.raises(ValueError):
        lex_sdiam_bounds(path(3), path(3), 1)
    with pytest.raises(ValueError):
        lex_sdiam_bounds(path(3), path(3), 10)
    with pytest.raises(ValueError):
        lex_sdiam_bounds(Graph(3, [(0, 1)]), path(3), 3)


def test_sdiam3_lex_spec_values():
    assert sdiam3_lex_closed_form(path(4), cycle(5)) == 4
    assert sdiam3_lex_closed_form(cycle(6), path(3)) == 4
    assert sdiam3_lex_closed_form(complete(5), path(3)) == 2
    assert sdiam3_lex_closed_form(complete(2), complete(4)) == 2
    for g, h in ((path(4), cycle(5)), (cycle(6), path(3)), (complete(5), path(3))):
        exact = steiner_k_diameter(lexicographic_product(g, h).graph, 3, witness=False).value
        assert sdiam3_lex_closed_form(g, h) == exact


# --- witness-tree builders ---


def test_cartesian_builder_single_copy():
    g, h = path(4), cycle(6)
    s = [(2, 0), (2, 2), (2, 4)]
    built = build_cartesian_tree(g, h, s)
    assert built.distance == 4
    prod = cartesian_product(g, h)
    ids = [prod.encode(*q) for q in s]
    assert is_valid_tree(prod.graph, built.tree_edges, ids)


def test_cartesian_builder_block_instance():
    # four full three-vertex blocks spanning a five-column product end to end
    g, h = path(5), star(3)
    s = [(gi, hj) for gi in (0, 1, 2, 4) for hj in range(3)]
    built = build_cartesian_tree(g, h, s)
    assert built.distance == 12
    prod = cartesian_product(g, h)
    assert is_valid_tree(prod.graph, built.tree_edges, [prod.encode(*q) for q in s])
    exact = steiner_distance(prod.graph, [prod.encode(*q) for q in s], witness=False)
    assert exact.distance == 12


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_order=5), connected_graphs(max_order=5), st.randoms())
def test_cartesian_builder_three_terminals_exact(g, h, rnd):
    cells = [(gi, hj) for gi in range(g.order) for hj in range(h.order)]
    s = rnd.sample(cells, 3)
    built = build_cartesian_tree(g, h, s)
    d_g = steiner_distance(g, [q[0] for q in s], witness=False).distance
    d_h = steiner_distance(h, [q[1] for q in s], witness=False).distance
    assert built.distance == d_g + d_h
    prod = cartesian_product(g, h)
    ids = [prod.encode(*q) for q in s]
    assert is_valid_tree(prod.graph, built.tree_edges, ids)
    assert steiner_distance(prod.graph, ids, witness=False).distance == built.distance


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_order=5), connected_graphs(max_order=4), st.randoms())
def test_cartesian_builder_stays_under_upper_bound(g, h, rnd):
    cells = [(gi, hj) for gi in range(g.order) for hj in range(h.order)]
    s = rnd.sample(cells, min(5, len(cells)))
    built = build_cartesian_tree(g, h, s)
    lo, up = cartesian_distance_bounds(g, h, s)
    assert lo <= built.distance <= up
    prod = cartesian_product(g, h)
    assert is_valid_tree(prod.graph, built.tree_edges, [prod.encode(*q) for q in s])


def test_lex_builder_matches_closed_form():
    g, h = path(4), cycle(4)
    prod = lexicographic_product(g, h)
    for s in (
        [(0, 0), (0, 1), (3, 2)],
        [(1, 0), (1, 1), (1, 2)],
        [(0, 0), (1, 1), (2, 2), (3, 3)],
    ):
        built = build_lexicographic_tree(g, h, s)
        assert built.distance == lex_distance_closed_form(g, h, s)
        ids = [prod.encode(*q) for q in s]
        assert is_valid_tree(prod.graph, built.tree_edges, ids)


def test_lex_builder_star_through_neighbor_copy():
    # one copy holding an edgeless slice forces the k-edge star shape
    g, h = path(3), Graph(3, [])
    s = [(1, 0), (1, 1), (1, 2)]
    built = build_lexicographic_tree(g, h, s)
    assert built.distance == 3
    prod = lexicographic_product(g, h)
    assert is_valid_tree(prod.graph, built.tree_edges, [prod.encode(*q) for q in s])


def test_lex_builder_all_distinct_copies():
    g, h = cycle(5), path(3)
    s = [(0, 1), (2, 0), (3, 2)]
    built = build_lexicographic_tree(g, h, s)
    assert built.distance == steiner_distance(g, [0, 2, 3], witness=False).distance
