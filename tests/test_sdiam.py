import pytest

from steinerk import (
    INFINITE,
    GuardExceeded,
    Graph,
    steiner_distance,
    steiner_eccentricity,
    steiner_k_diameter,
    steiner_k_radius,
)
from steinerk.families import cycle, path, petersen, star
from steinerk.sdiam import _masks_by_size

from strategies import off_table


def test_path_diameters():
    res = steiner_k_diameter(path(7), 4)
    assert res.value == 6
    assert res.k == 4
    # spanning endpoints is forced, so every k hits n-1
    for k in range(2, 8):
        assert steiner_k_diameter(path(7), k, witness=False).value == 6


def test_cycle_diameters():
    assert steiner_k_diameter(cycle(7), 3, witness=False).value == 4
    got = [steiner_k_diameter(cycle(6), k, witness=False).value for k in range(2, 7)]
    assert got == [3, 4, 4, 4, 5]


def test_star_diameter_counts_terminals():
    assert steiner_k_diameter(star(5), 3, witness=False).value == 3
    assert steiner_k_diameter(star(5), 5, witness=False).value == 4


def test_petersen_values():
    assert steiner_k_diameter(petersen(), 3, witness=False).value == 4
    assert steiner_k_diameter(petersen(), 9, witness=False).value == 8


def test_witness_attains_the_value():
    res = steiner_k_diameter(cycle(9), 4)
    assert len(res.witness_set) == 4
    check = steiner_distance(cycle(9), res.witness_set)
    assert check.distance == res.value
    assert res.witness_tree == check.tree_edges


def test_witness_is_smallest_attaining_set():
    res = steiner_k_diameter(path(5), 2)
    assert res.witness_set == (0, 4)


def test_k_validation():
    with pytest.raises(ValueError):
        steiner_k_diameter(path(4), 1)
    with pytest.raises(ValueError):
        steiner_k_diameter(path(4), 5)


def test_disconnected_is_infinite():
    g = Graph(5, [(0, 1), (2, 3)])
    res = steiner_k_diameter(g, 2)
    assert res.value == INFINITE and res.witness_tree == ()


def test_eccentricity_and_radius():
    # cycles are vertex transitive, so radius equals diameter
    assert steiner_k_radius(cycle(6), 3) == 4
    assert steiner_eccentricity(cycle(6), 0, 3) == 4
    # path centers do strictly better than the ends
    assert steiner_eccentricity(path(5), 2, 2) == 2
    assert steiner_eccentricity(path(5), 0, 2) == 4
    assert steiner_k_radius(path(5), 2) == 2


def test_monotone_in_k():
    for g in (cycle(8), petersen(), star(6)):
        vals = [steiner_k_diameter(g, k, witness=False).value for k in range(2, g.order + 1)]
        assert vals == sorted(vals)


def test_jobs_do_not_change_answers():
    g = cycle(23)  # above the spectrum cutoff, forces the sweep path
    seq = steiner_k_diameter(g, 3, jobs=1)
    par = steiner_k_diameter(g, 3, jobs=2)
    assert seq == par
    assert seq.value == 15  # floor(23 * 2 / 3)


SWEEP_CASES = {
    "petersen": petersen(),
    "path7": path(7),
    "star6": star(6),
    "disconnected": Graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)]),
}


@pytest.mark.parametrize("name", SWEEP_CASES)
def test_spectrum_and_sweep_agree(name):
    # off the table, the k-set sweep answers graphs the table would answer
    g = SWEEP_CASES[name]
    for k in range(2, g.order + 1):
        for v in range(g.order):
            assert steiner_eccentricity(g, v, k) == off_table(steiner_eccentricity, g, v, k)
        assert steiner_k_radius(g, k) == off_table(steiner_k_radius, g, k)
        via_table = steiner_k_diameter(g, k, witness=False)
        assert via_table == off_table(steiner_k_diameter, g, k, witness=False)
    via_table = steiner_k_diameter(g, 4, witness=False)
    assert via_table == off_table(steiner_k_diameter, g, 4, witness=False, jobs=2)


def test_sweeps_honour_dp_limit(monkeypatch):
    # cycle(23) is above the spectrum limit; the guard trips before any set is solved
    monkeypatch.setenv("STEINERK_DP_LIMIT", "3")
    g = cycle(23)
    with pytest.raises(GuardExceeded, match="DP limit 3"):
        steiner_k_diameter(g, 4, witness=False)
    with pytest.raises(GuardExceeded, match="DP limit 3"):
        steiner_k_diameter(g, 4, jobs=2)
    with pytest.raises(GuardExceeded, match="DP limit 3"):
        steiner_eccentricity(g, 0, 4)
    with pytest.raises(GuardExceeded, match="DP limit 3"):
        steiner_k_radius(g, 4)
    assert steiner_k_diameter(g, 3, witness=False).value == 15


@pytest.mark.parametrize("n", [1, 5, 11])
def test_masks_by_size_lists_each_size_ascending(n):
    want = [m for k in range(n + 1) for m in range(1 << n) if bin(m).count("1") == k]
    assert _masks_by_size(n).tolist() == want
