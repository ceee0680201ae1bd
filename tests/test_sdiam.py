import itertools
import math
import os
import random
import tracemalloc

import numpy as np
import pytest

import steinerk.sdiam
from steinerk import (
    INFINITE,
    GuardExceeded,
    Graph,
    config,
    steiner_distance,
    steiner_eccentricity,
    steiner_k_diameter,
    steiner_k_radius,
)
from steinerk.cli import main
from steinerk.families import FamilySpec, cycle, generate, grid, hamming, path, petersen, star
from steinerk.graphs import to_json
from steinerk.sdiam import (
    _colex_sets,
    _sets_through,
    _size_extremes,
    _sweep_values,
    _top_slice,
)
from steinerk.steiner import _popcounts
from steinerk.verify import closed_form_table, random_connected_graph

from strategies import brute_lexmin_tree, off_table


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


# (family, params, ks): every (graph, k) with k above the DP limit whose
# k-diameter `table` reports, 24 in all. Up to order 20 each reads the
# superset table, so the DP limit, which guards the DP route, must not refuse it
ABOVE_DP_LIMIT = [
    *((family, params, range(17, 21)) for family, params in (
        ("hyper_petersen", (4,)), ("hyper_petersen_lex", (4,)), ("grid", (4, 5)),
        ("path", (20,)), ("cycle", (20,)))),
    ("torus", (3, 6), range(17, 19)),
    ("grid", (3, 6), range(17, 19)),
]


def test_k_diameters_above_the_dp_limit_agree_across_routes(tmp_path, capsys):
    pairs = 0
    for family, params, ks in ABOVE_DP_LIMIT:
        spec = FamilySpec(family, params)
        g = generate(spec)
        assert g.order <= config.SPECTRUM_LIMIT and max(ks) > config.DP_LIMIT
        rows = {row.k: row for row in closed_form_table(spec, ks)}
        gf = tmp_path / "g.json"
        gf.write_text(to_json(g))
        for k in ks:
            res = steiner_k_diameter(g, k)
            assert rows[k].verdict == "PASS" and rows[k].computed == res.value, (family, k)
            assert res.witness_tree == brute_lexmin_tree(g, res.witness_set, res.value), (family, k)
            assert main(["sdiam", "-g", str(gf), "-k", str(k)]) == 0, (family, k)
            out = capsys.readouterr().out.splitlines()
            assert out == [
                str(res.value),
                "S: " + ",".join(map(str, res.witness_set)),
                "T: " + " ".join(f"{u}-{v}" for u, v in res.witness_tree),
            ], (family, k)
            pairs += 1
    assert pairs == 24


def test_sweeps_honour_dp_limit(monkeypatch):
    # cycle(23) is above the spectrum limit; the guard trips before any set is solved
    monkeypatch.setattr(config, "DP_LIMIT", 3)
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


def _two_paths(order, cut):
    """A path on 0..cut-1 and another on cut..order-1."""
    return Graph(order, [(v, v + 1) for v in range(order - 1) if v + 1 != cut])


EXTREME_CASES = {
    **SWEEP_CASES,
    "hamming4x4": hamming(4, 4),
    "grid4x5": grid(4, 5),
    "two-paths14": _two_paths(14, 6),
}


def _entry_distance(g, entry):
    return INFINITE if entry == g.order else int(entry)


@pytest.mark.parametrize("name", EXTREME_CASES)
def test_size_extremes_match_the_per_k_index(name, monkeypatch):
    g = EXTREME_CASES[name]
    table = steinerk.sdiam._superset_table(g)
    pop = _popcounts(g.order)
    # blocks of 1000 masks leave every table of order 10 or more a ragged last
    # block, and a (size, entry) cell spans blocks
    for block in (1000, steinerk.steiner._TABLE_BLOCK):
        monkeypatch.setattr(steinerk.steiner, "_TABLE_BLOCK", block)
        best, first, _ = _size_extremes.__wrapped__(g)
        assert len(best) == len(first) == g.order + 1
        for k in range(1, g.order + 1):
            # the k-sets in ascending mask order; argmax keeps the smallest mask
            sets = np.flatnonzero(pop == k)
            mask = int(sets[int(np.argmax(table[sets]))])
            assert (best[k], first[k]) == (_entry_distance(g, table[mask]), mask), (block, k)


@pytest.mark.parametrize("name", EXTREME_CASES)
def test_size_vertex_extremes_match_a_brute_force(name, monkeypatch):
    g = EXTREME_CASES[name]
    table = steinerk.sdiam._superset_table(g)
    pop = _popcounts(g.order)
    for block in (1000, steinerk.steiner._TABLE_BLOCK):
        monkeypatch.setattr(steinerk.steiner, "_TABLE_BLOCK", block)
        _, _, ecc = _size_extremes.__wrapped__(g)
        assert len(ecc) == g.order + 1
        for k in range(1, g.order + 1):
            sets = np.flatnonzero(pop == k)
            for v in range(g.order):
                want = _entry_distance(g, table[sets[sets >> v & 1 == 1]].max())
                assert ecc[k][v] == want, (block, k, v)


def test_order_20_size_extremes_memory_is_bounded():
    g = grid(4, 5)
    steinerk.sdiam._superset_table(g)  # the table and popcounts are cached,
    _popcounts(20)  # so neither is part of the pass's cost
    tracemalloc.start()
    try:
        _size_extremes.__wrapped__(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20, f"peak {peak / 2**20:.1f} MiB"


def test_order_20_size_vertex_extremes_memory_is_bounded():
    # the eccentricity route end to end: the pass, then a read of every e_k(v)
    g = grid(4, 5)
    steinerk.sdiam._superset_table(g)
    _popcounts(20)
    _size_extremes.cache_clear()
    tracemalloc.start()
    try:
        radii = [steiner_k_radius(g, k) for k in range(2, 21)]
        ecc = [steiner_eccentricity(g, v, 20) for v in range(20)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert radii == sorted(radii) and ecc == [19] * 20
    assert peak <= 1 << 20, f"peak {peak / 2**20:.1f} MiB"


def test_table_route_queries_share_one_pass():
    g = petersen()
    _size_extremes.cache_clear()
    steiner_k_diameter(g, 4)
    steiner_eccentricity(g, 0, 5)
    steiner_k_radius(g, 6)
    assert _size_extremes.cache_info().misses == 1


@pytest.mark.parametrize("n", range(13))
def test_colex_sets_are_the_combinations_by_ascending_mask(n):
    for k in range(n + 1):
        want = sorted(itertools.combinations(range(n), k), key=lambda s: sum(1 << v for v in s))
        assert list(_colex_sets(n, k)) == want


def test_sweeps_past_int64_masks(pool_sizes, monkeypatch):
    # path(70) has vertices past bit 63, where no int64 mask reaches; two CPUs
    # make jobs=2 merge pooled slices on any host
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    g = path(70)
    for jobs in (1, 2):
        res = steiner_k_diameter(g, 2, jobs=jobs)
        assert (res.value, res.witness_set) == (69, (0, 69))
    assert pool_sizes == [2]
    assert steiner_eccentricity(g, 0, 2) == 69
    assert steiner_k_radius(g, 2) == 35


@pytest.mark.parametrize("seed", range(4))
def test_slices_by_largest_vertex_partition_the_sweep(seed):
    # the k-sets whose largest vertex is j are one colex run; the runs for
    # j = k-1 .. n-1, joined, are the whole sweep in order
    rng = random.Random(seed)
    g = random_connected_graph(rng, 8 + seed, rng.uniform(0.2, 0.6))
    for k in range(2, 6):
        joined = [vm for j in range(k - 1, g.order)
                  for vm in _sweep_values(g, _top_slice(k, j))]
        assert joined == list(_sweep_values(g, _colex_sets(g.order, k)))
        assert len(joined) == math.comb(g.order, k)


def _connected_but(order, isolated):
    """A path over every vertex but the isolated one."""
    rest = [v for v in range(order) if v != isolated]
    return Graph(order, list(zip(rest, rest[1:])))


POOLED_DISCONNECTED = {
    # only the sets holding the last vertex are unreachable: the last slice
    "last-isolated": (_connected_but(9, 8), (0, 1, 8)),
    # the first unreachable set has largest vertex 5, a middle slice; later
    # slices each stop at a larger unreachable set of their own
    "middle-isolated": (_connected_but(9, 5), (0, 1, 5)),
    # the even and the odd vertices: the first set, in the first slice, spans both
    "interleaved": (Graph(10, [(v, v + 2) for v in range(8)]), (0, 1, 2)),
}


@pytest.mark.parametrize("name", POOLED_DISCONNECTED)
def test_pooled_sweep_finds_the_first_unreachable_set(name, pool_sizes, monkeypatch):
    # two CPUs make jobs=2 merge the slices on any host, in this process
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    g, first = POOLED_DISCONNECTED[name]
    seq = off_table(steiner_k_diameter, g, 3, jobs=1)
    assert seq.value == INFINITE and seq.witness_set == first
    assert off_table(steiner_k_diameter, g, 3, jobs=2) == seq
    for k in (2, 4):
        assert off_table(steiner_k_diameter, g, k, jobs=2) == off_table(
            steiner_k_diameter, g, k, jobs=1)
    assert pool_sizes == [2] * 3


def test_in_process_sweep_solves_every_set_in_colex_order(monkeypatch):
    solved = []

    def recording(g, terms):
        solved.append(sum(1 << t for t in terms))
        return real(g, terms)

    real = steinerk.sdiam._steiner_value
    monkeypatch.setattr(steinerk.sdiam, "_steiner_value", recording)
    assert steiner_k_diameter(cycle(23), 3, jobs=1, witness=False).value == 15
    want = sorted(sum(1 << v for v in c) for c in itertools.combinations(range(23), 3))
    assert solved == want


def test_radius_sweep_solves_every_set_in_colex_order(monkeypatch):
    solved = []

    def recording(g, terms):
        solved.append(sum(1 << t for t in terms))
        return real(g, terms)

    real = steinerk.sdiam._steiner_value
    monkeypatch.setattr(steinerk.sdiam, "_steiner_value", recording)
    assert steiner_k_radius(cycle(23), 3) == 15
    want = sorted(sum(1 << v for v in c) for c in itertools.combinations(range(23), 3))
    assert solved == want


@pytest.mark.parametrize("n", range(11))
def test_sets_through_are_the_colex_sets_holding_v(n):
    for k in range(1, n + 1):
        for v in range(n):
            want = [s for s in _colex_sets(n, k) if v in s]
            assert list(_sets_through(n, k, v)) == want


def test_eccentricity_sweep_solves_only_the_sets_through_v(monkeypatch):
    solved = []

    def recording(g, terms):
        solved.append(terms)
        return real(g, terms)

    real = steinerk.sdiam._steiner_value
    monkeypatch.setattr(steinerk.sdiam, "_steiner_value", recording)
    g = random_connected_graph(random.Random(5), 23, 0.15)
    for v, k in ((0, 3), (11, 4), (22, 3)):
        solved.clear()
        steiner_eccentricity(g, v, k)
        assert all(v in s for s in solved)
        assert len(solved) == len(set(solved)) == math.comb(22, k - 1)


ECCENTRICITY_CASES = {
    "connected21": random_connected_graph(random.Random(21), 21, 0.2),
    "two-paths22": _two_paths(22, 9),
    "connected23": random_connected_graph(random.Random(23), 23, 0.15),
    "isolated24": _connected_but(24, 17),
}


@pytest.mark.parametrize("name", ECCENTRICITY_CASES)
def test_eccentricity_sweep_matches_the_filtered_walk(name):
    # the old sweep walked every k-set in colex order and skipped those without v
    g = ECCENTRICITY_CASES[name]
    for k in (2, 3, 4):
        for v in (0, g.order // 2, g.order - 1):
            walk = _sweep_values(g, (s for s in _colex_sets(g.order, k) if v in s))
            assert steiner_eccentricity(g, v, k) == max(value for value, _ in walk)


def test_disconnected_sweep_stops_after_the_first_unreachable_set(monkeypatch):
    # cycles on 0..14 and 15..22: every 3-set of the first is solved in colex
    # order, then {0, 1, 15}, the first set that spans both, ends the sweep
    solved = []

    def recording(g, terms):
        solved.append(sum(1 << t for t in terms))
        return real(g, terms)

    real = steinerk.sdiam._steiner_value
    monkeypatch.setattr(steinerk.sdiam, "_steiner_value", recording)
    g = Graph(23, [(v, (v + 1) % 15) for v in range(15)]
              + [(15 + v, 15 + (v + 1) % 8) for v in range(8)])
    res = steiner_k_diameter(g, 3, jobs=1, witness=False)
    want = sorted(sum(1 << v for v in c) for c in itertools.combinations(range(15), 3))
    assert solved == want + [1 | 2 | 1 << 15]
    assert (res.value, res.witness_set) == (INFINITE, (0, 1, 15))


def test_jobs_below_two_sweep_in_process(pool_sizes):
    g = cycle(23)
    assert steiner_k_diameter(g, 3, jobs=0) == steiner_k_diameter(g, 3, jobs=1)
    assert pool_sizes == []
