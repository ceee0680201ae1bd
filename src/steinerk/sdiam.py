"""Steiner k-eccentricity, k-radius, and k-diameter by subset enumeration.

Two strategies: small graphs read the connected-superset table. One blocked
pass over it gives the k-diameter, k-eccentricity and k-radius of every k: it
keeps each (set size, entry) cell's first mask and the OR of its masks, so each
size's largest entry and first mask attaining it, and each vertex's largest
entry, are lookups. Larger graphs sweep the k-sets as ascending tuples in colex
order (by largest vertex, then by the rest in colex order, which is ascending
bitmask order) with connectivity shortcuts (induced-connected sets cost k-1,
one-extra-vertex sets cost k) before the DP. The first set in that order that
attains the maximum is the answer. A pooled sweep gives each task the sets with
one largest vertex, which are one contiguous colex run; jobs below 2 sweep
in-process."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache, partial
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from . import config, steiner
from .graphs import INFINITE, Graph, check_vertex
from .steiner import (
    Distance,
    _popcounts,
    _steiner_value,
    _superset_table,
    steiner_distance,
)


class SdiamResult(NamedTuple):
    k: int
    value: Distance
    witness_set: tuple[int, ...]
    witness_tree: tuple[tuple[int, int], ...]


def _check_k(g: Graph, k: int) -> None:
    if not 2 <= k <= g.order:
        raise ValueError(f"k must satisfy 2 <= k <= {g.order}, got {k}")


@lru_cache(maxsize=16)
def _size_extremes(
    g: Graph,
) -> tuple[tuple[Distance, ...], tuple[int, ...], tuple[tuple[Distance, ...], ...]]:
    """For each set size j: the largest superset-table entry over the j-sets,
    the smallest mask that attains it, and for each vertex v the largest entry
    over the j-sets through v (the Steiner j-eccentricity of v); INFINITE for n.

    One pass over the table in blocks of _TABLE_BLOCK masks, keyed popcount *
    (n + 1) + entry: a stable argsort groups each block's masks by (size,
    entry) cell in ascending order, so a run's head is its first mask and
    bitwise_or.reduceat gives the OR of its masks. e_j(v) is then the largest
    entry whose size-j cell has bit v. Tuples, not arrays, so a warm read costs
    no numpy call. At order 20, with the table and the popcounts cached, the
    tracemalloc peak is 0.36 MiB."""
    n = g.order
    table = _superset_table(g)
    pop = _popcounts(n)
    block = steiner._TABLE_BLOCK
    first = np.full((n + 1) * (n + 1), -1, dtype=np.int64)
    cover = np.zeros_like(first)
    for start in range(0, 1 << n, block):
        key = pop[start:start + block].astype(np.uint16)
        key *= n + 1
        key += table[start:start + block]
        masks = np.argsort(key, kind="stable")
        key = key[masks]
        masks += start
        heads = np.concatenate(([0], np.flatnonzero(key[1:] != key[:-1]) + 1))
        cells = key[heads]
        unseen = first[cells] < 0
        first[cells[unseen]] = masks[heads[unseen]]
        cover[cells] |= np.bitwise_or.reduceat(masks, heads)
    first = first.reshape(n + 1, n + 1)
    # a size's largest entry is its last filled cell
    best = n - np.argmax(first[:, ::-1] >= 0, axis=1)
    has = cover.reshape(n + 1, n + 1, 1) >> np.arange(n) & 1
    ecc = (has * np.arange(n + 1)[:, None]).max(axis=1)

    def distances(row):
        return tuple(INFINITE if e == n else e for e in row)

    return (
        distances(best.tolist()),
        tuple(first[np.arange(n + 1), best].tolist()),
        tuple(map(distances, ecc.tolist())),
    )


def _colex_sets(n: int, k: int):
    """The k-subsets of range(n) as ascending tuples in colex order: by largest
    vertex top from k - 1 up, then the rest in colex order within range(top)."""
    if k == 0:
        yield ()
        return
    for top in range(k - 1, n):
        for rest in _colex_sets(top, k - 1):
            yield (*rest, top)


def _top_slice(k: int, top: int):
    """The k-sets whose largest vertex is top, in colex order: one contiguous
    colex run of the sweep."""
    return ((*rest, top) for rest in _colex_sets(top, k - 1))


def _sets_through(n: int, k: int, v: int):
    """The k-subsets of range(n) that hold v, in colex order: the colex
    (k - 1)-subsets of the other vertices, renumbered past v, with v put in."""
    for rest in _colex_sets(n - 1, k - 1):
        yield tuple(sorted((v, *(u + (u >= v) for u in rest))))


def _sweep_values(g: Graph, sets):
    """(value, set) of each set in turn. Stops after the first set that spans
    two components, whose value is INFINITE."""
    for s in sets:
        value = _steiner_value(g, s)
        yield value, s
        if value == INFINITE:
            return


def _sweep_best(g: Graph, k: int, top: int | None = None) -> tuple[Distance, tuple[int, ...]]:
    """The largest value over the k-sets (those whose largest vertex is top, if
    given) and the first set in colex order that attains it; max keeps the first
    of equal keys, so the first unreachable set ends and wins the sweep."""
    sets = _colex_sets(g.order, k) if top is None else _top_slice(k, top)
    return max(_sweep_values(g, sets), key=itemgetter(0))


def _sweep_extreme(g: Graph, k: int, jobs: int) -> tuple[Distance, tuple[int, ...]]:
    tops = range(g.order - 1, k - 2, -1)  # slice top has C(top, k - 1) sets: largest first
    workers = min(config.pool_size(jobs), len(tops))
    if workers == 1:
        return _sweep_best(g, k)
    # the graph pickles itself through __getstate__, so each slice task carries it
    with ProcessPoolExecutor(max_workers=workers) as pool:
        slices = list(pool.map(partial(_sweep_best, g, k), tops))
    # in ascending top, the slices are the whole sweep in colex order
    return max(reversed(slices), key=itemgetter(0))


def steiner_eccentricity(g: Graph, v: int, k: int) -> Distance:
    """Maximum Steiner distance over k-sets containing v."""
    check_vertex(g, v)
    _check_k(g, k)
    if g.order <= config.SPECTRUM_LIMIT:
        _, _, ecc = _size_extremes(g)
        return ecc[k][v]
    config.check_dp_limit(k)
    return max(value for value, _ in _sweep_values(g, _sets_through(g.order, k, v)))


def steiner_k_radius(g: Graph, k: int) -> Distance:
    """Minimum Steiner k-eccentricity over all vertices."""
    _check_k(g, k)
    if g.order <= config.SPECTRUM_LIMIT:
        _, _, ecc = _size_extremes(g)
        return min(ecc[k])
    config.check_dp_limit(k)
    # once a k-set spans two components, so does one through every vertex
    ecc: list[Distance] = [-1] * g.order
    for value, s in _sweep_values(g, _colex_sets(g.order, k)):
        if value == INFINITE:
            return INFINITE
        for t in s:
            ecc[t] = max(ecc[t], value)
    return min(ecc)


def steiner_k_diameter(
    g: Graph, k: int, *, jobs: int = 1, witness: bool = True
) -> SdiamResult:
    """Maximum Steiner distance over all k-subsets, with the first attaining
    subset in colex order (the smallest by bitmask) and its witness tree. Up to
    the spectrum limit the value and set are read from _size_extremes, the one
    cached pass over the superset table that also answers every k-eccentricity
    and k-radius; above it a sweep uses a pool of up to jobs workers, capped at
    the CPU count."""
    _check_k(g, k)
    if g.order <= config.SPECTRUM_LIMIT:
        best, first, _ = _size_extremes(g)
        # n, no connected superset, is the largest entry, so the first mask of
        # a size that holds an unreachable set is its first unreachable set
        value, mask = best[k], first[k]
        witness_set = tuple(v for v in range(g.order) if mask >> v & 1)
    else:
        config.check_dp_limit(k)
        value, witness_set = _sweep_extreme(g, k, jobs)
    tree: tuple[tuple[int, int], ...] = ()
    if witness and value != INFINITE:
        tree = steiner_distance(g, witness_set).tree_edges
    return SdiamResult(k, value, witness_set, tree)
