"""Steiner k-eccentricity, k-radius, and k-diameter by subset enumeration.

Two strategies: small graphs answer every k at once from the connected-superset
table, whose bitmask index the table route keeps; larger graphs sweep the
k-sets as ascending tuples in colex order (by largest vertex, then by the rest
in colex order, which is ascending bitmask order) with connectivity shortcuts
(induced-connected sets cost k-1, one-extra-vertex sets cost k) before the DP.
The first set in that order that attains the maximum is the answer. A pooled
sweep gives each task the sets with one largest vertex, which are one
contiguous colex run; jobs below 2 sweep in-process."""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache, partial
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from . import config
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


@lru_cache(maxsize=4)
def _masks_by_size(n: int) -> np.ndarray:
    """Every n-bit mask, by set-bit count and ascending within a count: the
    k-sets are the C(n, k) entries after the C(n, j) entries of each j < k.

    One preallocated int32 array is filled one count at a time, with no int64
    sort; at order 20, with the popcounts cached, the tracemalloc peak is
    6.4 MiB, 4 MiB of it the index."""
    pop = _popcounts(n)
    out = np.empty(1 << n, dtype=np.int32)
    start = 0
    for j in range(n + 1):
        stop = start + math.comb(n, j)
        out[start:stop] = np.flatnonzero(pop == j)
        start = stop
    return out


def _spectrum_extreme(g: Graph, k: int, require_bit: int | None) -> tuple[Distance, int]:
    """Max Steiner distance over k-sets (containing require_bit if given) plus the
    smallest attaining bitmask, read off the connected-superset table."""
    table = _superset_table(g)
    start = sum(math.comb(g.order, j) for j in range(k))
    idx = _masks_by_size(g.order)[start:start + math.comb(g.order, k)]
    if require_bit is not None:
        idx = idx[(idx >> require_bit) & 1 == 1]
    # n, no connected superset, is the largest entry, so argmax finds the
    # first unreachable set if there is one
    mask = int(idx[int(np.argmax(table[idx]))])
    best = int(table[mask])
    return INFINITE if best == g.order else best, mask


def _colex_sets(n: int, k: int):
    """The k-subsets of range(n) as ascending tuples in colex order: by largest
    vertex top from k - 1 up, then the rest in colex order within range(top)."""
    if k == 0:
        yield ()
        return
    for top in range(k - 1, n):
        for rest in _colex_sets(top, k - 1):
            yield (*rest, top)


def _sweep_values(g: Graph, k: int, top: int | None = None, require: int | None = None):
    """(value, set) of the k-sets in colex order (only those whose largest vertex
    is top, if given), skipping sets without vertex require if given. Stops after
    the first set that spans two components, whose value is INFINITE."""
    if top is None:
        sets = _colex_sets(g.order, k)
    else:
        sets = ((*rest, top) for rest in _colex_sets(top, k - 1))
    for s in sets:
        if require is not None and require not in s:
            continue
        value = _steiner_value(g, s)
        yield value, s
        if value == INFINITE:
            return


def _sweep_best(g: Graph, k: int, top: int | None = None) -> tuple[Distance, tuple[int, ...]]:
    """The largest value over the k-sets (those whose largest vertex is top, if
    given) and the first set in colex order that attains it; max keeps the first
    of equal keys, so the first unreachable set ends and wins the sweep."""
    return max(_sweep_values(g, k, top), key=itemgetter(0))


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
        return _spectrum_extreme(g, k, v)[0]
    config.check_dp_limit(k)
    return max(value for value, _ in _sweep_values(g, k, require=v))


def steiner_k_radius(g: Graph, k: int) -> Distance:
    """Minimum Steiner k-eccentricity over all vertices."""
    _check_k(g, k)
    if g.order <= config.SPECTRUM_LIMIT:
        return min(_spectrum_extreme(g, k, v)[0] for v in range(g.order))
    config.check_dp_limit(k)
    # once a k-set spans two components, so does one through every vertex
    ecc: list[Distance] = [-1] * g.order
    for value, s in _sweep_values(g, k):
        if value == INFINITE:
            return INFINITE
        for t in s:
            ecc[t] = max(ecc[t], value)
    return min(ecc)


def steiner_k_diameter(
    g: Graph, k: int, *, jobs: int = 1, witness: bool = True
) -> SdiamResult:
    """Maximum Steiner distance over all k-subsets, with the first attaining
    subset in colex order (the smallest by bitmask) and its witness tree. A
    sweep (order above the spectrum limit) uses a pool of up to jobs workers,
    capped at the CPU count."""
    _check_k(g, k)
    if g.order <= config.SPECTRUM_LIMIT:
        value, mask = _spectrum_extreme(g, k, None)
        witness_set = tuple(v for v in range(g.order) if mask >> v & 1)
    else:
        config.check_dp_limit(k)
        value, witness_set = _sweep_extreme(g, k, jobs)
    tree: tuple[tuple[int, int], ...] = ()
    if witness and value != INFINITE:
        tree = steiner_distance(g, witness_set).tree_edges
    return SdiamResult(k, value, witness_set, tree)
