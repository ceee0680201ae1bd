"""Steiner k-eccentricity, k-radius, and k-diameter by subset enumeration.

Two strategies: small graphs answer every k at once from the connected-superset
table; larger graphs sweep k-subsets in colex (ascending bitmask) order with
connectivity shortcuts (induced-connected sets cost k-1, one-extra-vertex sets
cost k) before the DP. Colex order makes the first attaining set the smallest
one. A pooled sweep gives each task the sets with one largest vertex, which are
one contiguous colex run; jobs below 2 sweep in-process."""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache, partial
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


def _mask_to_set(mask: int) -> tuple[int, ...]:
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


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


def _colex_masks(n: int, start: int):
    """Bitmasks of n-set subsets of start's size, from start upward in ascending
    numeric (colex) order."""
    mask = start
    limit = 1 << n
    while mask < limit:
        yield mask
        c = mask & -mask
        r = mask + c
        mask = (((r ^ mask) >> 2) // c) | r


def _sweep_values(g: Graph, k: int, top: int | None = None, require: int | None = None):
    """(value, mask) of the k-sets in colex order (only those whose largest vertex
    is top, if given), skipping sets without vertex require if given. Stops after
    the first set that spans two components, whose value is INFINITE."""
    if top is None:
        masks = _colex_masks(g.order, (1 << k) - 1)
    else:
        # the sets whose largest vertex is top are one colex run, up to 2 << top
        masks = _colex_masks(top + 1, (1 << (k - 1)) - 1 | 1 << top)
    for mask in masks:
        if require is not None and not (mask >> require) & 1:
            continue
        value = _steiner_value(g, _mask_to_set(mask))
        yield value, mask
        if value == INFINITE:
            return


def _sweep_best(g: Graph, k: int, top: int | None = None) -> tuple[Distance, int]:
    """Best (value, -mask) over the k-sets (those whose largest vertex is top, if
    given): the largest value, then the smallest attaining mask. Ascending masks
    make the first unreachable set the answer."""
    return max((value, -mask) for value, mask in _sweep_values(g, k, top))


def _sweep_extreme(g: Graph, k: int, jobs: int) -> tuple[Distance, int]:
    tops = range(g.order - 1, k - 2, -1)  # slice top has C(top, k - 1) sets: largest first
    workers = min(config.pool_size(jobs), len(tops))
    if workers == 1:
        value, neg_mask = _sweep_best(g, k)
        return value, -neg_mask
    # the graph pickles itself through __getstate__, so each slice task carries it
    with ProcessPoolExecutor(max_workers=workers) as pool:
        value, neg_mask = max(pool.map(partial(_sweep_best, g, k), tops))
    return value, -neg_mask


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
    for value, mask in _sweep_values(g, k):
        if value == INFINITE:
            return INFINITE
        for t in _mask_to_set(mask):
            ecc[t] = max(ecc[t], value)
    return min(ecc)


def steiner_k_diameter(
    g: Graph, k: int, *, jobs: int = 1, witness: bool = True
) -> SdiamResult:
    """Maximum Steiner distance over all k-subsets, with the smallest attaining
    subset (by bitmask) and its witness tree. A sweep (order above the spectrum
    limit) uses a pool of up to jobs workers, capped at the CPU count."""
    _check_k(g, k)
    if g.order <= config.SPECTRUM_LIMIT:
        value, mask = _spectrum_extreme(g, k, None)
    else:
        config.check_dp_limit(k)
        value, mask = _sweep_extreme(g, k, jobs)
    witness_set = _mask_to_set(mask)
    tree: tuple[tuple[int, int], ...] = ()
    if witness and value != INFINITE:
        tree = steiner_distance(g, witness_set).tree_edges
    return SdiamResult(k, value, witness_set, tree)
