"""Steiner k-eccentricity, k-radius, and k-diameter by subset enumeration.

Two strategies: small graphs answer every k at once from the connected-superset
table; larger graphs sweep k-subsets in colex order with connectivity shortcuts
(induced-connected sets cost k-1, one-extra-vertex sets cost k) before the DP."""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from . import config
from .graphs import INFINITE, Graph, check_vertex, component_of
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
    k-sets are the C(n, k) entries after the C(n, j) entries of each j < k."""
    return np.argsort(_popcounts(n), kind="stable").astype(np.int32)


def _spectrum_extreme(g: Graph, k: int, require_bit: int | None) -> tuple[Distance, int]:
    """Max Steiner distance over k-sets (containing require_bit if given) plus the
    smallest attaining bitmask, read off the connected-superset table."""
    table = _superset_table(g)
    start = sum(math.comb(g.order, j) for j in range(k))
    idx = _masks_by_size(g.order)[start:start + math.comb(g.order, k)]
    if require_bit is not None:
        idx = idx[(idx >> require_bit) & 1 == 1]
    vals = table[idx]
    unreachable = vals == 255
    if unreachable.any():
        return INFINITE, int(idx[unreachable][0])
    top = int(vals.max())
    first = int(idx[int(np.argmax(vals))])
    return top - 1, first


def _colex_masks(n: int, start: int, count: int | None = None):
    """Bitmasks of n-set subsets of start's size, from start upward in ascending
    numeric (colex) order."""
    mask = start
    limit = 1 << n
    emitted = 0
    while mask < limit and (count is None or emitted < count):
        yield mask
        emitted += 1
        c = mask & -mask
        r = mask + c
        mask = (((r ^ mask) >> 2) // c) | r


def _colex_unrank(n: int, k: int, rank: int) -> int:
    """Bitmask of the rank-th k-subset (0-based) in colex order."""
    mask = 0
    remaining = rank
    for i in range(k, 0, -1):
        c = i - 1
        while math.comb(c + 1, i) <= remaining:
            c += 1
        mask |= 1 << c
        remaining -= math.comb(c, i)
    return mask


def _component_labels(g: Graph) -> list[int]:
    """Each vertex's component, named by its smallest vertex."""
    labels = [-1] * g.order
    for v in range(g.order):
        if labels[v] < 0:
            for w in component_of(g, v):
                labels[w] = v
    return labels


def _sweep_values(
    g: Graph, k: int, start: int = 0, count: int | None = None, require: int | None = None
):
    """(value, mask) of count k-sets (all by default) from the start-th in colex
    order, skipping sets without vertex require if given. Stops after the first
    set that spans two components, whose value is INFINITE."""
    labels = _component_labels(g)
    for mask in _colex_masks(g.order, _colex_unrank(g.order, k, start), count):
        if require is not None and not (mask >> require) & 1:
            continue
        terms = _mask_to_set(mask)
        root = labels[terms[0]]
        if any(labels[t] != root for t in terms[1:]):
            yield INFINITE, mask
            return
        yield _steiner_value(g, terms, None), mask  # sweeps run above the table limit


def _sweep_slice(g: Graph, k: int, start_rank: int, count: int) -> tuple[Distance, int]:
    """Best (value, -mask) over one colex slice of k-subsets: the largest value,
    then the smallest attaining mask. Ascending masks make the first unreachable
    set the slice's answer."""
    return max((value, -mask) for value, mask in _sweep_values(g, k, start_rank, count))


def _sweep_extreme(g: Graph, k: int, jobs: int) -> tuple[Distance, int]:
    total = math.comb(g.order, k)
    workers = max(1, min(jobs, total))
    if workers == 1:
        value, neg_mask = _sweep_slice(g, k, 0, total)
        return value, -neg_mask
    chunk = (total + workers - 1) // workers
    starts = range(0, total, chunk)
    counts = [min(chunk, total - start) for start in starts]
    # the graph pickles itself through __getstate__, so each slice task carries it
    with ProcessPoolExecutor(max_workers=workers) as pool:
        value, neg_mask = max(pool.map(partial(_sweep_slice, g, k), starts, counts))
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
    g: Graph, k: int, *, jobs: int | None = 1, witness: bool = True
) -> SdiamResult:
    """Maximum Steiner distance over all k-subsets, with the smallest attaining
    subset (by bitmask) and its witness tree."""
    _check_k(g, k)
    if g.order <= config.SPECTRUM_LIMIT:
        value, mask = _spectrum_extreme(g, k, None)
    else:
        config.check_dp_limit(k)
        value, mask = _sweep_extreme(g, k, jobs or os.cpu_count() or 1)
    witness_set = _mask_to_set(mask)
    tree: tuple[tuple[int, int], ...] = ()
    if witness and value != INFINITE:
        tree = steiner_distance(g, witness_set).tree_edges
    return SdiamResult(k, value, witness_set, tree)
