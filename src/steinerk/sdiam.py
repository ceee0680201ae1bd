"""Steiner k-eccentricity, k-radius, and k-diameter by subset enumeration.

Two strategies: small graphs answer every k at once from the connected-superset
table; larger graphs sweep k-subsets in colex order with connectivity shortcuts
(induced-connected sets cost k-1, one-extra-vertex sets cost k) before the DP."""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
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


def _spectrum_extreme(g: Graph, k: int, require_bit: int | None) -> tuple[Distance, int]:
    """Max Steiner distance over k-sets (containing require_bit if given) plus the
    smallest attaining bitmask, read off the connected-superset table."""
    table = _superset_table(g)
    pop = _popcounts(g.order)
    sel = pop == k
    if require_bit is not None:
        masks = np.arange(1 << g.order, dtype=np.int64)
        sel &= ((masks >> require_bit) & 1).astype(bool)
    idx = np.nonzero(sel)[0]
    vals = table[idx]
    unreachable = vals == 255
    if unreachable.any():
        return INFINITE, int(idx[unreachable][0])
    top = int(vals.max())
    first = int(idx[int(np.argmax(vals))])
    return top - 1, first


def _colex_masks(n: int, k: int, start: int | None = None, count: int | None = None):
    """k-subset bitmasks of an n-set in ascending numeric (colex) order."""
    mask = start if start is not None else (1 << k) - 1
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
    labels = [-1] * g.order
    current = 0
    for v in range(g.order):
        if labels[v] >= 0:
            continue
        stack = [v]
        labels[v] = current
        while stack:
            u = stack.pop()
            for w in g.adj[u]:
                if labels[w] < 0:
                    labels[w] = current
                    stack.append(w)
        current += 1
    return labels


def _sweep_slice(
    g: Graph, k: int, start_rank: int, count: int
) -> tuple[Distance, int] | None:
    """Best (value, smallest attaining mask) over one colex slice of k-subsets."""
    labels = _component_labels(g)
    best_val: Distance = -1
    best_mask = -1
    start = _colex_unrank(g.order, k, start_rank)
    for mask in _colex_masks(g.order, k, start=start, count=count):
        terms = _mask_to_set(mask)
        root = labels[terms[0]]
        if any(labels[t] != root for t in terms[1:]):
            return INFINITE, mask  # ascending masks: first unreachable set wins ties
        value = _steiner_value(g, terms)
        if value > best_val:
            best_val = value
            best_mask = mask
    if best_mask < 0:
        return None
    return best_val, best_mask


def _sweep_slice_job(payload) -> tuple[Distance, int] | None:
    order, edges, k, start_rank, count = payload
    return _sweep_slice(Graph(order, edges), k, start_rank, count)


def _sweep_extreme(g: Graph, k: int, jobs: int) -> tuple[Distance, int]:
    total = math.comb(g.order, k)
    workers = max(1, min(jobs, total))
    if workers == 1:
        result = _sweep_slice(g, k, 0, total)
        assert result is not None
        return result
    chunk = (total + workers - 1) // workers
    payloads = []
    rank = 0
    while rank < total:
        size = min(chunk, total - rank)
        payloads.append((g.order, g.edges, k, rank, size))
        rank += size
    with ProcessPoolExecutor(max_workers=workers) as pool:
        partials = [r for r in pool.map(_sweep_slice_job, payloads) if r is not None]
    # deterministic reduce: larger value first, then smaller bitmask
    best_val, best_mask = partials[0]
    for value, mask in partials[1:]:
        better = (value == INFINITE and best_val != INFINITE) or (
            best_val != INFINITE and value != INFINITE and value > best_val
        )
        if better or (value == best_val and mask < best_mask):
            best_val, best_mask = value, mask
    return best_val, best_mask


def steiner_eccentricity(
    g: Graph, v: int, k: int, *, spectrum_limit: int | None = None
) -> Distance:
    """Maximum Steiner distance over k-sets containing v."""
    check_vertex(g, v)
    _check_k(g, k)
    if g.order <= config.spectrum_limit(spectrum_limit):
        return _spectrum_extreme(g, k, v)[0]
    labels = _component_labels(g)
    best: Distance = -1
    others = [w for w in range(g.order) if w != v]
    for combo in itertools.combinations(others, k - 1):
        terms = tuple(sorted((v,) + combo))
        root = labels[terms[0]]
        if any(labels[t] != root for t in terms[1:]):
            return INFINITE
        best = max(best, _steiner_value(g, terms))
    return best


def steiner_k_radius(g: Graph, k: int, *, spectrum_limit: int | None = None) -> Distance:
    """Minimum Steiner k-eccentricity over all vertices."""
    _check_k(g, k)
    if g.order <= config.spectrum_limit(spectrum_limit):
        return min(_spectrum_extreme(g, k, v)[0] for v in range(g.order))
    labels = _component_labels(g)
    ecc: list[Distance] = [-1] * g.order
    for mask in _colex_masks(g.order, k):
        terms = _mask_to_set(mask)
        root = labels[terms[0]]
        if any(labels[t] != root for t in terms[1:]):
            value: Distance = INFINITE
        else:
            value = _steiner_value(g, terms)
        for t in terms:
            ecc[t] = max(ecc[t], value)
    return min(ecc)


def steiner_k_diameter(
    g: Graph,
    k: int,
    *,
    jobs: int | None = 1,
    witness: bool = True,
    spectrum_limit: int | None = None,
) -> SdiamResult:
    """Maximum Steiner distance over all k-subsets, with the smallest attaining
    subset (by bitmask) and its witness tree."""
    _check_k(g, k)
    if g.order <= config.spectrum_limit(spectrum_limit):
        value, mask = _spectrum_extreme(g, k, None)
    else:
        value, mask = _sweep_extreme(g, k, jobs or os.cpu_count() or 1)
    witness_set = _mask_to_set(mask)
    tree: tuple[tuple[int, int], ...] = ()
    if witness and value != INFINITE:
        tree = steiner_distance(g, witness_set).tree_edges
    return SdiamResult(k, value, witness_set, tree)
