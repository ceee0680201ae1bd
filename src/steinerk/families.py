"""Deterministic generators for named graph families and interconnection topologies.

Canonical labelings:
  path(n)      0-1-2-...-(n-1)
  cycle(n)     path labeling plus the closing edge (0, n-1)
  complete(n)  all pairs
  star(n)      leaves 0..n-2, center n-1
  hypercube(d) ids are bit strings; edges flip one bit; Q_0 is a single vertex
  petersen     0-4 outer 5-cycle, 5-9 inner 5-cycle with chord step 2, spokes i to i+5
  grid/mesh/torus/hamming  iterated cartesian products (left fold, row-major ids)
  hyper_petersen(n)     hypercube(n-3) combined with petersen by cartesian product
  hyper_petersen_lex(n) hypercube(n-3) combined with petersen by lexicographic product
  spider(d1,...,dn)     caterpillar tree realizing the degree sequence: vertices of
                        degree >= 2 chained in id order, leaves attached first-fit
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

from . import config
from .graphs import Graph
from .products import cartesian_product, lexicographic_product

@dataclass(frozen=True)
class FamilySpec:
    family: str
    params: tuple[int, ...] = ()


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs order >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)], name=f"P{n}")


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs order >= 3")
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return Graph(n, edges, name=f"C{n}")


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs order >= 1")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph(n, edges, name=f"K{n}")


def star(n: int) -> Graph:
    """Star on n vertices: n-1 leaves plus the center, labeled last."""
    if n < 2:
        raise ValueError("star needs order >= 2")
    center = n - 1
    return Graph(n, [(leaf, center) for leaf in range(n - 1)], name=f"K1,{n - 1}")


def hypercube(d: int) -> Graph:
    if d < 0:
        raise ValueError("hypercube dimension must be >= 0")
    n = 1 << d
    edges = [(v, v ^ (1 << b)) for v in range(n) for b in range(d) if v < v ^ (1 << b)]
    return Graph(n, edges, name=f"Q{d}")


def petersen() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i, i + 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
    return Graph(10, edges, name="petersen")


def _fold_cartesian(factors: Sequence[Graph], name: str) -> Graph:
    prod = reduce(lambda acc, f: cartesian_product(acc, f).graph, factors[1:], factors[0])
    return Graph(prod.order, prod.edges, name=name)


def grid(n: int, m: int) -> Graph:
    if n < 1 or m < 1:
        raise ValueError("grid needs both sides >= 1")
    return _fold_cartesian([path(n), path(m)], name=f"grid({n},{m})")


def mesh(*dims: int) -> Graph:
    if not dims:
        raise ValueError("mesh needs at least one dimension")
    if any(d < 1 for d in dims):
        raise ValueError("mesh dimensions must be >= 1")
    label = ",".join(str(d) for d in dims)
    return _fold_cartesian([path(d) for d in dims], name=f"mesh({label})")


def torus(*dims: int) -> Graph:
    if not dims:
        raise ValueError("torus needs at least one dimension")
    if any(d < 3 for d in dims):
        raise ValueError("torus dimensions must be >= 3")
    label = ",".join(str(d) for d in dims)
    return _fold_cartesian([cycle(d) for d in dims], name=f"torus({label})")


def hamming(*dims: int) -> Graph:
    if not dims:
        raise ValueError("hamming needs at least one dimension")
    if any(d < 1 for d in dims):
        raise ValueError("hamming dimensions must be >= 1")
    label = ",".join(str(d) for d in dims)
    return _fold_cartesian([complete(d) for d in dims], name=f"hamming({label})")


def hyper_petersen(n: int) -> Graph:
    if n < 3:
        raise ValueError("hyper_petersen needs n >= 3")
    prod = cartesian_product(hypercube(n - 3), petersen()).graph
    return Graph(prod.order, prod.edges, name=f"HP{n}")


def hyper_petersen_lex(n: int) -> Graph:
    if n < 3:
        raise ValueError("hyper_petersen_lex needs n >= 3")
    prod = lexicographic_product(hypercube(n - 3), petersen()).graph
    return Graph(prod.order, prod.edges, name=f"HL{n}")


def spider(*degrees: int) -> Graph:
    """Caterpillar tree realizing the degree sequence, e.g. spider(3,2,1,1,1)."""
    n = len(degrees)
    if n < 2:
        raise ValueError("spider needs at least two vertices")
    if any(d < 1 for d in degrees):
        raise ValueError("spider degrees must be >= 1")
    if sum(degrees) != 2 * (n - 1):
        raise ValueError("degree sequence does not sum to twice the edge count of a tree")
    internal = [v for v, d in enumerate(degrees) if d >= 2]
    leaves = [v for v, d in enumerate(degrees) if d == 1]
    if not internal and n > 2:
        raise ValueError("degree sequence has no internal vertices")
    edges = []
    remaining = list(degrees)
    for a, b in zip(internal, internal[1:]):
        edges.append((a, b))
        remaining[a] -= 1
        remaining[b] -= 1
    if n == 2:
        return Graph(2, [(0, 1)], name="spider(1,1)")
    slot = 0
    for leaf in leaves:
        while slot < len(internal) and remaining[internal[slot]] == 0:
            slot += 1
        if slot == len(internal):
            raise ValueError("degree sequence is not realizable by this chain layout")
        edges.append((internal[slot], leaf))
        remaining[internal[slot]] -= 1
    if any(remaining[v] != 0 for v in internal):
        raise ValueError("degree sequence is not realizable by this chain layout")
    label = ",".join(str(d) for d in degrees)
    return Graph(n, edges, name=f"spider({label})")


# family -> (parameter count, None for any; generator)
_GENERATORS = {
    "path": (1, path),
    "cycle": (1, cycle),
    "complete": (1, complete),
    "star": (1, star),
    "hypercube": (1, hypercube),
    "petersen": (0, petersen),
    "grid": (2, grid),
    "mesh": (None, mesh),
    "torus": (None, torus),
    "hamming": (None, hamming),
    "hyper_petersen": (1, hyper_petersen),
    "hyper_petersen_lex": (1, hyper_petersen_lex),
    "spider": (None, spider),
}
FAMILIES = tuple(_GENERATORS)


def _family_order(family: str, params: tuple[int, ...]) -> int:
    """Order of the graph the generator would build, from its parameters alone.
    Parameters the generator rejects count as 0, so its own message stands."""
    if family == "petersen":
        return 10
    if family == "spider":
        return len(params)
    if family in ("hypercube", "hyper_petersen", "hyper_petersen_lex"):
        dim = params[0] if family == "hypercube" else params[0] - 3
        if dim < 0:
            return 0
        # past 2^64 the exact order is irrelevant, and computing it may not fit in memory
        return (1 if family == "hypercube" else 10) << min(dim, 64)
    return math.prod(max(p, 0) for p in params)


def generate(spec: FamilySpec) -> Graph:
    """Build the graph described by a family spec; every generator is deterministic.

    The order is checked against the order limit before any generator runs."""
    family = spec.family
    params = tuple(spec.params)
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    expected, build = _GENERATORS[family]
    if expected is not None and len(params) != expected:
        raise ValueError(f"{family} takes {expected} parameter(s), got {len(params)}")
    config.check_order(_family_order(family, params))
    return build(*params)
