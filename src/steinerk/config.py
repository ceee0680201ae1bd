"""Solver guard limits and the cap on worker-pool sizes.

The limits are plain constants, read at call time: a library caller may assign
one (say steinerk.config.DP_LIMIT) and the next query honours it. The getters
return the constants for callers outside the package."""

from __future__ import annotations

import os

DP_LIMIT = 16  # max terminal-set support size for the subset DP
ORACLE_GUARD = 22  # max (order - support size) for superset enumeration
SPECTRUM_LIMIT = 20  # max order for the whole-subset-lattice engine
MAX_ORDER = 4096  # max graph order read or generated; an int32 APSP matrix is 64 MB


class GuardExceeded(RuntimeError):
    """An instance is larger than the configured solver guard allows."""


def dp_limit() -> int:
    return DP_LIMIT


def check_dp_limit(size: int) -> None:
    """Raise GuardExceeded if terminal sets of this size are over the DP limit."""
    if size > DP_LIMIT:
        raise GuardExceeded(f"terminal support of size {size} exceeds the DP limit {DP_LIMIT}")


def oracle_guard() -> int:
    return ORACLE_GUARD


def spectrum_limit() -> int:
    return SPECTRUM_LIMIT


def pool_size(jobs: int) -> int:
    """Workers for a pool asked for jobs: at least 1 and at most the CPU count,
    since a forked pool starts every worker at its first task."""
    return max(1, min(jobs, os.cpu_count() or 1))


def check_order(order: int) -> None:
    """Raise GuardExceeded before a graph of this order is built, if it is over the limit."""
    if order > MAX_ORDER:
        raise GuardExceeded(f"graph order {order} exceeds the order limit {MAX_ORDER}")
