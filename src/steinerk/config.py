"""Solver guard limits: two overridable by environment variable, the rest constants;
and the cap on worker-pool sizes."""

from __future__ import annotations

import os

DP_LIMIT_ENV = "STEINERK_DP_LIMIT"
ORACLE_GUARD_ENV = "STEINERK_ORACLE_GUARD"

DEFAULT_DP_LIMIT = 16  # max terminal-set support size for the subset DP
DEFAULT_ORACLE_GUARD = 22  # max (order - support size) for superset enumeration
SPECTRUM_LIMIT = 20  # max order for the whole-subset-lattice engine
MAX_ORDER = 4096  # max graph order read or generated; an int32 APSP matrix is 64 MB


class GuardExceeded(RuntimeError):
    """An instance is larger than the configured solver guard allows."""


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from exc


def dp_limit() -> int:
    return _env_int(DP_LIMIT_ENV, DEFAULT_DP_LIMIT)


def check_dp_limit(size: int) -> None:
    """Raise GuardExceeded if terminal sets of this size are over the DP limit."""
    limit = dp_limit()
    if size > limit:
        raise GuardExceeded(f"terminal support of size {size} exceeds the DP limit {limit}")


def oracle_guard() -> int:
    return _env_int(ORACLE_GUARD_ENV, DEFAULT_ORACLE_GUARD)


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
