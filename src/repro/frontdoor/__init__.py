"""Throughput-first front door (PR 10).

Two pieces, composable but independent:

* :class:`~repro.frontdoor.ingress.AsyncFrontDoor` -- asyncio ingress
  pooling concurrent arrivals into count-based decision windows;
* :class:`~repro.frontdoor.cache.ShardedDecisionCache` -- the engine's
  bounded, sharded, restart-surviving decision cache.

See ``docs/performance.md`` ("The front door") and
``docs/architecture.md`` section 17.
"""

from __future__ import annotations

from .cache import (
    ShardedDecisionCache,
    clear_cache_dir,
    estimator_cache_token,
    inspect_cache_dir,
)
from .ingress import AsyncFrontDoor, FrontDoorStats

__all__ = [
    "AsyncFrontDoor",
    "FrontDoorStats",
    "ShardedDecisionCache",
    "clear_cache_dir",
    "estimator_cache_token",
    "inspect_cache_dir",
]
