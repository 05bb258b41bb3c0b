"""Request/response scheduling front end: the :class:`SchedulingService`.

OmniBoost's headline property — one trained estimator answers every
workload with no per-mix retraining — is exactly the shape of a
long-lived scheduling *service*.  This module supplies that surface:

* :meth:`SchedulingService.submit` answers one
  :class:`~repro.core.base.ScheduleRequest` (or bare
  :class:`~repro.workloads.mix.Workload`);
* :meth:`SchedulingService.schedule_many` answers a batch, deduping
  repeated mixes through a decision cache and running the remaining
  MCTS searches *concurrently*, with their leaf evaluations pooled
  into shared :meth:`~repro.estimator.model.ThroughputEstimator.predict_throughput_batch`
  calls;
* :meth:`SchedulingService.stats` reports service counters (requests
  served, cache hit rate, pooled batches, estimator queries);
* :meth:`SchedulingService.run_trace` replays an
  :class:`~repro.workloads.trace.ArrivalTrace` through the online
  subsystem with warm-started re-searches — optionally under an
  :class:`~repro.slo.SLOPolicy`, which annotates per-arrival SLO
  attainment (observe-only) or additionally enforces the contract
  with admission control, bounded queueing and priority preemption
  (see ``docs/slo.md``).

The implementation lives in :class:`~repro.engine.SchedulingEngine` —
the board-scoped core (decision cache, pooled concurrent drive, trace
replay, :class:`~repro.engine.ServiceStats`) that
:class:`~repro.fleet.FleetService` instantiates once per board of a
cluster.  ``SchedulingService`` is that engine specialized to a single
board: same constructor, same behaviour, byte-identical decisions —
the name every single-board deployment and the original examples use.

Two properties make the pooling safe:

1. the search exposes its evaluation points
   (:meth:`~repro.core.mcts.MonteCarloTreeSearch.search_steps`), so
   each search consumes exactly the rewards it would have computed
   itself, in the same order;
2. batched inference is bitwise invariant to batch composition
   (eval-mode :func:`~repro.nn.functional.linear_rowwise`), so a
   reward never depends on which *other* requests share the pool.

Together they make ``schedule_many`` return mappings identical to a
sequential per-request loop — the batching is a pure wall-clock /
amortization win, never a behavioural change.

The decision cache keys on the *canonical* mix signature (sorted model
names — workload order carries no semantics, paper Section IV-C), the
scheduler name and the budget override; a hit against a permuted
duplicate re-aligns the cached mapping's rows to the request's order.
Requests carrying an objective override bypass the cache (their reward
scale is caller-defined) but still pool their evaluations.  Since
PR 10 the cache is a bounded :class:`~repro.frontdoor.ShardedDecisionCache`
(per-shard LRU, ``cache_shards``/``cache_capacity`` constructor
knobs, evictions counted in :class:`~repro.engine.ServiceStats`) and
can persist across restarts via ``cache_dir`` — snapshots are keyed
on the estimator version, so retrained weights invalidate them
automatically.  Front the service with
:class:`~repro.frontdoor.AsyncFrontDoor` to pool asynchronous
arrivals into count-based decision windows (see
``docs/performance.md``).  A batch naming a model the estimator
cannot embed raises :class:`~repro.core.base.InvalidRequest` before
any search starts.

Online serving in four lines::

    >>> from repro import SchedulingService, SystemBuilder
    >>> from repro.workloads import churn_scenario
    >>> service = SchedulingService(SystemBuilder().with_estimator(epochs=20))
    >>> report = service.run_trace(churn_scenario("steady-drain"))
    >>> print(report.summary())
"""

from __future__ import annotations

from .engine import SchedulingEngine, ServiceStats

__all__ = ["SchedulingService", "ServiceStats"]


class SchedulingService(SchedulingEngine):
    """Long-lived single-board scheduling front end.

    A direct specialization of :class:`~repro.engine.SchedulingEngine`
    (see the module docstring): one lazy
    :class:`~repro.builder.SystemBuilder` or built
    :class:`~repro.builder.OmniBoostSystem`, one scheduler, one
    decision cache.  For many boards, see
    :class:`~repro.fleet.FleetService`.
    """
