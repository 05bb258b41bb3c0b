"""Per-board scheduling engine: cache + pooled search over ONE system.

:class:`SchedulingEngine` is the board-scoped core extracted from the
original ``SchedulingService``: the decision cache (canonical mix
signature, permuted-duplicate row re-alignment), the pooled concurrent
MCTS drive (every in-flight search's leaf evaluations priced in shared
:meth:`~repro.estimator.model.ThroughputEstimator.predict_throughput_batch`
calls), the online-trace replay loop, and the :class:`ServiceStats`
counters.  Everything here assumes exactly one
:class:`~repro.builder.OmniBoostSystem` (one platform, one estimator).

Two front ends sit on top:

* :class:`~repro.service.SchedulingService` — the single-board
  request/response surface (a thin subclass, behaviour unchanged);
* :class:`~repro.fleet.FleetService` — one engine per board of a
  :class:`~repro.fleet.Cluster`, requests fanned out by a placement
  layer, each board's engine pooling its own share of the batch.

The pooling is safe for the same two reasons as always: searches
externalize their evaluation points
(:meth:`~repro.core.mcts.MonteCarloTreeSearch.search_steps`), and
batched inference is bitwise invariant to batch composition (eval-mode
:func:`~repro.nn.functional.linear_rowwise`), so pooled decisions are
identical to a sequential per-request loop.

The trace-replay loop is split so a fleet can drive it per board:
:meth:`SchedulingEngine.stage_trace_event` folds one
:class:`~repro.workloads.trace.ArrivalEvent` into a board's
:class:`~repro.online.OnlineScheduler` and stages its re-planning job;
:meth:`SchedulingEngine.replay_group` drives a coalesced group of
staged jobs concurrently (pooled evaluations) and commits the group's
final decision as the board's warm-start state.

A request's search and a trace event's re-plan are both jobs of one
protocol: a coroutine yielding ``(workload, mappings)`` evaluation
requests (``_PooledJob``).  One loop, :meth:`SchedulingEngine._drive`,
pools and prices them for both ``schedule_many`` and ``replay_group``.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .baselines.ga import StaticCostModel
from .builder import OmniBoostSystem, SystemBuilder
from .core.base import (
    InvalidRequest,
    ScheduleDecision,
    ScheduleRequest,
    ScheduleResponse,
    Scheduler,
)
from .core.mcts import MCTSResult, relay_steps
from .core.scheduler import OmniBoostScheduler
from .estimator.model import EstimatorFault
from .frontdoor.cache import ShardedDecisionCache, estimator_cache_token
from .evaluation.timeline import TimelineRecord, TimelineReport
from .nn.inference import PlanExecutionError
from .online import OnlineConfig, OnlineDecision, OnlineScheduler
from .resilience import (
    TIERS,
    DegradationLadder,
    FaultInjector,
    ResiliencePolicy,
    TraceJournal,
    trace_fingerprint,
)
from .sim.mapping import Mapping
from .slo import AdmissionController, SLOPolicy, make_estimator_scorer, preemption_victims
from .workloads.mix import Workload, canonical_signature
from .workloads.trace import ArrivalEvent, ArrivalTrace

__all__ = ["SchedulingEngine", "ServiceStats"]

#: Cache key: (scheduler name, sorted model names, budget override).
CacheKey = Tuple[str, Tuple[str, ...], Optional[int]]


@dataclass
class ServiceStats:
    """Engine-lifetime counters (monotonic; see :meth:`SchedulingEngine.stats`)."""

    requests_served: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_bypasses: int = 0
    #: Decision-cache bounds and persistence (PR 10): LRU entries
    #: evicted past the shard capacity, and entries written to the
    #: on-disk snapshot — both filled at snapshot time from the
    #: :class:`~repro.frontdoor.cache.ShardedDecisionCache`, so the
    #: old unbounded-growth / silent-restart-drop failure modes are
    #: observable instead of latent.
    cache_evictions: int = 0
    cache_persisted: int = 0
    #: Pooled evaluator calls and the (workload, mapping) pairs they carried.
    pooled_eval_batches: int = 0
    pooled_evaluations: int = 0
    #: Section V-B budget view (one query per scored rollout) and what
    #: the estimator actually paid after transposition-cache savings.
    estimator_queries: float = 0.0
    estimator_queries_actual: float = 0.0
    #: Per-priority service levels: how many requests (or trace
    #: events) each priority submitted, and their summed host-measured
    #: wait (latency) — the counters that make priority starvation
    #: visible instead of anecdotal.
    requests_by_priority: Dict[int, int] = field(default_factory=dict)
    wait_s_by_priority: Dict[int, float] = field(default_factory=dict)
    #: Online-trace counters (:meth:`SchedulingEngine.run_trace`).
    trace_events: int = 0
    trace_reschedules: int = 0
    trace_warm_reschedules: int = 0
    #: How many times the estimator (re)compiled its inference plan —
    #: filled at snapshot time; stays 0 while no scheduler (and hence
    #: no estimator) has materialized or compiled inference is off.
    estimator_plan_compiles: int = 0
    #: SLO accounting (:mod:`repro.slo`): how many outcomes were held
    #: against a throughput floor, how many attained it, the per-
    #: priority attainment ratios behind the percentile views, and the
    #: per-priority enforcement actions.  All stay empty/zero while no
    #: SLO target or policy is in play.
    slo_requests: int = 0
    slo_attained: int = 0
    slo_ratios_by_priority: Dict[int, List[float]] = field(default_factory=dict)
    rejections_by_priority: Dict[int, int] = field(default_factory=dict)
    preemptions_by_priority: Dict[int, int] = field(default_factory=dict)
    queued_by_priority: Dict[int, int] = field(default_factory=dict)
    #: Resilience accounting (:mod:`repro.resilience`): typed faults
    #: the degradation ladder caught, poisoned decision-cache entries
    #: detected and dropped, decisions made below the normal serving
    #: tier (total and per tier), and the ladder's step-down /
    #: step-up / half-open-probe transition counts (filled at snapshot
    #: time).  All stay zero/empty without a ResiliencePolicy.
    faults_detected: int = 0
    cache_corruptions: int = 0
    degraded_decisions: int = 0
    decisions_by_tier: Dict[str, int] = field(default_factory=dict)
    tier_step_downs: int = 0
    tier_step_ups: int = 0
    tier_probes: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Hits over cache-eligible lookups (0.0 before any lookup)."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def mean_pooled_batch_size(self) -> float:
        if not self.pooled_eval_batches:
            return 0.0
        return self.pooled_evaluations / self.pooled_eval_batches

    def mean_wait_s(self, priority: int) -> float:
        """Mean host-measured wait of ``priority`` requests (0 if none)."""
        count = self.requests_by_priority.get(priority, 0)
        if not count:
            return 0.0
        return self.wait_s_by_priority.get(priority, 0.0) / count

    def record_wait(self, priority: int, wait_s: float) -> None:
        """Fold one served request's wait into the per-priority counters."""
        self.requests_by_priority[priority] = (
            self.requests_by_priority.get(priority, 0) + 1
        )
        self.wait_s_by_priority[priority] = (
            self.wait_s_by_priority.get(priority, 0.0) + wait_s
        )

    # -- SLO accounting (no-ops until a target/policy is in play) ------
    @property
    def slo_attainment_rate(self) -> float:
        """Attained over SLO-accounted outcomes (0.0 before any)."""
        if not self.slo_requests:
            return 0.0
        return self.slo_attained / self.slo_requests

    def record_slo(
        self, priority: int, ratio: Optional[float], attained: bool
    ) -> None:
        """Fold one outcome's contract attainment into the counters."""
        self.slo_requests += 1
        if attained:
            self.slo_attained += 1
        if ratio is not None:
            self.slo_ratios_by_priority.setdefault(priority, []).append(ratio)

    def record_rejection(self, priority: int) -> None:
        self.rejections_by_priority[priority] = (
            self.rejections_by_priority.get(priority, 0) + 1
        )

    def record_preemption(self, priority: int) -> None:
        """Count one eviction, bucketed by the *victim's* priority."""
        self.preemptions_by_priority[priority] = (
            self.preemptions_by_priority.get(priority, 0) + 1
        )

    def record_queued(self, priority: int) -> None:
        self.queued_by_priority[priority] = (
            self.queued_by_priority.get(priority, 0) + 1
        )

    def absorb(self, other: "ServiceStats") -> None:
        """Fold another snapshot's counters into this one.

        The fleet rollup (:attr:`repro.fleet.FleetStats.combined`) sums
        live *and* retired boards through this method, so a board
        drained or killed mid-trace keeps contributing its request and
        wait totals instead of vanishing from the aggregate.
        """
        self.requests_served += other.requests_served
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.cache_bypasses += other.cache_bypasses
        self.cache_evictions += other.cache_evictions
        self.cache_persisted += other.cache_persisted
        self.pooled_eval_batches += other.pooled_eval_batches
        self.pooled_evaluations += other.pooled_evaluations
        self.estimator_queries += other.estimator_queries
        self.estimator_queries_actual += other.estimator_queries_actual
        self.trace_events += other.trace_events
        self.trace_reschedules += other.trace_reschedules
        self.trace_warm_reschedules += other.trace_warm_reschedules
        self.estimator_plan_compiles += other.estimator_plan_compiles
        self.slo_requests += other.slo_requests
        self.slo_attained += other.slo_attained
        self.faults_detected += other.faults_detected
        self.cache_corruptions += other.cache_corruptions
        self.degraded_decisions += other.degraded_decisions
        self.tier_step_downs += other.tier_step_downs
        self.tier_step_ups += other.tier_step_ups
        self.tier_probes += other.tier_probes
        for tier, count in other.decisions_by_tier.items():
            self.decisions_by_tier[tier] = (
                self.decisions_by_tier.get(tier, 0) + count
            )
        for priority, count in other.requests_by_priority.items():
            self.requests_by_priority[priority] = (
                self.requests_by_priority.get(priority, 0) + count
            )
        for priority, wait_s in other.wait_s_by_priority.items():
            self.wait_s_by_priority[priority] = (
                self.wait_s_by_priority.get(priority, 0.0) + wait_s
            )
        for priority, ratios in other.slo_ratios_by_priority.items():
            self.slo_ratios_by_priority.setdefault(priority, []).extend(ratios)
        for counters, source in (
            (self.rejections_by_priority, other.rejections_by_priority),
            (self.preemptions_by_priority, other.preemptions_by_priority),
            (self.queued_by_priority, other.queued_by_priority),
        ):
            for priority, count in source.items():
                counters[priority] = counters.get(priority, 0) + count

    def slo_percentiles(
        self,
        percentiles: Sequence[int] = (50, 95, 99),
        priority: Optional[int] = None,
    ) -> Dict[int, float]:
        """pP attainment over the recorded ratios (exact order stats).

        Same definition as
        :meth:`~repro.evaluation.TimelineReport.slo_attainment_percentiles`:
        the worst ratio among the best P% of outcomes, so ``p95 >= 1.0``
        means 95% of accounted outcomes met their floor.  Empty when
        nothing was recorded (or nothing matches ``priority``).
        """
        ratios: List[float] = []
        for bucket, values in self.slo_ratios_by_priority.items():
            if priority is None or bucket == priority:
                ratios.extend(values)
        if not ratios:
            return {}
        ratios.sort(reverse=True)
        result: Dict[int, float] = {}
        for percentile in percentiles:
            if not 0 < percentile <= 100:
                raise ValueError(
                    f"percentiles must be in (0, 100], got {percentile}"
                )
            rank = min(
                len(ratios), max(1, math.ceil(percentile / 100 * len(ratios)))
            )
            result[percentile] = ratios[rank - 1]
        return result


def _now() -> float:
    return time.perf_counter()  # repro: lint-ignore[RPR002] -- host measurement of per-request and trace-step latency


@dataclass
class _PooledJob:
    """One coroutine in a pooled drive (:meth:`SchedulingEngine._drive`).

    :meth:`open` returns a coroutine that yields ``(workload, mappings)``
    evaluation requests, takes the matching rewards via ``send()`` and
    returns its result, which :meth:`finish` stores; ``objective`` is
    what the rewards are scored with.  :meth:`greedy` answers at the
    ladder's floor without a coroutine, and :meth:`reset` rewinds a
    faulted attempt.  The two job kinds differ only inside these
    methods.
    """

    started: float = 0.0
    gen: object = None
    #: The open evaluation request: (workload, mappings) or None.
    pending: Optional[Tuple[Workload, List[Mapping]]] = None
    objective: object = None
    elapsed: float = 0.0


@dataclass(kw_only=True)
class _SearchJob(_PooledJob):
    """One live MCTS search inside a pooled ``schedule_many`` round."""

    request: ScheduleRequest
    index: int
    key: Optional[CacheKey]
    result: Optional[MCTSResult] = None
    #: Set instead of ``result`` when the greedy resilience tier
    #: answered without a search.
    decision: Optional[ScheduleDecision] = None
    #: Drive priority: the leader's, raised to any follower's — a
    #: high-priority duplicate of a low-priority in-flight mix must
    #: not wait at low priority (classic priority inversion).
    priority: int = 0
    #: Requests with the same signature arriving after this job was
    #: opened; they reuse its decision as in-flight cache hits.
    followers: List[Tuple[int, ScheduleRequest, float]] = field(default_factory=list)

    decides = True

    def open(self, scheduler: OmniBoostScheduler):
        request = self.request
        # Same fallback as make_search: a request override wins, else
        # the scheduler's configured objective applies.
        self.objective = (
            request.objective
            if request.objective is not None
            else scheduler.objective
        )
        search = scheduler.make_search(
            request.workload,
            config=scheduler.request_config(request),
            objective=request.objective,
        )
        return relay_steps(request.workload, search.search_steps())

    def finish(self, result: MCTSResult) -> None:
        self.result = result

    def greedy(self, decide) -> None:
        self.decision = decide(self.request.workload)
        self.elapsed = _now() - self.started

    def reset(self) -> None:
        self.gen = self.pending = self.result = self.decision = None


@dataclass(kw_only=True)
class _TraceJob(_PooledJob):
    """One trace event's re-planning inside a coalesced group."""

    event: ArrivalEvent
    workload: Optional[Workload]
    online: OnlineScheduler
    outcome: Optional[OnlineDecision] = None

    @property
    def decides(self) -> bool:
        return self.workload is not None

    def open(self, scheduler: OmniBoostScheduler):
        self.started = _now()
        self.objective = scheduler.objective
        if self.workload is None:
            return None  # board emptied: idle event, nothing to plan
        return self.online.plan_steps(self.workload)

    def finish(self, outcome: OnlineDecision) -> None:
        self.outcome = outcome

    def greedy(self, decide) -> None:
        self.started = _now()
        if self.workload is None:
            return  # board emptied: idle event, nothing to place
        self.outcome = OnlineDecision(
            decision=decide(self.workload), workload=self.workload, mode="greedy"
        )
        self.elapsed = _now() - self.started

    def reset(self) -> None:
        self.gen = self.pending = self.outcome = None


class SchedulingEngine:
    """Cache + pooled concurrent search over one board's system.

    Parameters
    ----------
    source:
        A :class:`~repro.builder.SystemBuilder` (nothing is profiled or
        trained until the first request arrives) or an already-built
        :class:`~repro.builder.OmniBoostSystem`.
    scheduler:
        Registry name of the scheduler answering requests; defaults to
        ``"omniboost"``.  Only OmniBoost searches pool across requests
        (the baselines have no estimator loop to pool); other
        schedulers still get the cache/dedupe layer.
    cache_decisions:
        Disable to force every request through the scheduler.
    board:
        Optional board label; a fleet names each engine after its
        board so stats and timeline records carry attribution.  The
        single-board service leaves it empty.
    resilience:
        Optional :class:`~repro.resilience.ResiliencePolicy` arming the
        degradation ladder (and, when the policy carries a fault plan,
        the deterministic fault injector).  ``None`` — the default —
        leaves every code path byte-identical to an engine built before
        the resilience layer existed.
    cache_shards / cache_capacity:
        Geometry of the bounded decision cache
        (:class:`~repro.frontdoor.cache.ShardedDecisionCache`):
        ``cache_shards`` LRU shards of ``cache_capacity`` entries each.
    cache_dir:
        Directory for the persisted decision-cache snapshot; ``None``
        keeps the cache in-memory only.  Snapshots are keyed by the
        estimator's ``Module.version`` plus a weight digest, so a
        retrained/re-loaded estimator never serves stale decisions.
    """

    def __init__(
        self,
        source: Union[SystemBuilder, OmniBoostSystem],
        scheduler: str = "omniboost",
        cache_decisions: bool = True,
        board: str = "",
        resilience: Optional[ResiliencePolicy] = None,
        cache_shards: int = 4,
        cache_capacity: int = 128,
        cache_dir: Optional[str] = None,
    ) -> None:
        if isinstance(source, SystemBuilder):
            self._builder: Optional[SystemBuilder] = source
            self._system: Optional[OmniBoostSystem] = None
        elif isinstance(source, OmniBoostSystem):
            self._builder = None
            self._system = source
        else:
            raise TypeError(
                "source must be a SystemBuilder or OmniBoostSystem, "
                f"got {type(source).__name__}"
            )
        self.scheduler_name = scheduler.strip().lower()
        self.cache_decisions = cache_decisions
        self.board = board
        self._scheduler: Optional[Scheduler] = None
        self._cache = ShardedDecisionCache(
            num_shards=cache_shards,
            shard_capacity=cache_capacity,
            cache_dir=cache_dir,
        )
        self._cache_token: Optional[Tuple[int, str]] = None
        self._stats = ServiceStats()
        self.resilience = resilience
        self._ladder = (
            DegradationLadder(resilience) if resilience is not None else None
        )
        self._injector = (
            FaultInjector(resilience.faults) if resilience is not None else None
        )
        #: The ladder tier the in-flight pooled drive runs at ("" when
        #: healthy/no policy) — consulted by :meth:`_evaluate_pairs`.
        self._active_tier = ""
        self._static_cost: Optional[StaticCostModel] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def submit(
        self,
        request: Union[ScheduleRequest, Workload],
        **knobs,
    ) -> ScheduleResponse:
        """Answer one request (``knobs`` forward to :class:`ScheduleRequest`)."""
        return self.schedule_many([self._normalize(request, **knobs)])[0]

    def schedule_many(
        self, requests: Sequence[Union[ScheduleRequest, Workload]]
    ) -> List[ScheduleResponse]:
        """Answer a batch of requests; responses align with the input order.

        Repeated mix signatures are served once (later arrivals are
        cache hits, in-flight or stored); the distinct searches run
        concurrently with their leaf evaluations pooled.  Cache and
        search assignment follow *arrival* order — a duplicate's
        search always runs over the first-arriving workload, so
        results match the sequential loop exactly.  ``priority`` only
        reorders which searches are driven first (evaluation is
        bitwise batch-invariant, so that never changes a decision).
        """
        normalized = [self._normalize(request) for request in requests]
        if not normalized:
            return []
        responses: List[Optional[ScheduleResponse]] = [None] * len(normalized)
        scheduler = self._scheduler_instance()
        self._validate(scheduler, normalized)
        pooling = isinstance(scheduler, OmniBoostScheduler)

        jobs: List[_SearchJob] = []
        open_jobs: Dict[CacheKey, _SearchJob] = {}
        for i in range(len(normalized)):
            request = normalized[i]
            started = _now()
            key = self._cache_key(request)
            if key is None:
                self._stats.cache_bypasses += 1
            else:
                cached = self._cache.get(key)
                if (
                    self._injector is not None
                    and self._injector.on_cache_lookup()
                    and cached is not None
                ):
                    # Injected corruption drill: the poisoned entry is
                    # detected, dropped, counted — and the request
                    # falls through to a fresh search.  ``discard``
                    # also rewrites the persisted snapshot, so a
                    # restart cannot resurrect the poisoned entry.
                    self._stats.cache_corruptions += 1
                    self._cache.discard(key)
                    cached = None
                if cached is not None:
                    self._stats.cache_hits += 1
                    responses[i] = self._hit_response(request, cached, started)
                    continue
                in_flight = open_jobs.get(key)
                if in_flight is not None:
                    self._stats.cache_hits += 1
                    in_flight.followers.append((i, request, started))
                    # Priority inheritance: an urgent duplicate lifts
                    # the in-flight search it now depends on.
                    in_flight.priority = max(in_flight.priority, request.priority)
                    continue
                self._stats.cache_misses += 1
            if pooling:
                job = _SearchJob(
                    request=request,
                    index=i,
                    key=key,
                    started=started,
                    priority=request.priority,
                )
                jobs.append(job)
                if key is not None:
                    open_jobs[key] = job
            else:
                responses[i] = self._respond_direct(scheduler, request)

        if jobs:
            jobs.sort(key=lambda job: (-job.priority, job.index))
            self._resilient_drive(scheduler, jobs)
            for job in jobs:
                if job.decision is not None:
                    decision = job.decision
                else:
                    decision = scheduler.decision_from_result(
                        job.result, int(job.result.cache_misses)
                    )
                decision = replace(decision, wall_time_s=job.elapsed)
                self._account(decision)
                names = tuple(job.request.workload.model_names)
                if job.key is not None:
                    self._cache.put(job.key, names, decision)
                responses[job.index] = ScheduleResponse(
                    decision=decision,
                    scheduler_name=scheduler.name,
                    cache_status="miss" if job.key is not None else "bypass",
                    measured_wall_time_s=job.elapsed,
                    request_id=job.request.request_id,
                )
                for index, follower, follower_started in job.followers:
                    responses[index] = self._hit_response(
                        follower, (names, decision), follower_started
                    )

        self._stats.requests_served += len(normalized)
        for request, response in zip(normalized, responses):
            self._stats.record_wait(
                request.priority, response.measured_wall_time_s
            )
            if request.slo is not None:
                self._stats.record_slo(
                    request.priority,
                    request.slo.ratio(response.expected_score),
                    request.slo.attained(
                        response.expected_score,
                        response.measured_wall_time_s,
                    ),
                )
        return responses  # type: ignore[return-value]

    def stats(self) -> ServiceStats:
        """A snapshot of the engine counters."""
        plan_compiles = 0
        scheduler = self._scheduler
        estimator = getattr(scheduler, "estimator", None)
        if estimator is not None:
            plan_compiles = getattr(estimator, "plan_compiles", 0)
        return replace(
            self._stats,
            requests_by_priority=dict(self._stats.requests_by_priority),
            wait_s_by_priority=dict(self._stats.wait_s_by_priority),
            slo_ratios_by_priority={
                priority: list(ratios)
                for priority, ratios in (
                    self._stats.slo_ratios_by_priority.items()
                )
            },
            rejections_by_priority=dict(self._stats.rejections_by_priority),
            preemptions_by_priority=dict(self._stats.preemptions_by_priority),
            queued_by_priority=dict(self._stats.queued_by_priority),
            estimator_plan_compiles=plan_compiles,
            cache_evictions=self._cache.evictions,
            cache_persisted=self._cache.persisted,
            decisions_by_tier=dict(self._stats.decisions_by_tier),
            tier_step_downs=(
                self._ladder.step_downs if self._ladder is not None else 0
            ),
            tier_step_ups=(
                self._ladder.step_ups if self._ladder is not None else 0
            ),
            tier_probes=(
                self._ladder.probes if self._ladder is not None else 0
            ),
        )

    def run_trace(
        self,
        trace: ArrivalTrace,
        online: Optional[OnlineConfig] = None,
        record_mappings: bool = False,
        slo: Optional[SLOPolicy] = None,
        checkpoint: Optional[str] = None,
    ) -> TimelineReport:
        """Replay an arrival/departure trace, re-planning each change.

        Events are processed in time order; events sharing a timestamp
        coalesce into one *group*.  Every event in a group gets its own
        re-search (over the mix as of that event), and the group's
        searches are driven concurrently with their leaf evaluations —
        and the warm path's arrival-completion candidates — pooled
        into shared ``predict_throughput_batch`` calls, exactly like a
        ``schedule_many`` batch.  Within a group all searches
        warm-start from the rows retained *before* the group (they are
        mutually independent, which is what makes the pooling legal);
        the group's final decision is then committed as the retained
        state for the next event.

        ``slo`` attaches an :class:`~repro.slo.SLOPolicy`.  A policy
        with enforcement switched off is *observe-only*: the replay is
        byte-identical to ``slo=None`` and arrival records are merely
        annotated with attainment against the policy target.  With
        ``admission``/``preemption`` on, arrivals the controller turns
        away are queued (retried when a departure frees capacity) or
        rejected, and a non-admittable arrival may first evict
        strictly-lower-priority residents — every enforcement action
        lands in the record's ``action`` field and the engine's
        per-priority counters.

        Returns the per-event :class:`~repro.evaluation.TimelineReport`
        (set ``record_mappings`` to embed each decision's device rows).
        Re-planning costs also land in the engine counters:
        per-priority waits, pooled batches, estimator queries.

        ``checkpoint`` names a crash-consistent journal file
        (:class:`~repro.resilience.TraceJournal`): every committed
        event group is fsynced to it, and :meth:`resume_trace` can
        reconstruct and continue the replay after a crash,
        byte-identically.  Journaling is incompatible with an
        *enforcing* SLO policy (the enforcement queue is not
        checkpointed); observe-only policies are fine.
        """
        online_scheduler = self.make_online_scheduler(online)
        if slo is not None and slo.enforced:
            if checkpoint is not None:
                raise ValueError(
                    "checkpointing does not cover the SLO enforcement "
                    "queue; run with an observe-only policy or none"
                )
            records = self._replay_enforced(
                trace, online_scheduler, slo, record_mappings
            )
            return self._trace_report(trace, records)
        journal = None
        if checkpoint is not None:
            journal = TraceJournal.create(
                checkpoint,
                self._journal_header(trace, online, record_mappings),
            )
        return self._replay_journaled(
            trace, online_scheduler, record_mappings, slo, journal,
            skip_groups=0, prefix=(),
        )

    def resume_trace(
        self,
        trace: ArrivalTrace,
        checkpoint: str,
        online: Optional[OnlineConfig] = None,
        record_mappings: bool = False,
        slo: Optional[SLOPolicy] = None,
    ) -> TimelineReport:
        """Continue a journaled :meth:`run_trace` after a crash.

        The journal's completed groups are not re-planned: their
        records are re-emitted verbatim and the serving state (online
        tenancy + warm rows, ladder and injector counters) is restored
        from the last committed group, so the remainder of the replay
        — which keeps journaling into the same file — produces a
        :class:`~repro.evaluation.TimelineReport` byte-identical to
        the uninterrupted run.  Arguments must match the original call
        (the journal header pins them); a mismatch raises
        :class:`ValueError`.  Resuming an already-complete journal
        just re-emits the report.
        """
        if slo is not None and slo.enforced:
            raise ValueError(
                "checkpointing does not cover the SLO enforcement "
                "queue; run with an observe-only policy or none"
            )
        online_scheduler = self.make_online_scheduler(online)
        journal, header, entries = TraceJournal.resume(checkpoint)
        expected = self._journal_header(trace, online, record_mappings)
        mismatched = [
            key
            for key, value in expected.items()
            if header.get(key) != value
        ]
        if mismatched:
            raise ValueError(
                f"journal {checkpoint} was written for a different "
                f"replay (mismatched: {', '.join(sorted(mismatched))})"
            )
        records: List[TimelineRecord] = []
        for entry in entries:
            records.extend(
                TimelineRecord.from_dict(record)
                for record in entry["records"]
            )
        if entries:
            self._restore_journal_state(online_scheduler, entries[-1]["state"])
        return self._replay_journaled(
            trace, online_scheduler, record_mappings, slo, journal,
            skip_groups=len(entries), prefix=tuple(records),
        )

    # ------------------------------------------------------------------
    # Crash-consistent journaling (checkpoint= / resume_trace)
    # ------------------------------------------------------------------
    def _replay_journaled(
        self,
        trace: ArrivalTrace,
        online_scheduler: OnlineScheduler,
        record_mappings: bool,
        slo: Optional[SLOPolicy],
        journal: Optional[TraceJournal],
        skip_groups: int,
        prefix: Tuple[TimelineRecord, ...],
    ) -> TimelineReport:
        """The (non-enforcing) replay loop, optionally journaled.

        With ``journal=None`` and ``skip_groups=0`` this is exactly the
        historical replay: per-group staging, pooled driving, and
        observe-only SLO annotation applied per group (a per-record
        transform, so annotating each group as it completes is
        byte-identical to annotating the whole list at the end — and
        it has to happen before the group is journaled).
        """
        records: List[TimelineRecord] = list(prefix)
        index = len(records)
        target = slo.target if slo is not None else None
        for position, group in enumerate(trace.grouped()):
            if position < skip_groups:
                continue
            jobs = [
                self.stage_trace_event(online_scheduler, event)
                for event in group
            ]
            produced = self.replay_group(
                online_scheduler, jobs, index, record_mappings
            )
            if target is not None:
                produced = [
                    self._annotate_slo(record, target)
                    for record in produced
                ]
            records.extend(produced)
            index += len(jobs)
            if journal is not None:
                journal.append_group(
                    position,
                    len(group),
                    [record.to_dict() for record in produced],
                    self._journal_state(online_scheduler),
                )
        if journal is not None:
            journal.close()
        return self._trace_report(trace, records)

    def _trace_report(
        self, trace: ArrivalTrace, records: List[TimelineRecord]
    ) -> TimelineReport:
        return TimelineReport(
            records=tuple(records),
            trace_name=trace.name,
            scheduler_name=self._scheduler_instance().name,
        )

    def _journal_header(
        self,
        trace: ArrivalTrace,
        online: Optional[OnlineConfig],
        record_mappings: bool,
    ) -> Dict:
        """What a resume must match for byte-identity to be possible."""
        return {
            "surface": "engine",
            "board": self.board,
            "scheduler": self.scheduler_name,
            "record_mappings": bool(record_mappings),
            "online": asdict(online or OnlineConfig()),
            "faults": (
                self.resilience.faults.to_dict()
                if self.resilience is not None
                else None
            ),
            "trace": trace_fingerprint(trace),
        }

    def _journal_state(self, online_scheduler: OnlineScheduler) -> Dict:
        """Serving state as of the last committed group."""
        state = {"online": online_scheduler.export_state()}
        resilience = self.resilience_state()
        if resilience is not None:
            state["resilience"] = resilience
        return state

    def _restore_journal_state(
        self, online_scheduler: OnlineScheduler, state: Dict
    ) -> None:
        online_scheduler.restore_state(state["online"])
        if "resilience" in state:
            self.restore_resilience_state(state["resilience"])

    def resilience_state(self) -> Optional[Dict]:
        """Ladder + injector counters for checkpointing (None if unarmed)."""
        if self._ladder is None:
            return None
        return {
            "ladder": self._ladder.export_state(),
            "injector": self._injector.export_state(),
        }

    def restore_resilience_state(self, state: Optional[Dict]) -> None:
        """Restore a :meth:`resilience_state` snapshot."""
        if state is None or self._ladder is None:
            return
        self._ladder.restore_state(state["ladder"])
        self._injector.restore_state(state["injector"])

    def clear_cache(self, persistent: bool = False) -> int:
        """Drop all cached decisions, returning how many were held.

        With ``persistent`` the on-disk snapshot is deleted too
        (``repro cache clear``); without it, a bound snapshot is
        rewritten empty so memory and disk stay in agreement.
        """
        return self._cache.clear(persistent=persistent)

    @property
    def decision_cache(self) -> ShardedDecisionCache:
        """The bounded decision cache (inspection / tests)."""
        return self._cache

    @property
    def scheduler(self) -> Scheduler:
        """The backing scheduler (materializing it if still lazy)."""
        return self._scheduler_instance()

    # ------------------------------------------------------------------
    # Trace replay building blocks (fleet drives these per board)
    # ------------------------------------------------------------------
    def make_online_scheduler(
        self, online: Optional[OnlineConfig] = None
    ) -> OnlineScheduler:
        """A fresh :class:`~repro.online.OnlineScheduler` over this board.

        Raises :class:`TypeError` for non-OmniBoost schedulers — warm
        starts drive the estimator search, so there is nothing to
        re-plan incrementally for the baselines.
        """
        scheduler = self._scheduler_instance()
        if not isinstance(scheduler, OmniBoostScheduler):
            raise TypeError(
                "run_trace requires an OmniBoost scheduler (warm starts "
                f"drive its estimator search); got {scheduler.name!r}"
            )
        return OnlineScheduler(scheduler, online)

    def stage_trace_event(
        self, online_scheduler: OnlineScheduler, event: ArrivalEvent
    ) -> _TraceJob:
        """Fold one event into the tenancy and stage its re-planning job."""
        online_scheduler.apply(event)
        return _TraceJob(
            event=event,
            workload=online_scheduler.current_workload(),
            online=online_scheduler,
        )

    def replay_group(
        self,
        online_scheduler: OnlineScheduler,
        jobs: List[_TraceJob],
        start_index: int,
        record_mappings: bool = False,
    ) -> List[TimelineRecord]:
        """Drive one coalesced group of staged jobs; commit the last outcome.

        The group's re-searches run concurrently with pooled
        evaluations; stats and per-priority waits are accounted here.
        Returns the group's timeline records (indices starting at
        ``start_index``).
        """
        tier = self._resilient_drive(self._scheduler_instance(), jobs)
        committed = None
        records: List[TimelineRecord] = []
        index = start_index
        for job in jobs:
            if job.outcome is not None:
                committed = job.outcome
            records.append(
                self._trace_record(index, job, record_mappings, tier)
            )
            self._stats.trace_events += 1
            if job.outcome is not None:
                self._stats.trace_reschedules += 1
                if job.outcome.mode == "warm":
                    self._stats.trace_warm_reschedules += 1
                self._stats.record_wait(job.event.priority, job.elapsed)
                self._account(job.outcome.decision)
            index += 1
        if committed is not None:
            online_scheduler.commit(committed)
        return records

    # ------------------------------------------------------------------
    # SLO enforcement (run_trace with an enforcing SLOPolicy)
    # ------------------------------------------------------------------
    def _replay_enforced(
        self,
        trace: ArrivalTrace,
        online_scheduler: OnlineScheduler,
        slo: SLOPolicy,
        record_mappings: bool,
    ) -> List[TimelineRecord]:
        """The admission/preemption replay loop over one board.

        Per group: every arrival is judged against live tenancy before
        it is staged.  A non-admittable arrival first (``preemption``)
        evicts strictly-lower-priority residents — each eviction is a
        staged departure that re-plans through the warm path — and
        only then is queued or rejected (``admission``).  After each
        group, queued arrivals are retried in FIFO order against the
        freed capacity.  Departures of tenants that were never
        admitted become no-op records, so the report still carries one
        record per trace event.
        """
        scheduler = self._scheduler_instance()
        target = slo.target
        scorer = None
        if target is not None and target.min_throughput is not None:
            scorer = make_estimator_scorer(scheduler)
        controller = AdmissionController(slo, scorer=scorer)
        capacity = self._max_residency()
        queue: List[ArrivalEvent] = []
        queued_ids: set = set()
        ghosts: set = set()  # rejected/preempted: later departures no-op
        records: List[TimelineRecord] = []
        index = 0

        def evaluate(event: ArrivalEvent) -> str:
            resident = [
                model for model, _ in online_scheduler.active.values()
            ]
            if event.model in resident:
                # A queued arrival retried while its model is still
                # resident (the trace invariant covers offered load,
                # not the queue) can only wait for the departure.
                return "queue"
            return controller.evaluate(
                (event.model,), load=len(resident), capacity=capacity
            ).verdict

        for group in trace.grouped():
            #: ("job", _TraceJob, action) | ("rec", ready TimelineRecord)
            slots: List[Tuple] = []
            jobs: List[_TraceJob] = []

            def stage(event: ArrivalEvent, action: str) -> None:
                job = self.stage_trace_event(online_scheduler, event)
                jobs.append(job)
                slots.append(("job", job, action))

            for event in group:
                if event.kind == "departure":
                    if event.tenant_id in queued_ids:
                        queued_ids.discard(event.tenant_id)
                        queue[:] = [
                            e for e in queue
                            if e.tenant_id != event.tenant_id
                        ]
                        ghosts.add(event.tenant_id)
                        slots.append(
                            ("rec", self._noop_record(
                                event, online_scheduler, "expired"
                            ))
                        )
                    elif event.tenant_id in ghosts:
                        slots.append(
                            ("rec", self._noop_record(
                                event, online_scheduler, "dropped"
                            ))
                        )
                    else:
                        stage(event, "")
                    continue
                verdict = evaluate(event)
                # Only a "queue" verdict is load-caused, so only it can
                # be flipped by evicting residents; a "reject" (floor
                # unattainable even unloaded) never preempts.
                if verdict == "queue" and slo.preemption:
                    while verdict == "queue":
                        victims = preemption_victims(
                            online_scheduler.active, event.priority
                        )
                        if not victims:
                            break
                        tenant_id, model, priority = victims[0]
                        eviction = ArrivalEvent(
                            event.time_s, "departure", tenant_id,
                            model, priority,
                        )
                        stage(eviction, "preempted")
                        ghosts.add(tenant_id)
                        self._stats.record_preemption(priority)
                        verdict = evaluate(event)
                if verdict == "admit" or not slo.admission:
                    # Preemption without admission never drops work:
                    # eviction is the whole enforcement.
                    stage(event, "")
                elif verdict == "queue" and len(queue) < slo.queue_capacity:
                    queue.append(event)
                    queued_ids.add(event.tenant_id)
                    self._stats.record_queued(event.priority)
                    slots.append(
                        ("rec", self._noop_record(
                            event, online_scheduler, "queued"
                        ))
                    )
                else:
                    ghosts.add(event.tenant_id)
                    self._stats.record_rejection(event.priority)
                    slots.append(
                        ("rec", self._noop_record(
                            event, online_scheduler, "rejected"
                        ))
                    )

            produced = self.replay_group(
                online_scheduler, jobs, 0, record_mappings
            )
            by_job = {
                id(job): record for job, record in zip(jobs, produced)
            }
            for slot in slots:
                if slot[0] == "job":
                    record = replace(
                        by_job[id(slot[1])], index=index, action=slot[2]
                    )
                    if target is not None:
                        record = self._annotate_slo(record, target)
                else:
                    record = replace(slot[1], index=index)
                records.append(record)
                index += 1

            # FIFO retry of queued arrivals against the freed capacity.
            for event in list(queue):
                if evaluate(event) != "admit":
                    continue
                queue.remove(event)
                queued_ids.discard(event.tenant_id)
                retry = ArrivalEvent(
                    group[-1].time_s, "arrival", event.tenant_id,
                    event.model, event.priority,
                )
                job = self.stage_trace_event(online_scheduler, retry)
                produced = self.replay_group(
                    online_scheduler, [job], 0, record_mappings
                )
                record = replace(
                    produced[0], index=index, action="dequeued"
                )
                if target is not None:
                    record = self._annotate_slo(record, target)
                records.append(record)
                index += 1
        return records

    def _annotate_slo(
        self, record: TimelineRecord, target
    ) -> TimelineRecord:
        """Annotate one *arrival* outcome against a throughput floor.

        Departure/idle records pass through untouched; the attainment
        of an admitted arrival (the contract moment) is recorded into
        the engine counters as well.
        """
        if (
            record.kind != "arrival"
            or record.expected_score is None
            or target is None
            or target.min_throughput is None
        ):
            return record
        ratio = target.ratio(record.expected_score)
        attained = target.attained(
            record.expected_score, record.reschedule_time_s
        )
        self._stats.record_slo(record.priority, ratio, attained)
        return replace(record, slo_ratio=ratio, slo_attained=attained)

    def _noop_record(
        self,
        event: ArrivalEvent,
        online_scheduler: OnlineScheduler,
        action: str,
    ) -> TimelineRecord:
        """A no-plan record for an event enforcement kept off the board."""
        return TimelineRecord(
            index=0,
            time_s=event.time_s,
            kind=event.kind,
            tenant_id=event.tenant_id,
            model=event.model,
            priority=event.priority,
            active_models=tuple(
                model for model, _ in online_scheduler.active.values()
            ),
            mode="idle",
            board=self.board,
            action=action,
        )

    def _max_residency(self) -> Optional[int]:
        """The platform's residency cap (None when undiscoverable)."""
        source = self._builder if self._builder is not None else self._system
        platform = getattr(source, "platform", None)
        memory = getattr(platform, "memory", None)
        return getattr(memory, "max_residency", None)

    # ------------------------------------------------------------------
    # Degradation ladder (resilient pooled driving)
    # ------------------------------------------------------------------
    def _resilient_drive(self, scheduler: Scheduler, jobs: List[_PooledJob]) -> str:
        """Run one pooled drive under the degradation ladder.

        Without a :class:`~repro.resilience.ResiliencePolicy` this is a
        straight call into :meth:`_drive` — byte-identical behaviour.
        With one, a drive that dies with a typed fault
        (:class:`~repro.estimator.model.EstimatorFault` /
        :class:`~repro.nn.inference.PlanExecutionError`) is counted,
        stepped down, and *retried from scratch* at the new tier — the
        coroutines are recreated deterministically, so the retry is a
        pure function of the tier.  The greedy floor cannot fault, so
        every request is always answered.  Returns the tier that
        produced the decisions, ``""`` for the healthy top tier.
        """
        if self._ladder is None:
            self._drive(scheduler, jobs)
            return ""
        estimator = getattr(scheduler, "estimator", None)
        decisions = sum(1 for job in jobs if job.decides)
        while True:
            tier = self._ladder.begin_attempt()
            try:
                if tier == "greedy":
                    for job in jobs:
                        job.greedy(self._greedy_decision)
                else:
                    saved = None
                    if estimator is not None and tier == "interpreter":
                        saved = estimator.use_compiled
                        estimator.use_compiled = False
                    self._active_tier = tier
                    try:
                        self._drive(scheduler, jobs)
                    finally:
                        self._active_tier = ""
                        if saved is not None:
                            estimator.use_compiled = saved
            except (EstimatorFault, PlanExecutionError):
                self._stats.faults_detected += 1
                self._ladder.record_fault()
                for job in jobs:
                    job.reset()
                continue
            self._ladder.complete_attempt(decisions)
            if tier == TIERS[0]:
                return ""
            if decisions:
                self._stats.degraded_decisions += decisions
                self._stats.decisions_by_tier[tier] = (
                    self._stats.decisions_by_tier.get(tier, 0) + decisions
                )
            return tier

    def _evaluate_pairs(self, estimator, pairs) -> np.ndarray:
        """Price one pooled micro-batch at the active ladder tier.

        The static tier fabricates constant per-device rows from the
        closed-form :class:`~repro.baselines.ga.StaticCostModel` — zero
        estimator forwards — shaped exactly like
        ``predict_throughput_batch`` output so the search machinery is
        none the wiser (``reward_from_predictions`` reduces each row to
        its mean, recovering the static estimate).
        """
        if self._active_tier == "static":
            model = self._static_cost_model()
            num_devices = model.platform.num_devices
            return np.array(
                [
                    [model.estimate(workload, mapping)] * num_devices
                    for workload, mapping in pairs
                ]
            )
        return estimator.predict_throughput_batch(pairs)

    def _static_cost_model(self) -> StaticCostModel:
        if self._static_cost is None:
            if self._builder is not None:
                self._static_cost = self._builder.ga_cost_model
            else:
                self._static_cost = StaticCostModel(
                    self._system.platform,
                    self._system.latency_table,
                    offered_rate=self._system.simulator.config.offered_rate,
                )
        return self._static_cost

    def _greedy_decision(self, workload: Workload) -> ScheduleDecision:
        """The ladder floor: deterministic no-search whole-DNN placement.

        Each DNN lands, in workload order, on the device with the
        least accumulated profiled latency (its own estimated run time
        included; ties break on the lower device id).  Scored by the
        static cost model — zero estimator forwards, zero search
        iterations, always an answer.
        """
        cost_model = self._static_cost_model()
        table = cost_model.latency_table
        num_devices = cost_model.platform.num_devices
        busy = [0.0] * num_devices
        rows = []
        for model in workload.models:
            per_device = table.tables[model.name].sum(axis=1)
            device = min(
                range(num_devices),
                key=lambda d: (busy[d] + float(per_device[d]), d),
            )
            rows.append((device,) * model.num_layers)
            busy[device] += float(per_device[device])
        mapping = Mapping(rows)
        score = float(cost_model.estimate(workload, mapping))
        return ScheduleDecision(
            mapping=mapping,
            expected_score=score,
            wall_time_s=0.0,
            cost={
                "estimator_queries": 0.0,
                "estimator_queries_actual": 0.0,
            },
        )

    # ------------------------------------------------------------------
    # Pooled concurrent search
    # ------------------------------------------------------------------
    def _drive(self, scheduler: OmniBoostScheduler, jobs: List[_PooledJob]) -> None:
        """Advance every job's coroutine, pooling their evaluations.

        Each round collects the open ``(workload, mappings)`` requests
        of all jobs still waiting on rewards, prices them in ONE
        :meth:`_evaluate_pairs` call, and feeds each job its slice.
        Per-job cadence, reward values and trajectories are identical
        to running the jobs one at a time (see the module docstring
        for why).
        """
        estimator = scheduler.estimator
        for job in jobs:
            job.gen = job.open(scheduler)
            if job.gen is not None:
                self._advance(job, None)
        while True:
            waiting = [job for job in jobs if job.pending is not None]
            if not waiting:
                break
            pairs = [
                (workload, mapping)
                for workload, mappings in (job.pending for job in waiting)
                for mapping in mappings
            ]
            rows = self._evaluate_pairs(estimator, pairs)
            self._stats.pooled_eval_batches += 1
            self._stats.pooled_evaluations += len(pairs)
            offset = 0
            for job in waiting:
                workload, mappings = job.pending
                count = len(mappings)
                rewards = scheduler.reward_from_predictions(
                    workload,
                    mappings,
                    rows[offset : offset + count],
                    job.objective,
                )
                offset += count
                self._advance(job, rewards)

    @staticmethod
    def _advance(job: _PooledJob, rewards: Optional[List[float]]) -> None:
        """Step one job's coroutine to its next yield (or completion)."""
        try:
            job.pending = job.gen.send(rewards)
        except StopIteration as stop:
            job.pending = None
            job.finish(stop.value)
            job.elapsed = _now() - job.started

    def _trace_record(
        self,
        index: int,
        job: _TraceJob,
        record_mappings: bool,
        tier: str = "",
    ) -> TimelineRecord:
        """Render one trace job as a timeline record."""
        event = job.event
        record = TimelineRecord(
            index=index,
            time_s=event.time_s,
            kind=event.kind,
            tenant_id=event.tenant_id,
            model=event.model,
            priority=event.priority,
            active_models=(
                tuple(job.workload.model_names) if job.workload is not None else ()
            ),
            mode="idle",
            board=self.board,
        )
        outcome = job.outcome
        if outcome is None:
            return record
        cost = outcome.decision.cost
        return replace(
            record,
            mode=outcome.mode,
            expected_score=outcome.expected_score,
            seed_reward=outcome.seed_reward,
            evaluations=cost.get("estimator_queries", 0.0),
            estimator_queries_actual=cost.get(
                "estimator_queries_actual", 0.0
            ),
            iterations=outcome.iterations,
            stopped_early=outcome.stopped_early,
            reschedule_time_s=job.elapsed,
            mapping_rows=(
                tuple(
                    tuple(row)
                    for row in outcome.decision.mapping.assignments
                )
                if record_mappings
                else None
            ),
            tier=tier,
        )

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _scheduler_instance(self) -> Scheduler:
        if self._scheduler is None:
            if self._builder is not None:
                self._scheduler = self._builder.build_scheduler(self.scheduler_name)
            else:
                self._scheduler = self._system.scheduler(self.scheduler_name)
            if self._injector is not None:
                estimator = getattr(self._scheduler, "estimator", None)
                if estimator is not None:
                    estimator.fault_hook = self._injector.on_forward
        self._bind_cache()
        return self._scheduler

    def _bind_cache(self) -> None:
        """Attach the estimator identity to the decision cache.

        Binding loads any persisted snapshot whose token still matches
        (restart warm-up), quarantines corrupt snapshots into
        ``ServiceStats.cache_corruptions``, and — should the estimator
        retrain or re-load mid-process (``Module.version`` bump) —
        drops every now-stale entry rather than serve one.
        """
        estimator = getattr(self._scheduler, "estimator", None)
        if estimator is not None:
            version = int(estimator.network.version)
            if self._cache_token is None or self._cache_token[0] != version:
                self._cache_token = (
                    version,
                    estimator_cache_token(estimator.network),
                )
            token = self._cache_token[1]
        else:
            # Estimator-free baselines: decisions depend only on the
            # (deterministic) cost model, named in the cache key.
            token = f"scheduler:{self.scheduler_name}"
        quarantined = self._cache.bind(token)
        if quarantined:
            self._stats.cache_corruptions += quarantined

    @staticmethod
    def _normalize(
        request: Union[ScheduleRequest, Workload], **knobs
    ) -> ScheduleRequest:
        if isinstance(request, ScheduleRequest):
            if knobs:
                raise TypeError(
                    "knobs are only accepted with a bare Workload; "
                    "set them on the ScheduleRequest instead"
                )
            return request
        if isinstance(request, Workload):
            return ScheduleRequest(workload=request, **knobs)
        raise TypeError(
            f"expected ScheduleRequest or Workload, got {type(request).__name__}"
        )

    @staticmethod
    def _validate(
        scheduler: Scheduler, requests: Sequence[ScheduleRequest]
    ) -> None:
        """Reject a batch naming a model the estimator cannot embed.

        Runs before any job opens, so the caller can drop the
        offending request and resubmit the rest at no lost work.
        """
        embedding = getattr(getattr(scheduler, "estimator", None), "embedding", None)
        if embedding is None:
            return
        known = set(embedding.model_names)
        for position, request in enumerate(requests):
            unknown = [
                name for name in request.workload.model_names if name not in known
            ]
            if unknown:
                raise InvalidRequest(
                    position,
                    request,
                    f"model(s) {', '.join(unknown)} not in the estimator's "
                    f"embedding (known: {', '.join(embedding.model_names)})",
                )

    def _cache_key(self, request: ScheduleRequest) -> Optional[CacheKey]:
        if not self.cache_decisions or request.objective is not None:
            return None
        return (
            self.scheduler_name,
            canonical_signature(request.workload.model_names),
            request.budget,
        )

    def _hit_response(
        self,
        request: ScheduleRequest,
        cached: Tuple[Tuple[str, ...], ScheduleDecision],
        started: float,
    ) -> ScheduleResponse:
        names, decision = cached
        decision = self._align_decision(decision, names, request.workload)
        return ScheduleResponse(
            decision=decision,
            scheduler_name=self._scheduler_instance().name,
            cache_status="hit",
            measured_wall_time_s=_now() - started,
            request_id=request.request_id,
        )

    @staticmethod
    def _align_decision(
        decision: ScheduleDecision,
        cached_names: Tuple[str, ...],
        workload: Workload,
    ) -> ScheduleDecision:
        """Re-align a cached mapping's rows to a permuted duplicate mix.

        Workload order carries no semantics (networks run
        concurrently), but mapping rows align positionally — a cached
        decision for ``a+b`` answers ``b+a`` after swapping rows.
        """
        if tuple(workload.model_names) == cached_names:
            return decision
        row_of = {name: index for index, name in enumerate(cached_names)}
        rows = [
            decision.mapping.assignments[row_of[name]]
            for name in workload.model_names
        ]
        return replace(decision, mapping=Mapping(rows))

    def _respond_direct(
        self, scheduler: Scheduler, request: ScheduleRequest
    ) -> ScheduleResponse:
        """Non-pooling fallback: one synchronous scheduler call."""
        response = scheduler.respond(request)
        self._account(response.decision)
        key = self._cache_key(request)
        if key is not None:
            self._cache.put(
                key,
                tuple(request.workload.model_names),
                response.decision,
            )
        return replace(
            response,
            cache_status="miss" if key is not None else "bypass",
        )

    def _account(self, decision: ScheduleDecision) -> None:
        cost = decision.cost
        self._stats.estimator_queries += cost.get("estimator_queries", 0.0)
        self._stats.estimator_queries_actual += cost.get(
            "estimator_queries_actual", cost.get("estimator_queries", 0.0)
        )
