"""Common scheduler interface shared by OmniBoost and the baselines.

Two surfaces live here:

* the classic one-shot call — :meth:`Scheduler.schedule` takes a
  :class:`~repro.workloads.mix.Workload` and returns a
  :class:`ScheduleDecision` (kept verbatim for back compatibility);
* the typed request/response protocol — :meth:`Scheduler.respond`
  takes a :class:`ScheduleRequest` carrying per-call knobs (objective,
  budget override, priority, request id) and returns a
  :class:`ScheduleResponse` wrapping the decision with scheduler
  identity, cache status and the *host-measured* wall time.

The response's ``measured_wall_time_s`` is always the host-clock
elapsed time around the decision, recorded unconditionally — unlike
``ScheduleDecision.wall_time_s``, which a scheduler may self-report
(and which :meth:`Scheduler.schedule` historically only back-filled
when it was exactly ``0.0``).  Keeping the two in separate fields
means a scheduler's self-reported timing can never be conflated with
what the host actually observed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Optional

from ..sim.mapping import Mapping
from ..workloads.mix import Workload

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .objectives import SchedulingObjective

__all__ = [
    "InvalidRequest",
    "ScheduleDecision",
    "ScheduleRequest",
    "ScheduleResponse",
    "Scheduler",
    "SLOTarget",
]


@dataclass(frozen=True)
class SLOTarget:
    """A per-request service-level objective.

    Attributes
    ----------
    min_throughput:
        Floor on the decision's ``expected_score`` (the scheduler's
        predicted mean throughput, estimator-score units).  Purely a
        function of the seeded search, so attainment against the floor
        is deterministic — the gateable half of the contract.
    max_latency_s:
        Bound on the host-measured decision latency
        (``measured_wall_time_s`` / ``reschedule_time_s``).  Wall-clock
        and therefore machine-dependent: reported in attainment stats,
        never gated in tests (the single-core CI rule).

    At least one bound must be set.  ``ratio``/``attained`` fold an
    observed outcome against the contract; a request whose throughput
    ratio is >= 1.0 (and within the latency bound, when one is set)
    attained its SLO.
    """

    min_throughput: Optional[float] = None
    max_latency_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.min_throughput is None and self.max_latency_s is None:
            raise ValueError(
                "an SLOTarget needs a throughput floor and/or a "
                "latency bound"
            )
        if self.min_throughput is not None and self.min_throughput <= 0:
            raise ValueError(
                f"min_throughput must be > 0, got {self.min_throughput}"
            )
        if self.max_latency_s is not None and self.max_latency_s <= 0:
            raise ValueError(
                f"max_latency_s must be > 0, got {self.max_latency_s}"
            )

    def ratio(self, expected_score: float) -> Optional[float]:
        """Throughput attainment ratio (``None`` without a floor)."""
        if self.min_throughput is None:
            return None
        return expected_score / self.min_throughput

    def attained(self, expected_score: float, latency_s: float) -> bool:
        """Did an outcome honor every bound this target sets?"""
        ratio = self.ratio(expected_score)
        if ratio is not None and ratio < 1.0:
            return False
        if self.max_latency_s is not None and latency_s > self.max_latency_s:
            return False
        return True


@dataclass(frozen=True)
class ScheduleDecision:
    """A scheduler's answer for one workload.

    Attributes
    ----------
    mapping:
        The chosen layer-to-device assignment.
    expected_score:
        The scheduler's own internal score of the mapping (estimator
        reward, GA fitness, predicted latency...); scales differ
        between schedulers and are not comparable across them.
    wall_time_s:
        Host seconds spent deciding.
    cost:
        Decision-cost accounting for the paper's Section V-B run-time
        analysis, e.g. ``{"estimator_queries": 500}`` or
        ``{"board_measurements": 1500}``.
    """

    mapping: Mapping
    expected_score: float
    wall_time_s: float
    cost: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class ScheduleRequest:
    """One scheduling query, with its per-call knobs.

    Attributes
    ----------
    workload:
        The mix to map.
    objective:
        Optional :class:`~repro.core.objectives.SchedulingObjective`
        override for this request only; ``None`` keeps the scheduler's
        configured objective (the paper's throughput reward for
        OmniBoost).  Schedulers without a pluggable objective ignore
        it.
    budget:
        Optional search-budget override (MCTS iterations for
        OmniBoost).  Schedulers without a budget knob ignore it.
    priority:
        Service scheduling hint: higher-priority requests are searched
        first when a batch is processed.  Results never depend on it.
    request_id:
        Caller-chosen correlation id, echoed on the response.
    slo:
        Optional :class:`SLOTarget` contract for this request.  Never
        changes the decision (or the cache key) — it sets what the
        service *accounts* the outcome against, and what an admission
        controller enforces when one is configured.
    """

    workload: Workload
    objective: Optional["SchedulingObjective"] = None
    budget: Optional[int] = None
    priority: int = 0
    request_id: str = ""
    slo: Optional[SLOTarget] = None

    def __post_init__(self) -> None:
        if self.budget is not None and self.budget < 1:
            raise ValueError(f"budget override must be >= 1, got {self.budget}")


class InvalidRequest(ValueError):
    """A batch held a request its scheduler cannot answer.

    Raised by ``schedule_many`` before any search starts; ``position``
    indexes the offending request in the batch, ``request`` is that
    request and ``reason`` says what is wrong with it.  A front door
    fails only that request and re-submits the rest.
    """

    def __init__(self, position: int, request: ScheduleRequest, reason: str) -> None:
        super().__init__(f"request #{position} ({request.request_id!r}): {reason}")
        self.position = position
        self.request = request
        self.reason = reason


@dataclass(frozen=True)
class ScheduleResponse:
    """One scheduling answer, with provenance and timing.

    Attributes
    ----------
    decision:
        The underlying :class:`ScheduleDecision`.
    scheduler_name:
        Which scheduler produced (or originally produced, for cache
        hits) the decision.
    cache_status:
        ``"uncached"`` for a direct scheduler call, ``"miss"`` /
        ``"hit"`` when a decision cache sat in front of the scheduler,
        ``"bypass"`` when the request's knobs made it uncacheable.
    measured_wall_time_s:
        Host-clock seconds from accepting the request to this response
        being ready — always recorded by the host, never a scheduler's
        self-report (that stays on ``decision.wall_time_s``).  This is
        request *latency*: when a service processes several requests
        concurrently, their latencies overlap and do not sum to the
        batch's wall time (the per-decision compute attribution lives
        in ``decision.cost``).
    request_id:
        Echo of :attr:`ScheduleRequest.request_id`.
    """

    decision: ScheduleDecision
    scheduler_name: str
    cache_status: str = "uncached"
    measured_wall_time_s: float = 0.0
    request_id: str = ""

    @property
    def mapping(self) -> Mapping:
        return self.decision.mapping

    @property
    def expected_score(self) -> float:
        return self.decision.expected_score


class Scheduler:
    """Base class: subclasses implement :meth:`_decide`."""

    #: Human-readable scheduler name used in reports and figures.
    name: str = "scheduler"

    def schedule(self, workload: Workload) -> ScheduleDecision:
        """Produce a mapping for ``workload`` (timed)."""
        return self.respond(ScheduleRequest(workload=workload)).decision

    def respond(self, request: ScheduleRequest) -> ScheduleResponse:
        """Answer one :class:`ScheduleRequest` (timed by the host)."""
        started = time.perf_counter()  # repro: lint-ignore[RPR002] -- host measurement of search wall time
        decision = self._decide_request(request)
        elapsed = time.perf_counter() - started  # repro: lint-ignore[RPR002] -- host measurement of search wall time
        if decision.wall_time_s == 0.0:
            # Back-compat: schedulers that don't self-report get the
            # host measurement on the decision too.
            decision = replace(decision, wall_time_s=elapsed)
        return ScheduleResponse(
            decision=decision,
            scheduler_name=self.name,
            measured_wall_time_s=elapsed,
            request_id=request.request_id,
        )

    def _decide_request(self, request: ScheduleRequest) -> ScheduleDecision:
        """Hook for schedulers that honor per-request knobs.

        The default ignores everything but the workload; schedulers
        with a budget or objective knob (OmniBoost) override this.
        """
        return self._decide(request.workload)

    def _decide(self, workload: Workload) -> ScheduleDecision:  # pragma: no cover
        raise NotImplementedError
