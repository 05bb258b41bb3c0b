"""Incremental re-planning over a changing tenant set: :class:`OnlineScheduler`.

One OmniBoost decision prices ~500 estimator queries.  A long-lived
deployment that re-ran a cold search on every arrival and departure
would spend almost all of that budget rediscovering placements it
already knew: after a single departure, the surviving tenants' rows of
the previous mapping are usually still an excellent — often optimal —
schedule.  The :class:`OnlineScheduler` exploits that: it retains the
per-model device rows of the last committed decision and *warm-starts*
each re-search by seeding
:meth:`~repro.core.mcts.MonteCarloTreeSearch.search_steps` with the
retained rows projected onto the new mix: new arrivals are greedily
completed with their best single-device row (one small batched
evaluation per arrival), then a few greedy *refinement* rounds
re-offer freed capacity to the survivors — each round scores every
stage-level device move in one batched call and keeps the best.  The
seeded search starts from an incumbent it can only improve on, and a
``patience`` limit ends it as soon as the incumbent stops moving — a
fraction of the cold budget for the same or better estimated
throughput.

The warm path falls back to a full cold search whenever the seed is
not trustworthy: no retained decision yet, the retained rows cover
less than :attr:`OnlineConfig.min_overlap` of the new mix, warm
starting is disabled, or the seed fails the environment's validation
(wrong shape, stage-cap breach).  Either way the returned
:class:`OnlineDecision` reports which path ran and what it cost.

Driving it by hand::

    >>> from repro import SystemBuilder
    >>> from repro.online import OnlineConfig, OnlineScheduler
    >>> from repro.workloads import churn_scenario
    >>> scheduler = (
    ...     SystemBuilder().with_estimator(epochs=20).build_scheduler("omniboost")
    ... )
    >>> online = OnlineScheduler(scheduler, OnlineConfig(warm_patience=100))
    >>> for event in churn_scenario("steady-drain"):
    ...     online.apply(event)
    ...     outcome = online.plan()
    ...     if outcome is not None:
    ...         print(event.kind, outcome.mode, outcome.decision.expected_score)

:meth:`SchedulingService.run_trace <repro.service.SchedulingService.run_trace>`
wraps the same object in the service's pooled-evaluation event loop
and emits a per-event :class:`~repro.evaluation.TimelineReport`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.base import ScheduleDecision
from ..core.mcts import relay_steps
from ..core.scheduler import OmniBoostScheduler
from ..sim.mapping import Mapping
from ..workloads.mix import Workload
from ..workloads.trace import ArrivalEvent

__all__ = ["OnlineConfig", "OnlineDecision", "OnlineScheduler"]

#: What ``plan_steps`` yields: (workload, mappings awaiting rewards).
PlanRequest = Tuple[Workload, List[Mapping]]


@dataclass(frozen=True)
class OnlineConfig:
    """Warm-start policy knobs.

    ``warm_patience`` stops a warm re-search after that many
    consecutive iterations without an incumbent improvement (``None``
    runs the full budget — useful for the identity property, wasteful
    in production).  ``min_overlap`` is the fraction of the new mix
    that must be covered by retained rows for the warm path to engage;
    below it the seed is considered untrustworthy and a cold search
    runs.  ``warm_budget`` / ``cold_budget`` override the scheduler's
    configured MCTS budget per path (``None`` keeps it — the measured
    speedup then comes purely from early stopping, at equal budget).
    ``refine_rounds`` bounds the greedy seed-refinement passes that
    re-offer freed capacity to the surviving tenants before the search
    starts (each pass scores a few dozen stage-move candidates in one
    batched evaluation; 0 disables refinement and seeds the raw
    projection).  ``warm=False`` disables warm starting entirely
    (every event pays a cold search; the benchmark's comparison arm).
    """

    warm: bool = True
    warm_patience: Optional[int] = 120
    min_overlap: float = 0.5
    warm_budget: Optional[int] = None
    cold_budget: Optional[int] = None
    refine_rounds: int = 3

    def __post_init__(self) -> None:
        if self.warm_patience is not None and self.warm_patience < 1:
            raise ValueError(
                f"warm_patience must be >= 1, got {self.warm_patience}"
            )
        if self.refine_rounds < 0:
            raise ValueError(
                f"refine_rounds must be >= 0, got {self.refine_rounds}"
            )
        if not 0.0 < self.min_overlap <= 1.0:
            raise ValueError(
                f"min_overlap must be in (0, 1], got {self.min_overlap}"
            )
        for label, budget in (
            ("warm_budget", self.warm_budget),
            ("cold_budget", self.cold_budget),
        ):
            if budget is not None and budget < 1:
                raise ValueError(f"{label} must be >= 1, got {budget}")


@dataclass(frozen=True)
class OnlineDecision:
    """One re-planning outcome.

    ``mode`` is ``"warm"`` or ``"cold"``; ``seed_reward`` the evaluated
    score of the (refined) warm seed (``None`` on cold paths);
    ``completion_evaluations`` how many candidate placements were
    scored to complete new arrivals into the seed, and
    ``refinement_evaluations`` how many the greedy seed-refinement
    rounds cost.  The underlying
    :class:`~repro.core.base.ScheduleDecision` carries the full cost
    accounting (its ``estimator_queries`` counters include the seed
    and completion evaluations).
    """

    decision: ScheduleDecision
    workload: Workload
    mode: str
    seed_reward: Optional[float] = None
    stopped_early: bool = False
    iterations: int = 0
    completion_evaluations: int = 0
    refinement_evaluations: int = 0

    @property
    def mapping(self) -> Mapping:
        return self.decision.mapping

    @property
    def expected_score(self) -> float:
        return self.decision.expected_score


class OnlineScheduler:
    """Tenancy tracking + warm-started re-search over one evolving mix.

    Parameters
    ----------
    scheduler:
        The :class:`~repro.core.scheduler.OmniBoostScheduler` whose
        estimator, environment settings and MCTS configuration every
        re-search uses.
    config:
        Warm-start policy; defaults to :class:`OnlineConfig`.

    The object is a state machine: :meth:`apply` folds one trace event
    into the active tenant set, :meth:`plan` (or the
    :meth:`plan_steps` coroutine, for pooled driving) re-schedules the
    current mix, and :meth:`commit` — called automatically by
    :meth:`plan` — retains the decision's rows as warm-start material
    for the next event.
    """

    def __init__(
        self,
        scheduler: OmniBoostScheduler,
        config: Optional[OnlineConfig] = None,
    ) -> None:
        if not isinstance(scheduler, OmniBoostScheduler):
            raise TypeError(
                "OnlineScheduler needs an OmniBoostScheduler (the warm "
                "start drives its estimator search); got "
                f"{type(scheduler).__name__}"
            )
        self.scheduler = scheduler
        self.config = config or OnlineConfig()
        #: tenant id -> (model name, priority), arrival order.
        self.active: Dict[str, Tuple[str, int]] = {}
        #: model name -> device row of the last committed decision.
        self._rows: Dict[str, Tuple[int, ...]] = {}
        self.last: Optional[OnlineDecision] = None

    # ------------------------------------------------------------------
    # Tenancy
    # ------------------------------------------------------------------
    def apply(self, event: ArrivalEvent) -> bool:
        """Fold one event into the active set; True if the mix changed."""
        if event.kind == "arrival":
            if event.tenant_id in self.active:
                raise ValueError(f"tenant {event.tenant_id!r} already active")
            if any(model == event.model for model, _ in self.active.values()):
                raise ValueError(
                    f"model {event.model!r} already active; concurrent "
                    "duplicates are not representable"
                )
            self.active[event.tenant_id] = (event.model, event.priority)
            return True
        if event.tenant_id not in self.active:
            raise KeyError(f"departure of unknown tenant {event.tenant_id!r}")
        del self.active[event.tenant_id]
        return True

    def current_workload(self) -> Optional[Workload]:
        """The active mix as a Workload (None when the board is empty)."""
        if not self.active:
            return None
        return Workload.from_names(
            [model for model, _ in self.active.values()]
        )

    def reset(self) -> None:
        """Forget tenants and retained warm-start rows."""
        self.active.clear()
        self._rows.clear()
        self.last = None

    # ------------------------------------------------------------------
    # Checkpointing (crash-consistent trace replay)
    # ------------------------------------------------------------------
    def export_state(self) -> Dict:
        """JSON-ready snapshot of tenancy and warm-start rows.

        This is the *complete* serving state of an online scheduler —
        ``plan_steps`` is a pure function of the active set, the
        retained rows and the (immutable) config — which is what makes
        the resilience layer's per-event journal
        (:mod:`repro.resilience.checkpoint`) sufficient for a resumed
        replay to be byte-identical to an uninterrupted one.  Insertion
        order of ``active`` is preserved (it defines workload order).
        """
        return {
            "active": [
                [tenant_id, model, priority]
                for tenant_id, (model, priority) in self.active.items()
            ],
            "rows": {name: list(row) for name, row in self._rows.items()},
        }

    def restore_state(self, state: Dict) -> None:
        """Restore an :meth:`export_state` snapshot."""
        self.active = {
            tenant_id: (model, int(priority))
            for tenant_id, model, priority in state["active"]
        }
        self._rows = {
            name: tuple(int(device) for device in row)
            for name, row in state["rows"].items()
        }
        self.last = None

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self) -> Optional[OnlineDecision]:
        """Re-schedule the current mix, standalone (timed, committed)."""
        workload = self.current_workload()
        if workload is None:
            return None
        started = time.perf_counter()  # repro: lint-ignore[RPR002] -- host measurement of re-plan wall time
        estimator = self.scheduler.estimator
        steps = self.plan_steps(workload)
        try:
            request = next(steps)
            while True:
                req_workload, mappings = request
                predicted = estimator.predict_throughput_batch(
                    [(req_workload, mapping) for mapping in mappings]
                )
                rewards = self.scheduler.reward_from_predictions(
                    req_workload, mappings, predicted, self.scheduler.objective
                )
                request = steps.send(rewards)
        except StopIteration as stop:
            outcome = stop.value
        elapsed = time.perf_counter() - started  # repro: lint-ignore[RPR002] -- host measurement of re-plan wall time
        outcome = replace(
            outcome,
            decision=replace(outcome.decision, wall_time_s=elapsed),
        )
        self.commit(outcome)
        return outcome

    def plan_steps(
        self, workload: Optional[Workload] = None
    ) -> "Generator[PlanRequest, Sequence[float], Optional[OnlineDecision]]":
        """Re-scheduling as a coroutine that externalizes evaluation.

        Yields ``(workload, mappings)`` requests — first the greedy
        completion candidates for any new arrivals, then the warm or
        cold search's own micro-batches — and expects the matching
        reward list via ``send()``.  Returns the
        :class:`OnlineDecision` (with ``wall_time_s`` left at 0 for
        the driver to fill) without committing it, so a service can
        drive several plans concurrently against one retained-row
        snapshot and commit only the final state.
        """
        if workload is None:
            workload = self.current_workload()
        if workload is None:
            return None
        scheduler = self.scheduler
        names = workload.model_names
        layer_counts = {
            model.name: model.num_layers for model in workload.models
        }
        retained = {
            name: self._rows[name]
            for name in names
            if name in self._rows
            and len(self._rows[name]) == layer_counts[name]
        }
        overlap = len(retained) / len(names)
        warm = (
            self.config.warm
            and bool(retained)
            and overlap >= self.config.min_overlap
        )
        completion_evals = 0
        seed: Optional[Mapping] = None
        if warm:
            num_devices = scheduler.estimator.embedding.num_devices
            seed_rows: Dict[str, Tuple[int, ...]] = dict(retained)
            arrivals = [name for name in names if name not in seed_rows]
            for name in arrivals:  # placeholders, refined greedily below
                seed_rows[name] = (0,) * layer_counts[name]
            for name in arrivals:
                candidates = [
                    Mapping(
                        [
                            (device,) * layer_counts[name]
                            if other == name
                            else seed_rows[other]
                            for other in names
                        ]
                    )
                    for device in range(num_devices)
                ]
                rewards = yield (workload, candidates)
                completion_evals += len(candidates)
                best = int(np.argmax(rewards))
                seed_rows[name] = (best,) * layer_counts[name]
            seed = Mapping([seed_rows[name] for name in names])

        refinement_evals = 0
        if seed is not None and self.config.refine_rounds:
            # Greedy refinement: a departure frees capacity the
            # projected rows never claim, so re-offer it — per round,
            # score every single-stage device move (and whole-row
            # relocation) of every survivor in one batched call and
            # keep the best, until a round stops improving.
            num_devices = scheduler.estimator.embedding.num_devices
            stage_cap = scheduler.stage_cap or num_devices
            rewards = yield (workload, [seed])
            refinement_evals += 1
            seed_reward = float(rewards[0])
            for _ in range(self.config.refine_rounds):
                candidates = self._refinement_candidates(
                    seed, num_devices, stage_cap
                )
                if not candidates:
                    break
                rewards = yield (workload, candidates)
                refinement_evals += len(candidates)
                best = int(np.argmax(rewards))
                if float(rewards[best]) <= seed_reward:
                    break
                seed_reward = float(rewards[best])
                seed = candidates[best]

        result = None
        if seed is not None:
            budget = self.config.warm_budget or scheduler.config.budget
            search = scheduler.make_search(
                workload, config=replace(scheduler.config, budget=budget)
            )
            try:
                result = yield from relay_steps(
                    workload,
                    search.search_steps(
                        initial_mapping=seed,
                        patience=self.config.warm_patience,
                    ),
                )
            except ValueError:
                # Seed rejected by the environment (e.g. a stage-cap
                # breach after re-projection): cold fallback below.
                seed = None
        if result is None:
            budget = self.config.cold_budget or scheduler.config.budget
            search = scheduler.make_search(
                workload, config=replace(scheduler.config, budget=budget)
            )
            result = yield from relay_steps(workload, search.search_steps())

        seeding_evals = completion_evals + refinement_evals
        decision = scheduler.decision_from_result(
            result, int(result.cache_misses) + seeding_evals
        )
        if seeding_evals:
            cost = dict(decision.cost)
            cost["estimator_queries"] += float(seeding_evals)
            cost["completion_evaluations"] = float(completion_evals)
            cost["refinement_evaluations"] = float(refinement_evals)
            decision = replace(decision, cost=cost)
        return OnlineDecision(
            decision=decision,
            workload=workload,
            mode="warm" if seed is not None else "cold",
            seed_reward=result.seed_reward,
            stopped_early=result.stopped_early,
            iterations=result.iterations,
            completion_evaluations=completion_evals,
            refinement_evaluations=refinement_evals,
        )

    @staticmethod
    def _refinement_candidates(
        seed: Mapping, num_devices: int, stage_cap: int
    ) -> List[Mapping]:
        """One round's neighbourhood: stage device moves + row relocations.

        Moving a whole stage (or a whole row) to another device never
        *increases* a row's stage count, so every candidate respects
        the cap the seed respects; the guard below is belt-and-braces.
        """
        candidates: List[Mapping] = []
        seen = {seed}
        rows = [list(row) for row in seed.assignments]
        for index, row in enumerate(rows):
            moves: List[List[int]] = []
            for stage in seed.stages(index):
                for device in range(num_devices):
                    if device == stage.device_id:
                        continue
                    moved = list(row)
                    moved[stage.start : stage.end] = [device] * (
                        stage.end - stage.start
                    )
                    moves.append(moved)
            for device in range(num_devices):
                moves.append([device] * len(row))
            for moved in moves:
                candidate = Mapping(
                    rows[:index] + [moved] + rows[index + 1 :]
                )
                if candidate in seen:
                    continue
                seen.add(candidate)
                if candidate.max_stages <= stage_cap:
                    candidates.append(candidate)
        return candidates

    def commit(self, outcome: OnlineDecision) -> None:
        """Retain a decision's rows as the next event's warm-start material."""
        for name, row in zip(
            outcome.workload.model_names, outcome.decision.mapping.assignments
        ):
            self._rows[name] = tuple(row)
        self.last = outcome
