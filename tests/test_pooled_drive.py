"""The engine's single pooled drive and the request check in front of it.

``SchedulingEngine._drive`` runs both request searches
(``schedule_many``) and trace re-plans (``replay_group``).  Every job
is a coroutine yielding ``(workload, mappings)``; each round prices all
open requests in one evaluator call and hands every job its own slice
of rewards, scored with that job's objective.  These tests pin that
protocol with scripted jobs and a fake estimator, the
:func:`~repro.core.mcts.relay_steps` adapter that turns an MCTS search
into such a coroutine, the per-kind job hooks (idle trace events,
greedy floor, reset), and the :class:`~repro.core.InvalidRequest` check
that rejects a batch before any job opens.
"""

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import pytest

from repro.builder import SystemBuilder
from repro.core import (
    InvalidRequest,
    MCTSConfig,
    MonteCarloTreeSearch,
    OmniBoostScheduler,
    ScheduleDecision,
    ScheduleRequest,
    SchedulingEnv,
    SchedulingObjective,
)
from repro.core.mcts import relay_steps
from repro.engine import SchedulingEngine, _PooledJob, _SearchJob, _TraceJob
from repro.online.scheduler import OnlineDecision
from repro.sim import Mapping
from repro.workloads import Workload


# ----------------------------------------------------------------------
# Scripted jobs and a fake estimator
# ----------------------------------------------------------------------
class _RecordingEstimator:
    """Prices a pair as one device row holding the mapping's value."""

    def __init__(self) -> None:
        self.calls: List[list] = []

    def predict_throughput_batch(self, pairs):
        self.calls.append(list(pairs))
        return np.array([[float(mapping)] for _workload, mapping in pairs])


class _FakeScheduler:
    def __init__(self) -> None:
        self.estimator = _RecordingEstimator()
        self.objective = None

    reward_from_predictions = staticmethod(
        OmniBoostScheduler.reward_from_predictions
    )


class _Scaled(SchedulingObjective):
    name = "scaled"

    def __init__(self, factor: float) -> None:
        self.factor = factor

    def score(self, workload, mapping, predicted) -> float:
        return self.factor * float(np.asarray(predicted).mean())


@dataclass(kw_only=True)
class _ScriptedJob(_PooledJob):
    """Yields its ``rounds`` of mappings one by one; ``None`` is idle."""

    name: str
    rounds: Optional[List[List[int]]]
    scoring: Optional[SchedulingObjective] = None
    received: List[list] = field(default_factory=list)
    result: object = None
    finished: int = 0

    decides = True

    def open(self, scheduler):
        self.objective = self.scoring
        if self.rounds is None:
            return None
        return self._steps()

    def _steps(self):
        for batch in self.rounds:
            rewards = yield (self.name, list(batch))
            self.received.append(list(rewards))
        return f"{self.name}:done"

    def finish(self, result) -> None:
        self.result = result
        self.finished += 1


def _lazy_engine() -> SchedulingEngine:
    # Nothing is built: _drive only touches the scheduler it is given.
    return SchedulingEngine(SystemBuilder(seed=0))


class TestDriveLoop:
    def test_one_evaluator_call_per_round_in_job_order(self):
        engine = _lazy_engine()
        scheduler = _FakeScheduler()
        jobs = [
            _ScriptedJob(name="a", rounds=[[1]]),
            _ScriptedJob(name="b", rounds=[[2, 3], [4]]),
            _ScriptedJob(name="c", rounds=[[5], [6, 7], [8]]),
        ]
        engine._drive(scheduler, jobs)
        assert scheduler.estimator.calls == [
            [("a", 1), ("b", 2), ("b", 3), ("c", 5)],
            [("b", 4), ("c", 6), ("c", 7)],
            [("c", 8)],
        ]
        stats = engine.stats()
        assert stats.pooled_eval_batches == 3
        assert stats.pooled_evaluations == 8

    def test_each_job_gets_exactly_its_own_rewards(self):
        engine = _lazy_engine()
        jobs = [
            _ScriptedJob(name="a", rounds=[[1, 2], [3]]),
            _ScriptedJob(name="b", rounds=[[10], [20, 30]]),
        ]
        engine._drive(_FakeScheduler(), jobs)
        assert jobs[0].received == [[1.0, 2.0], [3.0]]
        assert jobs[1].received == [[10.0], [20.0, 30.0]]
        assert [job.result for job in jobs] == ["a:done", "b:done"]
        assert all(job.finished == 1 and job.pending is None for job in jobs)

    def test_rewards_are_scored_with_each_jobs_objective(self):
        engine = _lazy_engine()
        jobs = [
            _ScriptedJob(name="plain", rounds=[[2]]),
            _ScriptedJob(name="tripled", rounds=[[2]], scoring=_Scaled(3.0)),
        ]
        engine._drive(_FakeScheduler(), jobs)
        assert jobs[0].received == [[2.0]]
        assert jobs[1].received == [[6.0]]

    def test_idle_jobs_are_never_priced_or_finished(self):
        engine = _lazy_engine()
        scheduler = _FakeScheduler()
        idle = _ScriptedJob(name="idle", rounds=None)
        busy = _ScriptedJob(name="busy", rounds=[[4]])
        engine._drive(scheduler, [idle, busy])
        assert scheduler.estimator.calls == [[("busy", 4)]]
        assert idle.finished == 0 and idle.result is None
        assert busy.result == "busy:done"

    def test_job_that_finishes_at_open_costs_no_evaluation(self):
        engine = _lazy_engine()
        scheduler = _FakeScheduler()
        job = _ScriptedJob(name="empty", rounds=[])
        engine._drive(scheduler, [job])
        assert scheduler.estimator.calls == []
        assert job.result == "empty:done"
        assert engine.stats().pooled_eval_batches == 0

    def test_no_jobs_no_batches(self):
        engine = _lazy_engine()
        scheduler = _FakeScheduler()
        engine._drive(scheduler, [])
        assert scheduler.estimator.calls == []
        assert engine.stats().pooled_evaluations == 0


# ----------------------------------------------------------------------
# relay_steps: search_steps -> (workload, mappings) protocol
# ----------------------------------------------------------------------
def _scripted_steps(batches, sent, result="result"):
    for batch in batches:
        sent.append((yield batch))
    return result


class TestRelaySteps:
    def test_forwards_batches_and_rewards(self):
        sent = []
        relay = relay_steps("w", _scripted_steps([[1, 2], [3]], sent))
        assert next(relay) == ("w", [1, 2])
        assert relay.send([0.1, 0.2]) == ("w", [3])
        with pytest.raises(StopIteration) as stop:
            relay.send([0.3])
        assert stop.value.value == "result"
        assert sent == [[0.1, 0.2], [0.3]]

    def test_batches_are_handed_on_as_lists(self):
        relay = relay_steps("w", _scripted_steps([(5, 6)], []))
        workload, mappings = next(relay)
        assert workload == "w" and mappings == [5, 6]
        assert isinstance(mappings, list)

    def test_search_without_evaluations_returns_at_once(self):
        relay = relay_steps("w", _scripted_steps([], [], result="empty"))
        with pytest.raises(StopIteration) as stop:
            next(relay)
        assert stop.value.value == "empty"

    def test_relayed_search_matches_standalone_search(self):
        workload = Workload.from_names(["alexnet", "mobilenet"])
        env = SchedulingEnv(workload, 3)

        def reward(mapping):
            return float(hash(mapping) % 1000) / 1000.0

        def reward_batch(mappings):
            return [reward(mapping) for mapping in mappings]

        config = MCTSConfig(budget=80, seed=7, eval_batch_size=4)
        standalone = MonteCarloTreeSearch(
            env, reward, config, reward_batch_fn=reward_batch
        ).search()
        relay = relay_steps(
            workload,
            MonteCarloTreeSearch(
                env, reward, config, reward_batch_fn=reward_batch
            ).search_steps(),
        )
        try:
            request = next(relay)
            while True:
                assert request[0] is workload
                request = relay.send(reward_batch(request[1]))
        except StopIteration as stop:
            relayed = stop.value
        assert relayed.mapping == standalone.mapping
        assert relayed.reward == standalone.reward
        assert relayed.evaluations == standalone.evaluations
        assert relayed.improvements == standalone.improvements


# ----------------------------------------------------------------------
# Per-kind job hooks
# ----------------------------------------------------------------------
def _decision(workload: Workload) -> ScheduleDecision:
    return ScheduleDecision(
        mapping=Mapping([(0,) * model.num_layers for model in workload.models]),
        expected_score=1.0,
        wall_time_s=0.0,
        cost={"estimator_queries": 0.0},
    )


class _SearchStub:
    def search_steps(self):
        return _scripted_steps([[Mapping([(0,)])]], [])


class _StubOmniBoost:
    def __init__(self, objective=None) -> None:
        self.objective = objective
        self.config = MCTSConfig(budget=10)
        self.made = []

    def request_config(self, request):
        return self.config

    def make_search(self, workload, config=None, objective=None):
        self.made.append((workload, config, objective))
        return _SearchStub()


class TestPooledJobHooks:
    def test_search_job_scores_with_the_schedulers_objective_by_default(self):
        workload = Workload.from_names(["alexnet"])
        fallback = _Scaled(2.0)
        scheduler = _StubOmniBoost(objective=fallback)
        job = _SearchJob(request=ScheduleRequest(workload=workload), index=0, key=None)
        gen = job.open(scheduler)
        assert job.objective is fallback
        assert scheduler.made == [(workload, scheduler.config, None)]
        assert next(gen)[0] is workload

    def test_search_job_request_objective_wins(self):
        workload = Workload.from_names(["alexnet"])
        own = _Scaled(5.0)
        scheduler = _StubOmniBoost(objective=_Scaled(2.0))
        request = ScheduleRequest(workload=workload, objective=own)
        job = _SearchJob(request=request, index=0, key=None)
        job.open(scheduler)
        assert job.objective is own
        assert scheduler.made[0][2] is own

    def test_search_job_greedy_and_reset(self):
        workload = Workload.from_names(["alexnet"])
        job = _SearchJob(request=ScheduleRequest(workload=workload), index=0, key=None)
        job.greedy(_decision)
        assert job.decision == _decision(workload)
        assert job.result is None
        job.gen, job.pending = object(), (workload, [])
        job.reset()
        assert (job.gen, job.pending, job.result, job.decision) == (
            None,
            None,
            None,
            None,
        )

    def test_trace_job_idle_event_plans_and_places_nothing(self):
        job = _TraceJob(event=None, workload=None, online=None)
        assert not job.decides
        assert job.open(_StubOmniBoost()) is None
        job.greedy(_decision)
        assert job.outcome is None

    def test_trace_job_greedy_places_the_active_workload(self):
        workload = Workload.from_names(["alexnet", "mobilenet"])
        job = _TraceJob(event=None, workload=workload, online=None)
        assert job.decides
        job.greedy(_decision)
        assert isinstance(job.outcome, OnlineDecision)
        assert job.outcome.mode == "greedy"
        assert job.outcome.workload is workload
        assert job.outcome.decision == _decision(workload)
        job.reset()
        assert job.outcome is None and job.gen is None


# ----------------------------------------------------------------------
# InvalidRequest: the batch is rejected before any job opens
# ----------------------------------------------------------------------
def _builder() -> SystemBuilder:
    return (
        SystemBuilder(seed=29)
        .with_estimator(num_training_samples=40, epochs=3)
        .with_mcts_config(MCTSConfig(budget=50, seed=13))
    )


def _valid():
    return [
        ScheduleRequest(
            workload=Workload.from_names(["alexnet", "mobilenet"]), request_id="v0"
        ),
        ScheduleRequest(
            workload=Workload.from_names(["vgg16", "squeezenet"]), request_id="v1"
        ),
    ]


def _bad(*names, request_id="bad"):
    return ScheduleRequest(workload=Workload.from_names(names), request_id=request_id)


class TestRequestValidation:
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_position_of_the_offending_request(self, position):
        requests = _valid()
        bad = _bad("resnet18", "alexnet")
        requests.insert(position, bad)
        engine = SchedulingEngine(_builder())
        with pytest.raises(InvalidRequest) as raised:
            engine.schedule_many(requests)
        assert raised.value.position == position
        assert raised.value.request is bad

    def test_first_offending_request_is_reported(self):
        first = _bad("densenet121", request_id="first")
        second = _bad("resnet18", request_id="second")
        engine = SchedulingEngine(_builder())
        with pytest.raises(InvalidRequest) as raised:
            engine.schedule_many([_valid()[0], first, second])
        assert raised.value.position == 1
        assert raised.value.request is first

    def test_reason_names_every_unknown_model(self):
        engine = SchedulingEngine(_builder())
        with pytest.raises(InvalidRequest) as raised:
            engine.schedule_many([_bad("resnet18", "alexnet", "efficientnet_b0")])
        error = raised.value
        assert isinstance(error, ValueError)
        assert "resnet18" in error.reason and "efficientnet_b0" in error.reason
        assert "model(s) resnet18, efficientnet_b0 " in error.reason
        assert str(error).startswith("request #0 ('bad'): ")

    def test_single_submit_is_rejected_at_position_zero(self):
        engine = SchedulingEngine(_builder())
        with pytest.raises(InvalidRequest) as raised:
            engine.submit(Workload.from_names(["resnet18"]))
        assert raised.value.position == 0
        assert engine.stats().requests_served == 0

    def test_rejected_batch_leaves_the_engine_as_it_was(self):
        """A rejection caches nothing and counts nothing: resubmitting
        the valid rest gives a fresh engine's mappings and counters."""
        rejected = SchedulingEngine(_builder())
        valid = _valid()
        with pytest.raises(InvalidRequest):
            rejected.schedule_many([valid[0], _bad("resnet18"), valid[1]])
        fresh = SchedulingEngine(_builder())
        got = rejected.schedule_many(valid)
        want = fresh.schedule_many(valid)
        for after, expected in zip(got, want):
            assert after.mapping == expected.mapping
            assert after.expected_score == expected.expected_score
            assert after.cache_status == expected.cache_status == "miss"
        got_stats, want_stats = rejected.stats(), fresh.stats()
        assert got_stats.cache_misses == want_stats.cache_misses == 2
        assert got_stats.pooled_eval_batches == want_stats.pooled_eval_batches

    def test_estimator_free_scheduler_accepts_any_zoo_model(self):
        engine = SchedulingEngine(_builder(), scheduler="baseline")
        workload = Workload.from_names(["resnet18", "alexnet"])
        (response,) = engine.schedule_many([ScheduleRequest(workload=workload)])
        assert len(response.mapping.assignments) == 2
