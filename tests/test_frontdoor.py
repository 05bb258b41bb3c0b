"""Front-door tests: bounded cache, persistence, async ingress identity.

The acceptance bar for PR 10's ingestion layer:

* :class:`ShardedDecisionCache` is bounded (LRU per shard, counted
  evictions), deterministic in its shard routing (crc32, never the
  salted builtin ``hash``), and survives restarts through checksummed
  snapshots keyed on the estimator's weight state — a retrained or
  re-loaded estimator invalidates every persisted entry, and a corrupt
  snapshot is quarantined, never served;
* :class:`AsyncFrontDoor` at ``window_size=1`` is byte-identical to
  calling ``schedule_many`` directly — the identity contract — while
  larger windows pool concurrent arrivals into exactly
  ``ceil(n / window_size)`` full flushes;
* a request the estimator cannot embed fails alone with a typed
  :class:`~repro.core.InvalidRequest`; its window-mates get the
  decisions of a window that never held it;
* a service restarted against the same ``cache_dir`` replays
  previously-decided mixes with **zero** estimator queries.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.builder import SystemBuilder
from repro.core import InvalidRequest, MCTSConfig, ScheduleRequest
from repro.core.base import ScheduleDecision
from repro.frontdoor import (
    AsyncFrontDoor,
    ShardedDecisionCache,
    clear_cache_dir,
    estimator_cache_token,
    inspect_cache_dir,
)
from repro.nn.layers import Linear
from repro.service import SchedulingService
from repro.sim import Mapping
from repro.workloads import Workload

MIX_NAMES = [
    ["alexnet", "mobilenet", "squeezenet"],
    ["vgg19", "resnet50", "alexnet"],
    ["mobilenet", "vgg16", "inception_v3"],
    ["alexnet", "mobilenet", "squeezenet"],
    ["squeezenet", "resnet34", "vgg13"],
    ["mobilenet", "alexnet", "squeezenet"],
]


def _make_service(**kwargs) -> SchedulingService:
    builder = (
        SystemBuilder(seed=29)
        .with_estimator(num_training_samples=40, epochs=3)
        .with_mcts_config(MCTSConfig(budget=50, seed=13))
    )
    return SchedulingService(builder, **kwargs)


def _requests(names=MIX_NAMES):
    return [
        ScheduleRequest(workload=Workload.from_names(mix), request_id=str(i))
        for i, mix in enumerate(names)
    ]


def _key(index, budget=None):
    return ("omniboost", (f"model{index}", f"other{index}"), budget)


def _decision(score=1.0):
    return ScheduleDecision(
        mapping=Mapping([[0, 0, 1], [1, 1, 2]]),
        expected_score=score,
        wall_time_s=0.0,
        cost={"estimator_queries": 50.0},
    )


def _names(index):
    return (f"model{index}", f"other{index}")


# ----------------------------------------------------------------------
# ShardedDecisionCache: bounds and routing
# ----------------------------------------------------------------------
class TestCacheBounds:
    def test_lru_eviction_past_capacity(self):
        cache = ShardedDecisionCache(num_shards=1, shard_capacity=2)
        cache.bind("token")
        for index in range(3):
            cache.put(_key(index), _names(index), _decision(float(index)))
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get(_key(0)) is None  # the least-recently-used entry
        assert cache.get(_key(2)) is not None

    def test_get_refreshes_recency(self):
        cache = ShardedDecisionCache(num_shards=1, shard_capacity=2)
        cache.bind("token")
        cache.put(_key(0), _names(0), _decision())
        cache.put(_key(1), _names(1), _decision())
        cache.get(_key(0))  # refresh: key 1 becomes the LRU entry
        cache.put(_key(2), _names(2), _decision())
        assert cache.get(_key(0)) is not None
        assert cache.get(_key(1)) is None

    def test_shard_routing_is_stable_across_instances(self):
        first = ShardedDecisionCache(num_shards=8, shard_capacity=4)
        second = ShardedDecisionCache(num_shards=8, shard_capacity=4)
        keys = [_key(index) for index in range(32)]
        assert [first.shard_index(k) for k in keys] == [
            second.shard_index(k) for k in keys
        ]
        # crc32 routing spreads keys across shards rather than piling
        # them into one (the property hash() salting would break).
        assert len({first.shard_index(k) for k in keys}) > 1

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            ShardedDecisionCache(num_shards=0)
        with pytest.raises(ValueError):
            ShardedDecisionCache(shard_capacity=0)


# ----------------------------------------------------------------------
# ShardedDecisionCache: persistence
# ----------------------------------------------------------------------
class TestCachePersistence:
    def test_snapshot_round_trip(self, tmp_path):
        cache_dir = str(tmp_path / "cc")
        writer = ShardedDecisionCache(cache_dir=cache_dir)
        writer.bind("token-a")
        for index in range(3):
            writer.put(_key(index), _names(index), _decision(float(index)))
        reader = ShardedDecisionCache(cache_dir=cache_dir)
        assert reader.bind("token-a") == 0
        assert reader.loaded == 3
        names, decision = reader.get(_key(1))
        assert names == _names(1)
        assert decision.expected_score == 1.0
        assert decision.mapping == _decision().mapping

    def test_token_mismatch_invalidates_snapshot(self, tmp_path):
        cache_dir = str(tmp_path / "cc")
        writer = ShardedDecisionCache(cache_dir=cache_dir)
        writer.bind("token-a")
        writer.put(_key(0), _names(0), _decision())
        reader = ShardedDecisionCache(cache_dir=cache_dir)
        assert reader.bind("token-b") == 0
        assert len(reader) == 0
        assert reader.stale_files == 1

    def test_corrupt_snapshot_quarantined(self, tmp_path):
        cache_dir = str(tmp_path / "cc")
        writer = ShardedDecisionCache(cache_dir=cache_dir)
        writer.bind("token-a")
        writer.put(_key(0), _names(0), _decision())
        snapshot = tmp_path / "cc" / "decisions.json"
        snapshot.write_text(snapshot.read_text()[:-20] + "garbled")
        reader = ShardedDecisionCache(cache_dir=cache_dir)
        assert reader.bind("token-a") == 1
        assert reader.corrupt_files == 1
        assert len(reader) == 0
        assert not snapshot.exists()
        assert (tmp_path / "cc" / "decisions.json.corrupt").exists()

    def test_discard_also_drops_from_snapshot(self, tmp_path):
        cache_dir = str(tmp_path / "cc")
        writer = ShardedDecisionCache(cache_dir=cache_dir)
        writer.bind("token-a")
        writer.put(_key(0), _names(0), _decision())
        writer.put(_key(1), _names(1), _decision())
        assert writer.discard(_key(0))
        reader = ShardedDecisionCache(cache_dir=cache_dir)
        reader.bind("token-a")
        assert reader.get(_key(0)) is None
        assert reader.get(_key(1)) is not None

    def test_rebinding_new_token_drops_entries(self):
        cache = ShardedDecisionCache()
        cache.bind("token-a")
        cache.put(_key(0), _names(0), _decision())
        cache.bind("token-b")  # retrained estimator mid-process
        assert len(cache) == 0

    def test_inspect_and_clear_cache_dir(self, tmp_path):
        cache_dir = str(tmp_path / "cc")
        writer = ShardedDecisionCache(cache_dir=cache_dir)
        writer.bind("token-a")
        writer.put(_key(0), _names(0), _decision())
        report = inspect_cache_dir(cache_dir)
        assert len(report["snapshots"]) == 1
        assert report["snapshots"][0]["status"] == "ok"
        assert report["snapshots"][0]["entries"] == 1
        json.dumps(report)  # the CLI prints it; must be JSON-safe
        assert clear_cache_dir(cache_dir) == 1
        assert inspect_cache_dir(cache_dir)["snapshots"] == []


class TestEstimatorCacheToken:
    def test_token_tracks_weight_state(self):
        network = Linear(4, 2, rng=np.random.default_rng(0))
        token = estimator_cache_token(network)
        assert token == estimator_cache_token(network)  # deterministic
        state = network.state_dict()
        network.load_state_dict(state)  # version bump, same weights
        assert estimator_cache_token(network) != token

    def test_different_weights_different_digest(self):
        first = Linear(4, 2, rng=np.random.default_rng(0))
        second = Linear(4, 2, rng=np.random.default_rng(1))
        digest = lambda n: estimator_cache_token(n).split("-", 1)[1]
        assert digest(first) != digest(second)


# ----------------------------------------------------------------------
# AsyncFrontDoor
# ----------------------------------------------------------------------
class TestAsyncFrontDoor:
    def test_window_size_one_is_identity(self):
        """The identity contract: window_size=1, fast path off ==
        calling schedule_many directly on a twin service."""
        requests = _requests()
        direct = _make_service().schedule_many(requests)
        fronted_service = _make_service()
        front = AsyncFrontDoor(fronted_service, window_size=1)
        pooled = front.serve(requests)
        for via_front, via_direct in zip(pooled, direct):
            assert via_front.mapping == via_direct.mapping
            assert via_front.expected_score == via_direct.expected_score
        assert front.stats.windows == len(requests)
        assert front.stats.flushes["full"] == len(requests)

    def test_windows_pool_and_results_match_direct(self):
        requests = _requests()
        direct = _make_service().schedule_many(requests)
        fronted_service = _make_service()
        front = AsyncFrontDoor(fronted_service, window_size=3)
        pooled = front.serve(requests)
        for via_front, via_direct in zip(pooled, direct):
            assert via_front.mapping == via_direct.mapping
        assert front.stats.requests == len(requests)
        assert front.stats.windows == 2
        assert front.stats.window_sizes == [3, 3]

    def test_partial_window_flushes_by_tick_count(self):
        requests = _requests()[:2]
        fronted_service = _make_service()
        front = AsyncFrontDoor(fronted_service, window_size=8, coalesce_ticks=4)
        responses = front.serve(requests)
        assert len(responses) == 2
        assert front.stats.windows == 1
        assert front.stats.window_sizes == [2]
        # The partial window closed on counted loop turns (or the
        # final drain) -- never a wall-clock deadline.
        assert front.stats.flushes["tick"] + front.stats.flushes["drain"] == 1

    def test_duplicate_mixes_in_one_window_dedupe(self):
        fronted_service = _make_service()
        front = AsyncFrontDoor(fronted_service, window_size=6)
        front.serve(_requests())
        stats = fronted_service.stats()
        # MIX_NAMES holds one exact and two permuted repeats.
        assert stats.cache_hits == 2
        assert stats.cache_misses == 4

    def test_unembeddable_request_fails_alone(self):
        """``resnet18`` is in the zoo but not in the estimator's
        embedding: only its future fails, and the other two requests
        get the mappings of a window that never held it."""
        valid = _requests()[:2]
        bad = ScheduleRequest(
            workload=Workload.from_names(["resnet18", "alexnet"]),
            request_id="bad",
        )
        expected = _make_service().schedule_many(valid)
        front = AsyncFrontDoor(_make_service(), window_size=3)

        async def run():
            return await asyncio.gather(
                *(front.submit(r) for r in (valid[0], bad, valid[1])),
                return_exceptions=True,
            )

        first, error, second = asyncio.run(run())
        assert isinstance(error, InvalidRequest)
        assert error.position == 1 and error.request is bad
        assert "resnet18" in error.reason
        for got, want in zip((first, second), expected):
            assert got.mapping == want.mapping
            assert got.expected_score == want.expected_score
        assert front.stats.windows == 1

    @pytest.mark.parametrize("position", [0, 2])
    def test_unembeddable_request_fails_alone_at_window_edges(self, position):
        valid = _requests()[:2]
        bad = ScheduleRequest(
            workload=Workload.from_names(["resnet18"]), request_id="bad"
        )
        window = list(valid)
        window.insert(position, bad)
        expected = _make_service().schedule_many(valid)
        front = AsyncFrontDoor(_make_service(), window_size=3)

        async def run():
            return await asyncio.gather(
                *(front.submit(r) for r in window), return_exceptions=True
            )

        results = asyncio.run(run())
        error = results.pop(position)
        assert isinstance(error, InvalidRequest)
        assert error.request is bad and error.position == position
        for got, want in zip(results, expected):
            assert got.mapping == want.mapping
            assert got.expected_score == want.expected_score

    def test_every_unembeddable_request_in_a_window_fails(self):
        """Two bad requests: each fails with its own error, and the one
        valid request is answered as if it had been alone."""
        valid = _requests()[0]
        first = ScheduleRequest(
            workload=Workload.from_names(["densenet121"]), request_id="first"
        )
        second = ScheduleRequest(
            workload=Workload.from_names(["resnet18"]), request_id="second"
        )
        expected = _make_service().schedule_many([valid])[0]
        service = _make_service()
        front = AsyncFrontDoor(service, window_size=3)

        async def run():
            return await asyncio.gather(
                *(front.submit(r) for r in (first, valid, second)),
                return_exceptions=True,
            )

        first_error, got, second_error = asyncio.run(run())
        assert first_error.request is first and "densenet121" in first_error.reason
        assert second_error.request is second and "resnet18" in second_error.reason
        assert got.mapping == expected.mapping
        assert service.stats().requests_served == 1
        assert front.stats.windows == 1

    def test_all_unembeddable_window_runs_no_search(self):
        service = _make_service()
        front = AsyncFrontDoor(service, window_size=2)
        bad = [
            ScheduleRequest(workload=Workload.from_names([name]), request_id=name)
            for name in ("resnet18", "efficientnet_b0")
        ]

        async def run():
            return await asyncio.gather(
                *(front.submit(r) for r in bad), return_exceptions=True
            )

        errors = asyncio.run(run())
        assert [error.request for error in errors] == bad
        assert all(isinstance(error, InvalidRequest) for error in errors)
        stats = service.stats()
        assert stats.requests_served == 0
        assert stats.pooled_eval_batches == 0

    @pytest.mark.parametrize(
        "error",
        [
            RuntimeError("search died"),
            # Names a request that is not the window's own entry at
            # that position, so it cannot be failed alone.
            InvalidRequest(
                0,
                ScheduleRequest(workload=Workload.from_names(["alexnet"])),
                "foreign",
            ),
        ],
        ids=["other-error", "foreign-invalid-request"],
    )
    def test_other_failures_fail_the_whole_window(self, error):
        class Failing:
            calls = 0

            def schedule_many(self, requests):
                Failing.calls += 1
                raise error

        front = AsyncFrontDoor(Failing(), window_size=2)

        async def run():
            return await asyncio.gather(
                *(front.submit(r) for r in _requests()[:2]),
                return_exceptions=True,
            )

        results = asyncio.run(run())
        assert results == [error, error]
        assert Failing.calls == 1

    def test_invalid_request_rejected_before_any_search(self):
        service = _make_service()
        bad = ScheduleRequest(workload=Workload.from_names(["resnet18"]))
        with pytest.raises(InvalidRequest) as raised:
            service.schedule_many(_requests()[:2] + [bad])
        assert raised.value.position == 2
        stats = service.stats()
        assert stats.requests_served == 0
        assert stats.cache_misses == 0
        assert stats.pooled_eval_batches == 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            AsyncFrontDoor(object(), window_size=0)
        with pytest.raises(ValueError):
            AsyncFrontDoor(object(), coalesce_ticks=0)


# ----------------------------------------------------------------------
# Cross-restart persistence through the service
# ----------------------------------------------------------------------
class TestServicePersistence:
    def test_restart_replays_with_zero_estimator_queries(self, tmp_path):
        cache_dir = str(tmp_path / "decisions")
        requests = _requests()
        first = _make_service(cache_dir=cache_dir)
        cold = first.schedule_many(requests)
        assert first.stats().cache_persisted > 0

        # "Restart": a fresh, identically-seeded process image bound
        # to the same cache_dir.  Every previously-decided mix must be
        # served from the snapshot without a single estimator forward.
        second = _make_service(cache_dir=cache_dir)
        warm = second.schedule_many(requests)
        stats = second.stats()
        assert stats.cache_hits == len(requests)
        assert stats.cache_misses == 0
        assert stats.estimator_queries == 0
        for warm_response, cold_response in zip(warm, cold):
            assert warm_response.mapping == cold_response.mapping
            assert warm_response.expected_score == cold_response.expected_score
        assert warm_response.cache_status == "hit"
