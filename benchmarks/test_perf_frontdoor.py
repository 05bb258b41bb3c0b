"""PERF-FRONTDOOR -- persistent decision-cache replay costs no forwards.

A service restarted onto the same ``cache_dir`` replays every
previously-decided Fig.-5 mix with **zero** full-estimator forwards,
serving the same mappings and scores as the cold run.  The gate is
count-based (RPR003): the count is deterministic for the pinned seeds
and the committed estimator checkpoint.
"""

import os

from conftest import CACHE_DIR, DEPLOY_EPOCHS, DEPLOY_SAMPLES, SYSTEM_SEED
from fig5_common import paper_mixes

from repro import SystemBuilder
from repro.core import MCTSConfig, ScheduleRequest
from repro.service import SchedulingService

BUDGET = 500
CHECKPOINT = os.path.join(
    CACHE_DIR,
    f"estimator_s{DEPLOY_SAMPLES}_e{DEPLOY_EPOCHS}_seed{SYSTEM_SEED}.npz",
)


def _service(**kwargs) -> SchedulingService:
    builder = (
        SystemBuilder(seed=SYSTEM_SEED)
        .with_mcts_config(MCTSConfig(budget=BUDGET, seed=SYSTEM_SEED))
        .with_estimator(train=False)
    )
    service = SchedulingService(builder, **kwargs)
    service._scheduler_instance().estimator.load(CHECKPOINT)
    return service


def test_persistent_replay_pays_zero_forwards(
    benchmark, paper_system, tmp_path
):
    """Cross-restart cache reuse: a previously-decided trace replays
    with zero full-estimator forwards."""
    del paper_system
    cache_dir = str(tmp_path / "decisions")
    requests = [
        ScheduleRequest(workload=mix, request_id=str(index))
        for index, mix in enumerate(paper_mixes(3))
    ]

    first = _service(cache_dir=cache_dir)
    cold = first.schedule_many(requests)
    assert first.stats().cache_persisted > 0

    second = _service(cache_dir=cache_dir)
    second_estimator = second._scheduler_instance().estimator
    second_estimator.reset_query_count()
    warm = benchmark.pedantic(
        second.schedule_many, args=(requests,), rounds=1, iterations=1
    )

    stats = second.stats()
    print(
        f"\n[FRONTDOOR] replay: {stats.cache_hits} hits, "
        f"{second_estimator.query_count} full forwards"
    )
    assert stats.cache_hits == len(requests)
    assert second_estimator.query_count == 0  # the zero-forward gate
    for warm_response, cold_response in zip(warm, cold):
        assert warm_response.mapping == cold_response.mapping
        assert warm_response.expected_score == cold_response.expected_score
