"""PERF-SEARCH -- host work of one 500-query scheduling decision.

The paper prices a decision by its ~500 estimator queries (Section
V-B), but on the host most of a decision's time used to go to the
scheduling environment: every rollout step re-derived the current DNN,
the stage count and the losing flag from scratch, so a rollout cost
O(L^2) in the mix's layer count and one decision made ~420k calls to
the public ``SchedulingEnv`` methods.  ``SchedulingState`` now carries
those facts, and a rollout is one fused ``SchedulingEnv.playout``.

For one decision on every Fig.-5 mix (five mixes each of 3, 4 and 5
DNNs, the paper deployment's estimator and MCTS seed) this bench
gates, by count (rule RPR003):

* calls to the five public ``SchedulingEnv`` methods
  (``step``, ``legal_actions``, ``is_terminal``, ``is_losing``,
  ``current_dnn``) -- at most 10 per budgeted query;
* top-level ``Module.train``/``Module.eval`` calls while serving --
  none (the estimator stays in eval mode);
* the estimator queries and the chosen mapping -- equal to the values
  pinned before the rewrite, so the speed-up changed no decision.

Wall time is printed for context only.
"""

import time

import pytest

from repro.core import SchedulingEnv
from repro.nn.layers import Module

from fig5_common import paper_mixes

BUDGET = 500
#: Environment calls allowed per budgeted estimator query.
ENV_CALLS_PER_QUERY = 10
ENV_METHODS = ("step", "legal_actions", "is_terminal", "is_losing", "current_dnn")

#: (size, index) -> (repr of the chosen mapping, estimator_queries,
#: estimator_queries_actual), pinned from the per-step rollout loop.
PINNED = {
    (3, 0): ("Mapping(2100000000000000000; 111111110000011111; 00000000000000000)", 500, 500),
    (3, 1): ("Mapping(2122222222222222; 0000000000001111111; 022000000000000000)", 500, 500),
    (3, 2): ("Mapping(01000000000000000; 201111111111111111; 222222222222222222)", 500, 500),
    (3, 3): ("Mapping(01000000000000000000000; 100000111111111111; 11222222)", 500, 496),
    (3, 4): ("Mapping(222222221111111222; 0000000000000112222; 221111111111111110)", 500, 500),
    (4, 0): ("Mapping(01000000000000000000000; 2222222222002222222222222222; 00000000000000000000000000000001111; 111111111111111110)", 500, 500),
    (4, 1): ("Mapping(112111111111111111; 00000000000002222222222; 0000000000000; 1111111111111111111111111111)", 500, 500),
    (4, 2): ("Mapping(000000000000000000; 1111111111111111111; 00000000002221111; 000000000000000000)", 500, 500),
    (4, 3): ("Mapping(101111111111111111; 011111111111122222; 00002222222222000000000; 0000000000000000000)", 500, 500),
    (4, 4): ("Mapping(0110000000000; 00000000000000000001000; 111111111111111111; 00000000000011110000000000000000000)", 500, 500),
    (5, 0): ("Mapping(1111111111111111111; 00000111111111111100000000000000000; 110000000000000000; 2222222222222222222222221111; 0000000000000)", 500, 500),
    (5, 1): ("Mapping(0100000000000000000; 010000000000000000; 11111111111112000; 00000000; 000000000001111111)", 500, 500),
    (5, 2): ("Mapping(1101111111111111111; 000000000000000000; 000000000000000001; 000000000000000000; 2222222222222)", 500, 500),
    (5, 3): ("Mapping(1211111111111111; 222222222200000000; 2222222220000000111; 11111110000000111111111; 2000000000000)", 500, 500),
    (5, 4): ("Mapping(0110000000000000000000000000; 11111111111111111111100000000000000; 110000000000000000; 1111111111111100000; 00000000000000000)", 500, 500),
}


@pytest.fixture()
def counters(monkeypatch):
    """Count environment calls and top-level train/eval toggles."""
    counts = {"env": 0, "toggles": 0}
    for name in ENV_METHODS:
        original = getattr(SchedulingEnv, name)

        def counted(self, *args, _original=original, **kwargs):
            counts["env"] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(SchedulingEnv, name, counted)
    depth = [0]
    for name in ("train", "eval"):
        original = getattr(Module, name)

        def toggled(module, _original=original):
            if depth[0] == 0:
                counts["toggles"] += 1
            depth[0] += 1
            try:
                return _original(module)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(Module, name, toggled)
    return counts


@pytest.mark.parametrize("size,index", sorted(PINNED))
def test_decision_env_calls_and_mode_toggles(paper_system, counters, size, index):
    scheduler = paper_system.omniboost
    assert scheduler.config.budget == BUDGET
    mix = paper_mixes(size)[index]
    start = time.perf_counter()  # repro: lint-ignore[RPR002] -- informational host timing, not gated
    decision = scheduler.schedule(mix)
    elapsed = time.perf_counter() - start  # repro: lint-ignore[RPR002] -- informational host timing, not gated
    print(
        f"\n[perf-search] {size}-DNN mix {index}: {counters['env']} env calls, "
        f"{counters['toggles']} mode toggles, {elapsed:.2f} s"
    )
    mapping, queries, actual = PINNED[(size, index)]
    assert repr(decision.mapping) == mapping
    assert decision.cost["estimator_queries"] == queries
    assert decision.cost["estimator_queries_actual"] == actual
    assert counters["env"] <= ENV_CALLS_PER_QUERY * BUDGET
    assert counters["toggles"] == 0
