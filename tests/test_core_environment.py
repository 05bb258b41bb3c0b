"""Scheduling environment tests (states, actions, win/lose rules)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import MCTSConfig, MonteCarloTreeSearch, SchedulingEnv, SchedulingState
from repro.workloads import Workload


@pytest.fixture()
def small_env():
    return SchedulingEnv(Workload.from_names(["alexnet", "squeezenet"]), 3)


class TestEpisodeStructure:
    def test_reset_is_empty(self, small_env):
        state = small_env.reset()
        assert small_env.decisions_made(state) == 0
        assert small_env.current_dnn(state) == 0
        assert not small_env.is_terminal(state)

    def test_total_decisions_is_total_layers(self, small_env):
        assert small_env.total_decisions == 8 + 18

    def test_dnns_scheduled_in_order(self, small_env):
        state = small_env.reset()
        for _ in range(8):  # all of alexnet
            state = small_env.step(state, 0)
        assert small_env.current_dnn(state) == 1

    def test_complete_episode_reaches_win(self, small_env):
        state = small_env.reset()
        for _ in range(small_env.total_decisions):
            state = small_env.step(state, 1)
        assert small_env.is_complete(state)
        assert small_env.is_terminal(state)
        assert not small_env.is_losing(state)
        assert small_env.legal_actions(state) == []

    def test_step_after_completion_rejected(self, small_env):
        state = small_env.reset()
        for _ in range(small_env.total_decisions):
            state = small_env.step(state, 0)
        with pytest.raises(RuntimeError, match="completed"):
            small_env.step(state, 0)

    def test_action_range_checked(self, small_env):
        with pytest.raises(ValueError, match="out of range"):
            small_env.step(small_env.reset(), 3)

    def test_mapping_decoding(self, small_env):
        state = small_env.reset()
        for _ in range(small_env.total_decisions):
            state = small_env.step(state, 2)
        mapping = small_env.mapping(state)
        mapping.validate(small_env.workload.models, 3)
        assert mapping.devices_used() == (2,)

    def test_mapping_requires_completion(self, small_env):
        with pytest.raises(ValueError, match="incomplete"):
            small_env.mapping(small_env.reset())


class TestStageCapMasking:
    def test_actions_unrestricted_below_cap(self, small_env):
        state = small_env.reset()
        state = small_env.step(state, 0)
        assert small_env.legal_actions(state) == [0, 1, 2]

    def test_at_cap_only_continuation_legal(self):
        env = SchedulingEnv(Workload.from_names(["alexnet"]), 3, stage_cap=2)
        state = env.reset()
        state = env.step(state, 0)
        state = env.step(state, 1)  # second stage: at cap
        assert env.legal_actions(state) == [1]

    def test_masked_env_never_loses(self):
        env = SchedulingEnv(Workload.from_names(["alexnet"]), 3, stage_cap=2)
        state = env.reset()
        import numpy as np

        rng = np.random.default_rng(0)
        while not env.is_terminal(state):
            actions = env.legal_actions(state)
            state = env.step(state, actions[rng.integers(len(actions))])
        assert env.is_complete(state)
        assert env.mapping(state).max_stages <= 2

    def test_illegal_step_rejected_when_masked(self):
        env = SchedulingEnv(Workload.from_names(["alexnet"]), 3, stage_cap=1)
        state = env.step(env.reset(), 0)
        with pytest.raises(ValueError, match="illegal"):
            env.step(state, 1)


class TestLosingStates:
    def test_unmasked_env_reaches_losing_state(self):
        env = SchedulingEnv(
            Workload.from_names(["alexnet"]), 3, stage_cap=2, mask_illegal=False
        )
        state = env.reset()
        for action in (0, 1, 0):  # three stages > cap of 2
            state = env.step(state, action)
        assert env.is_losing(state)
        assert env.is_terminal(state)
        assert env.legal_actions(state) == []

    def test_last_decision_breaching_cap_is_losing_not_complete(self):
        env = SchedulingEnv(
            Workload.from_names(["alexnet", "squeezenet"]), 3, mask_illegal=False
        )
        state = env.reset()
        for action in [0] * 8 + [0] * 15 + [1, 2, 0]:  # 4th stage on the last layer
            state = env.step(state, action)
        assert env.current_dnn(state) is None
        assert env.is_losing(state)
        assert env.is_terminal(state)
        assert not env.is_complete(state)
        with pytest.raises(ValueError, match="losing"):
            env.mapping(state)

    def test_default_cap_is_device_count(self):
        env = SchedulingEnv(Workload.from_names(["alexnet"]), 3)
        assert env.stage_cap == 3

    def test_invalid_configuration_rejected(self):
        workload = Workload.from_names(["alexnet"])
        with pytest.raises(ValueError):
            SchedulingEnv(workload, 0)
        with pytest.raises(ValueError):
            SchedulingEnv(workload, 3, stage_cap=0)


class TestStateProperties:
    @given(st.lists(st.integers(0, 2), min_size=26, max_size=26))
    @example([0] * 8 + [0] * 15 + [1, 2, 0])
    @settings(max_examples=60, deadline=None)
    def test_unmasked_episode_always_terminates_classified(self, actions):
        env = SchedulingEnv(
            Workload.from_names(["alexnet", "squeezenet"]), 3, mask_illegal=False
        )
        state = env.reset()
        for action in actions:
            if env.is_terminal(state):
                break
            state = env.step(state, action)
        if env.is_complete(state):
            mapping = env.mapping(state)
            mapping.validate(env.workload.models, 3)
        # A terminal state is either complete or losing, never both.
        if env.is_terminal(state):
            assert env.is_complete(state) != env.is_losing(state)


# ----------------------------------------------------------------------
# Differential oracle: the from-scratch rules the incremental state and
# the fused playout replaced.
# ----------------------------------------------------------------------
def _stage_count(row):
    """Pipeline stages of a (possibly partial) assignment row."""
    if not row:
        return 0
    return 1 + sum(1 for a, b in zip(row, row[1:]) if a != b)


def _derive(env, assigned):
    """(current DNN, its stage count, losing) recomputed from ``assigned``."""
    counts = [model.num_layers for model in env.workload.models]
    dnn = next(
        (index for index, row in enumerate(assigned) if len(row) < counts[index]),
        None,
    )
    stages = _stage_count(assigned[dnn]) if dnn is not None else 0
    losing = any(_stage_count(row) > env.stage_cap for row in assigned if row)
    return dnn, stages, losing


def _derive_legal(env, assigned):
    dnn, _, losing = _derive(env, assigned)
    if dnn is None or losing:
        return []
    row = assigned[dnn]
    actions = list(range(env.num_devices))
    if not env.mask_illegal or not row:
        return actions
    if _stage_count(row) >= env.stage_cap:
        return [row[-1]]
    return actions


def _reference_rollout(env, assigned, rng, stay):
    """The per-step rollout loop, re-deriving the rules at every layer."""
    while True:
        dnn, _, losing = _derive(env, assigned)
        if dnn is None or losing:
            return assigned
        actions = _derive_legal(env, assigned)
        row = assigned[dnn]
        if row and row[-1] in actions and rng.random() < stay:
            action = row[-1]
        else:
            action = actions[int(rng.integers(len(actions)))]
        rows = list(assigned)
        rows[dnn] = row + (action,)
        assigned = tuple(rows)


DIFF_MIX = ["alexnet", "squeezenet", "mobilenet"]
DIFF_GRID = [
    (devices, cap, mask)
    for devices in (3, 4)
    for cap in (1, 2, 3, 4)
    for mask in (True, False)
]


def _random_prefix(env, rng, steps):
    """Step ``env`` from reset by up to ``steps`` random actions.

    Unmasked environments draw from every device, so prefixes reach
    losing states; every visited state is returned.
    """
    state = env.reset()
    visited = [state]
    for _ in range(steps):
        if env.is_terminal(state):
            break
        if env.mask_illegal:
            actions = env.legal_actions(state)
        else:
            actions = list(range(env.num_devices))
        state = env.step(state, actions[int(rng.integers(len(actions)))])
        visited.append(state)
    return visited


class TestIncrementalStateMatchesOracle:
    @pytest.mark.parametrize("devices,cap,mask", DIFF_GRID)
    def test_fields_match_from_scratch_derivation(self, devices, cap, mask):
        env = SchedulingEnv(
            Workload.from_names(DIFF_MIX), devices, stage_cap=cap, mask_illegal=mask
        )
        rng = np.random.default_rng(devices * 100 + cap * 10 + mask)
        for _ in range(12):
            for state in _random_prefix(env, rng, env.total_decisions):
                dnn, stages, losing = _derive(env, state.assigned)
                assert (state.dnn, state.stages, state.losing) == (dnn, stages, losing)
                assert env.current_dnn(state) == dnn
                assert env.is_losing(state) == losing
                assert env.is_complete(state) == (dnn is None and not losing)
                assert env.is_terminal(state) == (dnn is None or losing)
                assert env.legal_actions(state) == _derive_legal(env, state.assigned)

    def test_identity_ignores_derived_fields(self, small_env):
        state = small_env.step(small_env.reset(), 1)
        twin = SchedulingState(state.assigned, None, 7, True)
        assert twin == state
        assert hash(twin) == hash(state)
        assert twin.key() == state.key()


class TestFusedPlayoutMatchesReferenceLoop:
    @pytest.mark.parametrize("devices,cap,mask", DIFF_GRID)
    @pytest.mark.parametrize("stay", [0.85, 0.0])
    def test_same_terminal_state_and_rng_stream(self, devices, cap, mask, stay):
        env = SchedulingEnv(
            Workload.from_names(DIFF_MIX), devices, stage_cap=cap, mask_illegal=mask
        )
        prefix_rng = np.random.default_rng(devices * 100 + cap * 10 + mask)
        for seed in range(8):
            visited = _random_prefix(
                env, prefix_rng, int(prefix_rng.integers(env.total_decisions))
            )
            for start in (visited[0], visited[len(visited) // 2], visited[-1]):
                search = MonteCarloTreeSearch(
                    env,
                    lambda mapping: 0.0,
                    MCTSConfig(seed=seed, rollout_stay_prob=stay),
                )
                reference_rng = np.random.default_rng(seed)
                expected = _reference_rollout(
                    env, start.assigned, reference_rng, stay
                )
                final = search._rollout(start)
                assert final.assigned == expected
                assert (final.dnn, final.stages, final.losing) == _derive(
                    env, expected
                )
                assert (
                    search.rng.bit_generator.state
                    == reference_rng.bit_generator.state
                )
