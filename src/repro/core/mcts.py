"""Monte Carlo Tree Search over the scheduling environment (paper IV-C).

The classic four phases under a fixed computational budget:

1. **Selection** -- descend from the root by UCT while nodes are fully
   expanded;
2. **Expansion** -- attach one untried child of the selected node;
3. **Evaluation** -- random rollout from the new child to a leaf; a
   winning leaf's trajectory is scored by the throughput estimator
   (one query), a losing leaf receives the static loss reward;
4. **Back-propagation** -- the reward updates visit counts and value
   sums along the path.

The budget is the number of iterations (== scored rollouts for
winning trajectories); the paper uses 500 with search depth 100.  The
depth parameter caps how deep the *tree* may grow (nodes past it are
evaluated by rollout only); rollouts themselves always play to a
terminal state, otherwise mixes with more total layers than the depth
cap could never be scheduled.  The
search keeps the best complete trajectory seen anywhere and returns
its mapping -- the paper's "candidate state with the highest expected
reward".

Two run-time optimizations sit on top of the classic loop, both
*result*-neutral for deterministic evaluators:

* a **transposition cache** (on by default) keyed by the canonical
  mapping (mappings are value objects) short-circuits repeated
  rollout leaves so the estimator is queried once per distinct
  mapping -- rewards, tree statistics and the returned elite are
  identical to re-querying, but actual query counts drop (the
  ``MCTSResult`` counters record both views);
* **micro-batched evaluation** (``MCTSConfig.eval_batch_size``)
  defers winning rollouts and scores several leaves in one vectorized
  estimator call.  Deferred rollouts post a *virtual visit* along
  their path (the classic virtual-loss trick) so UCT selection keeps
  diversifying inside a micro-batch; rewards are backed up when the
  batch is flushed.  At the default ``eval_batch_size=1`` every
  rollout flushes immediately and the search is step-for-step
  identical to the paper's sequential loop, including the seeded RNG
  stream.

For *online* re-scheduling (a tenant arrives or departs and the mix
must be re-planned) the search additionally supports **warm starts**:
``search_steps(initial_mapping=...)`` scores a seed mapping — usually
the previous decision's mapping projected onto the surviving tenants —
before the budgeted loop and installs it as the incumbent.  The seed
is deliberately kept *out* of the tree, the RNG stream and the UCT
reward-normalization bounds, so at ``eval_batch_size=1`` the budgeted
loop is step-identical to a cold search; the returned elite is simply
``max(seed, cold trajectory)``, which guarantees a warm search never
returns a worse reward than its seed and returns the *identical*
result when seeded with the cold search's own elite.  Combined with
``patience`` (stop after that many consecutive iterations without an
incumbent improvement) a warm re-search converges in a fraction of the
cold budget — the mechanism :class:`repro.online.OnlineScheduler`
builds on.

The search itself is agnostic about *where* its rewards come from: it
maximizes whatever number the evaluation step hands back.
:func:`relay_steps` tags each yielded micro-batch with its workload —
the ``(workload, mappings)`` protocol that the engine's pooled drive
loop and :meth:`repro.online.OnlineScheduler.plan_steps` share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from ..sim.mapping import Mapping
from .environment import LOSS_REWARD, SchedulingEnv, SchedulingState

__all__ = [
    "MCTSConfig",
    "MCTSResult",
    "MCTSNode",
    "MonteCarloTreeSearch",
    "relay_steps",
]

#: An evaluation function: complete mapping -> scalar reward.
RewardFn = Callable[[Mapping], float]

#: A vectorized evaluation function: mappings -> rewards, one batched
#: estimator forward instead of ``len(mappings)`` scalar queries.
RewardBatchFn = Callable[[Sequence[Mapping]], Sequence[float]]


@dataclass(frozen=True)
class MCTSConfig:
    """Search hyper-parameters.

    ``budget`` and ``max_depth`` default to the paper's Section V
    settings (500 iterations, depth 100).  ``exploration`` is the UCT
    constant; ``seed`` drives all stochastic choices.  ``elite``
    selects how the final mapping is extracted: ``"max"`` returns the
    highest-reward trajectory seen anywhere, ``"mean-descent"`` walks
    the tree by expected reward first (a winner's-curse guard when the
    evaluator is noisy) and returns that subtree's best trajectory.

    ``eval_batch_size`` collects that many distinct winning rollouts
    before scoring them in one vectorized evaluator call; the default
    of 1 preserves the paper's strictly sequential semantics (and the
    exact seeded trajectory).  ``use_eval_cache`` enables the
    transposition cache over rollout leaves; with a deterministic
    evaluator the cache is result-identical and only saves queries, so
    it defaults to on.  Disable it for noisy evaluators where every
    rollout should draw a fresh sample.
    """

    budget: int = 500
    max_depth: int = 100
    exploration: float = 1.2
    rollout_stay_prob: float = 0.85
    elite: str = "max"
    seed: int = 0
    eval_batch_size: int = 1
    use_eval_cache: bool = True

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.exploration < 0:
            raise ValueError(f"exploration must be >= 0, got {self.exploration}")
        if not 0 <= self.rollout_stay_prob < 1:
            raise ValueError(
                f"rollout_stay_prob must be in [0, 1), got {self.rollout_stay_prob}"
            )
        if self.elite not in ("max", "mean-descent"):
            raise ValueError(
                f"elite must be 'max' or 'mean-descent', got {self.elite!r}"
            )
        if self.eval_batch_size < 1:
            raise ValueError(
                f"eval_batch_size must be >= 1, got {self.eval_batch_size}"
            )


class MCTSNode:
    """One tree node: a state plus UCT statistics.

    Besides the classic visit/value statistics each node remembers the
    best *complete* trajectory evaluated anywhere in its subtree, so
    elite extraction can descend by expected reward and still hand back
    a full mapping.
    """

    __slots__ = (
        "state",
        "parent",
        "action",
        "children",
        "untried",
        "visits",
        "value_sum",
        "best_reward",
        "best_mapping",
    )

    def __init__(
        self,
        state: SchedulingState,
        parent: Optional["MCTSNode"],
        action: Optional[int],
        untried: List[int],
    ) -> None:
        self.state = state
        self.parent = parent
        self.action = action
        self.children: Dict[int, MCTSNode] = {}
        self.untried = untried
        self.visits = 0
        self.value_sum = 0.0
        self.best_reward = -math.inf
        self.best_mapping: Optional[Mapping] = None

    @property
    def mean_value(self) -> float:
        """Average backed-up reward (0 before any visit)."""
        return self.value_sum / self.visits if self.visits else 0.0

    def is_fully_expanded(self) -> bool:
        return not self.untried

    def uct_child(
        self,
        exploration: float,
        reward_low: float,
        reward_high: float,
    ) -> "MCTSNode":
        """Child maximizing the UCT score.

        Mean values are min-max normalized by the reward range observed
        so far (``reward_low``/``reward_high``): the estimator returns
        physical inferences/second, whose scale varies per mix, and an
        un-normalized exploitation term would drown the exploration
        bonus.
        """
        log_visits = math.log(max(self.visits, 1))
        span = max(reward_high - reward_low, 1e-9)
        best_child = None
        best_score = -math.inf
        for child in self.children.values():
            if child.visits == 0:
                return child
            exploitation = (child.mean_value - reward_low) / span
            score = exploitation + exploration * math.sqrt(
                log_visits / child.visits
            )
            if score > best_score:
                best_score = score
                best_child = child
        if best_child is None:
            raise RuntimeError("uct_child called on a childless node")
        return best_child


@dataclass
class MCTSResult:
    """Outcome of one search.

    ``mapping`` is the elite trajectory's mapping; ``reward`` its
    estimator score.  ``iterations`` counts MCTS iterations,
    ``evaluations`` the scored winning rollouts (losing rollouts cost
    none), ``losing_rollouts`` how many rollouts died on the stage
    cap.  Scored rollouts split into ``cache_misses`` (actual
    evaluator queries) and ``cache_hits`` (rewards served by the
    transposition cache, costing no query):
    ``evaluations == cache_hits + cache_misses`` always, and with the
    cache disabled every evaluation is a miss.  ``eval_batches``
    counts vectorized evaluator calls (== ``cache_misses`` when
    ``eval_batch_size`` is 1).

    ``improvements`` records the search's *anytime* behaviour: one
    ``(iteration, reward, mapping)`` entry each time the incumbent
    (best complete trajectory so far) improved, with ``iteration``
    1-based.  Because the RNG stream consumed per iteration does not
    depend on the budget, a search with budget ``B`` and the same seed
    is exactly the first ``B`` iterations of a longer search -- so
    :meth:`incumbent_at` reproduces what any smaller budget would have
    returned, and incumbent reward is monotone in the budget.  (The
    prefix property is exact at ``eval_batch_size=1``; larger batches
    flush the final partial batch at the budget end, so the tail may
    differ between budgets.)

    Warm-started searches carry two extra fields: ``seed_reward`` is
    the evaluated reward of the ``initial_mapping`` (``None`` on cold
    searches; the seed evaluation also counts in ``evaluations`` and
    appears in ``improvements`` at iteration 0), and ``stopped_early``
    records whether a ``patience`` limit ended the loop before the
    budget — in which case ``iterations`` is the count actually run.
    """

    mapping: Mapping
    reward: float
    iterations: int
    evaluations: int
    losing_rollouts: int
    root_visits: int
    rewards_seen: List[float] = field(default_factory=list)
    improvements: List[Tuple[int, float, Mapping]] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    eval_batches: int = 0
    seed_reward: Optional[float] = None
    stopped_early: bool = False

    def incumbent_at(self, iteration: int) -> Tuple[Optional[Mapping], float]:
        """Best (mapping, reward) after the first ``iteration`` iterations.

        Returns ``(None, -inf)`` if no winning rollout had completed by
        then.  Only meaningful for ``elite="max"`` searches, where the
        returned mapping *is* the incumbent.
        """
        if iteration < 1:
            raise ValueError(f"iteration must be >= 1, got {iteration}")
        best: Tuple[Optional[Mapping], float] = (None, -math.inf)
        for when, reward, mapping in self.improvements:
            if when > iteration:
                break
            best = (mapping, reward)
        return best


class MonteCarloTreeSearch:
    """UCT search over a :class:`SchedulingEnv`."""

    def __init__(
        self,
        env: SchedulingEnv,
        reward_fn: RewardFn,
        config: Optional[MCTSConfig] = None,
        reward_batch_fn: Optional[RewardBatchFn] = None,
    ) -> None:
        self.env = env
        self.reward_fn = reward_fn
        self.reward_batch_fn = reward_batch_fn
        self.config = config or MCTSConfig()
        self.rng = np.random.default_rng(self.config.seed)
        self._reward_low = math.inf
        self._reward_high = -math.inf

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def search(
        self,
        initial_mapping: Optional[Mapping] = None,
        patience: Optional[int] = None,
    ) -> MCTSResult:
        """Run the budgeted search and return the elite mapping."""
        steps = self.search_steps(
            initial_mapping=initial_mapping, patience=patience
        )
        try:
            request = next(steps)
            while True:
                request = steps.send(self._evaluate_batch(request))
        except StopIteration as stop:
            return stop.value

    def search_steps(
        self,
        initial_mapping: Optional[Mapping] = None,
        patience: Optional[int] = None,
    ) -> "Generator[List[Mapping], Sequence[float], MCTSResult]":
        """The search as a coroutine that externalizes leaf evaluation.

        Yields the open micro-batch (a list of distinct complete
        mappings awaiting rewards) every time the search would have
        called the evaluator, and expects the matching reward list via
        ``send()``.  The generator's return value is the
        :class:`MCTSResult`.  :meth:`search` drives this with the
        wired reward functions; a scheduling service can instead drive
        several searches at once and score their pending leaves in one
        pooled evaluator call — with a deterministic evaluator the
        trajectory is identical either way, because each step consumes
        exactly the rewards it would have computed itself.

        ``initial_mapping`` warm-starts the search: the seed mapping is
        scored first (one evaluation, yielded as its own micro-batch)
        and installed as the incumbent — and, when the transposition
        cache is on, as a cache entry, so rollouts that rediscover it
        cost no query.  The seed touches neither the tree, the RNG
        stream nor the reward-normalization bounds: at
        ``eval_batch_size=1`` the budgeted loop is step-identical to a
        cold search, so the result is ``max(seed, cold trajectory)`` —
        never worse than the seed, and identical to the cold search
        when seeded with that search's own elite.  The seed must map
        exactly this environment's workload (and respect its stage
        cap); a mismatch raises :class:`ValueError` before any
        evaluation, which callers use as the cold-search fallback
        trigger.

        ``patience`` stops the loop once that many consecutive
        iterations pass without an incumbent improvement (the seed
        counts as iteration 0).  With micro-batching, improvements
        settle at flush time, so reaching the patience threshold first
        flushes the open micro-batch and re-checks — deferred
        improvements still reset the counter, and a stop only fires on
        truly stale state.
        """
        env = self.env
        config = self.config
        if patience is not None and patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        if initial_mapping is not None:
            self._validate_seed(initial_mapping)
        root_state = env.reset()
        root = MCTSNode(root_state, None, None, env.legal_actions(root_state))
        best_mapping: Optional[Mapping] = None
        best_reward = -math.inf
        evaluations = 0
        losing = 0
        cache_hits = 0
        cache_misses = 0
        eval_batches = 0
        rewards_seen: List[float] = []
        improvements: List[Tuple[int, float, Mapping]] = []
        self._reward_low = math.inf
        self._reward_high = -math.inf

        #: Transposition table: canonical mapping -> evaluator reward.
        cache: Dict[Mapping, float] = {}
        #: Deferred winning rollouts awaiting one batched evaluation:
        #: (mapping, [(iteration, leaf node), ...]) in first-seen order.
        pending: List[Tuple[Mapping, List[Tuple[int, MCTSNode]]]] = []
        pending_index: Dict[Mapping, int] = {}
        #: Cache hits observed while a batch is open; settled together
        #: with the batch so improvements stay in iteration order.
        resolved: List[Tuple[int, MCTSNode, Mapping, float]] = []

        last_improved = 0
        seed_reward: Optional[float] = None

        def settle(
            iteration: int, node: MCTSNode, mapping: Mapping, reward: float
        ) -> None:
            """Account one scored rollout whose visits are already posted."""
            nonlocal evaluations, best_mapping, best_reward, last_improved
            evaluations += 1
            rewards_seen.append(reward)
            self._reward_low = min(self._reward_low, reward)
            self._reward_high = max(self._reward_high, reward)
            if reward > best_reward:
                best_reward = reward
                best_mapping = mapping
                improvements.append((iteration, reward, mapping))
                last_improved = max(last_improved, iteration)
            walk: Optional[MCTSNode] = node
            while walk is not None:
                walk.value_sum += reward
                if reward > walk.best_reward:
                    walk.best_reward = reward
                    walk.best_mapping = mapping
                walk = walk.parent

        def drain(rewards: Sequence[float]) -> None:
            """Settle the open micro-batch (scored externally) in iteration order."""
            entries = list(resolved)
            resolved.clear()
            if pending:
                for (mapping, waiters), reward in zip(pending, rewards):
                    reward = float(reward)
                    if config.use_eval_cache:
                        cache[mapping] = reward
                    for when, waiter in waiters:
                        entries.append((when, waiter, mapping, reward))
                pending.clear()
                pending_index.clear()
            entries.sort(key=lambda entry: entry[0])
            for when, waiter, mapping, reward in entries:
                settle(when, waiter, mapping, reward)

        if initial_mapping is not None:
            # Score the seed as iteration 0.  It becomes the incumbent
            # (and a cache entry) but deliberately does NOT touch the
            # tree, the RNG stream or the reward-normalization bounds:
            # the budgeted loop below stays step-identical to a cold
            # search at eval_batch_size=1.
            eval_batches += 1
            cache_misses += 1
            evaluations += 1
            seed_reward = float((yield [initial_mapping])[0])
            rewards_seen.append(seed_reward)
            best_mapping = initial_mapping
            best_reward = seed_reward
            improvements.append((0, seed_reward, initial_mapping))
            if config.use_eval_cache:
                cache[initial_mapping] = seed_reward

        iterations_run = 0
        stopped_early = False
        for iteration in range(1, config.budget + 1):
            if patience is not None and iteration - last_improved > patience:
                # Deferred rollouts may hold unsettled improvements:
                # flush the open micro-batch before deciding, so a
                # stop only ever fires on truly stale state.
                if pending:
                    eval_batches += 1
                    drain((yield [m for m, _ in pending]))
                if iteration - last_improved > patience:
                    stopped_early = True
                    break
            iterations_run = iteration
            node = self._select(root)
            node = self._expand(node)
            final_state = self._rollout(node.state)
            if env.is_complete(final_state):
                mapping = env.mapping(final_state)
                self._post_virtual_visit(node)
                if config.use_eval_cache and mapping in cache:
                    cache_hits += 1
                    if pending:
                        resolved.append(
                            (iteration, node, mapping, cache[mapping])
                        )
                    else:
                        settle(iteration, node, mapping, cache[mapping])
                elif config.use_eval_cache and mapping in pending_index:
                    # Same leaf twice inside one micro-batch: attach the
                    # rollout to the queued query instead of re-asking.
                    cache_hits += 1
                    pending[pending_index[mapping]][1].append(
                        (iteration, node)
                    )
                else:
                    cache_misses += 1
                    if config.use_eval_cache:
                        pending_index[mapping] = len(pending)
                    pending.append((mapping, [(iteration, node)]))
                    if len(pending) >= config.eval_batch_size:
                        eval_batches += 1
                        drain((yield [m for m, _ in pending]))
            else:
                reward = LOSS_REWARD
                losing += 1
                self._reward_low = min(self._reward_low, reward)
                self._backpropagate(node, reward, None)
        if pending:
            eval_batches += 1
            drain((yield [m for m, _ in pending]))
        else:
            drain(())

        if self.config.elite == "mean-descent":
            elite_mapping, elite_reward = self._extract_elite(root)
            if elite_mapping is not None:
                best_mapping = elite_mapping
                best_reward = elite_reward

        if best_mapping is None:
            # Every rollout lost (possible only with masking disabled
            # and a tiny budget); fall back to the single-stage mapping
            # on device 0 so callers always get a valid schedule.
            best_mapping = Mapping(
                [[0] * model.num_layers for model in env.workload.models]
            )
            best_reward = LOSS_REWARD
        return MCTSResult(
            mapping=best_mapping,
            reward=best_reward,
            iterations=iterations_run,
            evaluations=evaluations,
            losing_rollouts=losing,
            root_visits=root.visits,
            rewards_seen=rewards_seen,
            improvements=improvements,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            eval_batches=eval_batches,
            seed_reward=seed_reward,
            stopped_early=stopped_early,
        )

    def _validate_seed(self, mapping: Mapping) -> None:
        """Reject a warm-start seed that does not fit this environment.

        Raised *before* any evaluation, so callers can use the error as
        their cold-search fallback trigger.
        """
        mapping.validate(self.env.workload.models, self.env.num_devices)
        if mapping.max_stages > self.env.stage_cap:
            raise ValueError(
                f"seed mapping uses {mapping.max_stages} stages, over the "
                f"environment's cap of {self.env.stage_cap}"
            )

    def _evaluate_batch(self, mappings: Sequence[Mapping]) -> List[float]:
        """Score a micro-batch, vectorized when a batch fn is wired."""
        if self.reward_batch_fn is not None:
            return [float(value) for value in self.reward_batch_fn(mappings)]
        return [float(self.reward_fn(mapping)) for mapping in mappings]

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def _select(self, node: MCTSNode) -> MCTSNode:
        """Descend by UCT until a not-fully-expanded or terminal node.

        A terminal state has no legal actions, so its node has nothing
        untried and no children: the descent stops there by itself.
        """
        low = self._reward_low if self._reward_low < math.inf else 0.0
        high = self._reward_high if self._reward_high > -math.inf else 1.0
        while node.is_fully_expanded() and node.children:
            node = node.uct_child(self.config.exploration, low, high)
        return node

    def _expand(self, node: MCTSNode) -> MCTSNode:
        """Attach one untried child.

        No-op on terminal nodes (nothing untried) and at the tree-depth
        cap.
        """
        if not node.untried:
            return node
        if self.env.decisions_made(node.state) >= self.config.max_depth:
            return node
        index = int(self.rng.integers(len(node.untried)))
        action = node.untried.pop(index)
        child_state = self.env.step(node.state, action)
        child = MCTSNode(
            child_state,
            node,
            action,
            self.env.legal_actions(child_state),
        )
        node.children[action] = child
        return child

    def _rollout(self, state: SchedulingState) -> SchedulingState:
        """Biased random playout to a terminal state.

        With probability ``rollout_stay_prob`` the playout keeps the
        current DNN on its present device (extending the stage); a
        uniform choice over legal actions otherwise.  Uniform per-layer
        choices would place almost every stage boundary within the
        first few layers (the chance of *never* switching across n
        layers is (1/3)^n), which is a terrible proposal distribution;
        the stay bias makes split points roughly uniform over depth,
        matching the set-ups the paper's motivational experiment
        samples.
        """
        rng = self.rng
        stay = self.config.rollout_stay_prob

        def choose(last: Optional[int], actions: Sequence[int]) -> int:
            if last is not None and rng.random() < stay:
                return last
            return actions[int(rng.integers(len(actions)))]

        return self.env.playout(state, choose)

    @staticmethod
    def _post_virtual_visit(node: Optional[MCTSNode]) -> None:
        """Count a deferred rollout's visit along its path (virtual loss).

        Deferred rollouts post their visit immediately and their value
        at flush time (:func:`settle` adds ``value_sum`` only).  Inside
        an open micro-batch the extra visits depress the pending path's
        UCT score, steering subsequent selections elsewhere -- without
        them every iteration of a batch would descend to the same leaf.
        """
        while node is not None:
            node.visits += 1
            node = node.parent

    @staticmethod
    def _backpropagate(
        node: Optional[MCTSNode],
        reward: float,
        mapping: Optional[Mapping],
    ) -> None:
        while node is not None:
            node.visits += 1
            node.value_sum += reward
            if mapping is not None and reward > node.best_reward:
                node.best_reward = reward
                node.best_mapping = mapping
            node = node.parent

    @staticmethod
    def _extract_elite(root: MCTSNode) -> Tuple[Optional[Mapping], float]:
        """Elite trajectory: descend by expected reward, then take the
        subtree's best evaluated completion.

        The paper fetches "the candidate state with the highest
        expected reward" -- node means, which average many rollout
        evaluations and are therefore far less exposed to single-query
        estimator error than the raw global maximum (a winner's-curse
        guard).
        """
        node = root
        while node.children:
            # Only trust means backed by enough rollouts; below that the
            # subtree statistics are noise and the descent stops.
            trusted = [
                child
                for child in node.children.values()
                if child.visits >= 16 and child.best_mapping is not None
            ]
            if not trusted:
                break
            node = max(trusted, key=lambda child: child.mean_value)
        return node.best_mapping, node.best_reward


def relay_steps(workload, steps):
    """Adapt ``search_steps`` yields to the (workload, mappings) protocol.

    A generator that forwards each micro-batch of ``steps`` as
    ``(workload, mappings)``, sends the rewards back and returns the
    search's :class:`MCTSResult`.
    """
    try:
        batch = next(steps)
        while True:
            rewards = yield (workload, list(batch))
            batch = steps.send(rewards)
    except StopIteration as stop:
        return stop.value
