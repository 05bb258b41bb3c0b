"""The scheduling environment: states, actions, rewards (paper IV-C).

A Gym-like episodic environment over partial mappings:

* **State** -- the per-layer device assignments made so far, in
  decision order: DNNs are scheduled one after another; within a DNN,
  the first decision pins layer 1 (conceptually the whole network, as
  the paper notes), then layers 2..n are assigned one by one.
* **Action** -- a device id (3 actions on HiKey970, one per computing
  component).
* **Terminal states** -- *losing* when a DNN's pipeline exceeds the
  stage cap (``x`` = number of computing components), which the paper
  penalizes to avoid redundant pipeline stages and their data
  transfers; *winning* when every layer of every DNN is assigned and
  the state is not losing.  The last decision of an episode can open a
  cap-breaking stage, so a fully assigned state may still be losing;
  losing dominates.

Two enforcement modes for the stage cap exist because the ablation
benches compare them: ``mask_illegal=True`` (default) removes
cap-violating actions from the legal set, so rollouts always reach a
winning state; ``False`` reproduces the paper's formulation verbatim,
where violating actions lead to losing leaves with a static penalty.

A state carries what the rules need to know about it -- the DNN
receiving the next decision, that row's stage count and whether the
state is losing -- so :meth:`SchedulingEnv.step` updates them in O(1)
and every query is a field read.  :meth:`SchedulingEnv.playout` plays
a whole episode tail on one mutable row, which is how MCTS rollouts
run: one ``choose`` call per layer and one state at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..sim.mapping import Mapping
from ..workloads.mix import Workload

__all__ = ["SchedulingState", "SchedulingEnv", "LOSS_REWARD", "WIN_BONUS"]

#: Static reward of a losing leaf (paper: "exceptionally" bad).
LOSS_REWARD = -1.0
#: Additive bonus of reaching a winning (complete) state, on top of the
#: estimator's throughput reward.
WIN_BONUS = 0.0

#: A playout policy: ``(last, actions) -> action``.  ``last`` is the
#: device of the current DNN's previous layer (``None`` on its first
#: layer); ``actions`` are the legal device ids, ``last`` among them.
ChooseFn = Callable[[Optional[int], Sequence[int]], int]


@dataclass(frozen=True)
class SchedulingState:
    """An immutable partial assignment.

    ``assigned`` stores one tuple of device ids per DNN; the DNN under
    construction is the first whose tuple is shorter than its layer
    count.  Identity (equality, hashing, :meth:`key`) is ``assigned``
    alone.  The other fields are derived from it by the
    :class:`SchedulingEnv` that built the state: ``dnn`` is the index
    of the DNN receiving the next decision (``None`` once every layer
    is assigned), ``stages`` the pipeline stage count of that DNN's row
    so far (0 when it is empty or ``dnn`` is ``None``), and ``losing``
    whether some row exceeds the stage cap.
    """

    assigned: Tuple[Tuple[int, ...], ...]
    dnn: Optional[int] = field(compare=False)
    stages: int = field(compare=False)
    losing: bool = field(compare=False)

    def key(self) -> Tuple[Tuple[int, ...], ...]:
        """Hashable identity of the state (used by tree nodes)."""
        return self.assigned


class SchedulingEnv:
    """Episodic environment the MCTS explores.

    Parameters
    ----------
    workload:
        The mix to schedule.
    num_devices:
        Number of computing components (= action count).
    stage_cap:
        Maximum pipeline stages per DNN before a state is losing.
        Defaults to ``num_devices`` as in the paper.
    mask_illegal:
        If True, actions that would breach the stage cap are simply not
        legal; if False they are legal but lead to losing states.
    """

    def __init__(
        self,
        workload: Workload,
        num_devices: int,
        stage_cap: Optional[int] = None,
        mask_illegal: bool = True,
    ) -> None:
        if num_devices < 1:
            raise ValueError(f"num_devices must be >= 1, got {num_devices}")
        self.workload = workload
        self.num_devices = num_devices
        self.stage_cap = stage_cap if stage_cap is not None else num_devices
        if self.stage_cap < 1:
            raise ValueError(f"stage_cap must be >= 1, got {self.stage_cap}")
        self.mask_illegal = mask_illegal
        self._layer_counts = tuple(model.num_layers for model in workload.models)
        self._actions = tuple(range(num_devices))
        self._stay_only = tuple((device,) for device in range(num_devices))

    # ------------------------------------------------------------------
    # Episode protocol
    # ------------------------------------------------------------------
    def reset(self) -> SchedulingState:
        """The empty assignment."""
        return SchedulingState(
            tuple(() for _ in self._layer_counts), self._next_dnn(0), 0, False
        )

    @property
    def total_decisions(self) -> int:
        """Episode length: one decision per layer of every DNN."""
        return sum(self._layer_counts)

    def decisions_made(self, state: SchedulingState) -> int:
        return sum(len(row) for row in state.assigned)

    def current_dnn(self, state: SchedulingState) -> Optional[int]:
        """Index of the DNN receiving the next decision (None if done)."""
        return state.dnn

    def is_complete(self, state: SchedulingState) -> bool:
        """Winning state: every layer assigned and no stage cap breached."""
        return state.dnn is None and not state.losing

    def is_losing(self, state: SchedulingState) -> bool:
        """Losing state: some DNN exceeds the stage cap."""
        return state.losing

    def is_terminal(self, state: SchedulingState) -> bool:
        return state.dnn is None or state.losing

    def legal_actions(self, state: SchedulingState) -> List[int]:
        """Device ids playable from ``state``.

        With masking on, a DNN already at the stage cap may only keep
        extending its current stage (continuing on the same device).
        """
        return list(self._legal(state))

    def step(self, state: SchedulingState, action: int) -> SchedulingState:
        """Assign the next layer of the current DNN to ``action``."""
        if not 0 <= action < self.num_devices:
            raise ValueError(
                f"action {action} out of range for {self.num_devices} devices"
            )
        dnn = state.dnn
        if dnn is None:
            raise RuntimeError("cannot step a completed episode")
        row = state.assigned[dnn]
        if self.mask_illegal and action not in self._legal(state):
            raise ValueError(
                f"action {action} is illegal in this state (stage cap "
                f"{self.stage_cap})"
            )
        stages = state.stages if row and row[-1] == action else state.stages + 1
        losing = state.losing or stages > self.stage_cap
        rows = list(state.assigned)
        rows[dnn] = row + (action,)
        if len(rows[dnn]) == self._layer_counts[dnn]:
            dnn, stages = self._next_dnn(dnn + 1), 0
        return SchedulingState(tuple(rows), dnn, stages, losing)

    def playout(self, state: SchedulingState, choose: ChooseFn) -> SchedulingState:
        """Play ``state`` to a terminal state, asking ``choose`` per layer.

        Equivalent to ``while not is_terminal(state): state =
        step(state, choose(last, legal_actions(state)))``, with ``last``
        the current row's final device (``None`` on an empty row), but
        extends one mutable row and builds a single state at the end.
        """
        cap = self.stage_cap
        mask = self.mask_illegal
        everything = self._actions
        stay_only = self._stay_only
        rows = list(state.assigned)
        dnn, stages, losing = state.dnn, state.stages, state.losing
        while dnn is not None and not losing:
            row = list(rows[dnn])
            last = row[-1] if row else None
            count = self._layer_counts[dnn]
            for _ in range(count - len(row)):
                if last is None:
                    action = choose(None, everything)
                    stages = 1
                else:
                    legal = stay_only[last] if mask and stages >= cap else everything
                    action = choose(last, legal)
                    if action != last:
                        stages += 1
                row.append(action)
                last = action
                if stages > cap:
                    losing = True
                    break
            rows[dnn] = tuple(row)
            if len(row) == count:
                dnn, stages = self._next_dnn(dnn + 1), 0
        return SchedulingState(tuple(rows), dnn, stages, losing)

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def mapping(self, state: SchedulingState) -> Mapping:
        """The complete mapping of a winning state."""
        if not self.is_complete(state):
            raise ValueError(
                "cannot decode a mapping from an incomplete or losing state"
            )
        return Mapping(state.assigned)

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    def _next_dnn(self, start: int) -> Optional[int]:
        """First DNN from ``start`` on that still has layers to assign.

        Rows fill in order, so every row from ``start`` on is empty.
        """
        for index in range(start, len(self._layer_counts)):
            if self._layer_counts[index]:
                return index
        return None

    def _legal(self, state: SchedulingState) -> Sequence[int]:
        """The legal actions as a shared tuple (callers must not mutate)."""
        if state.dnn is None or state.losing:
            return ()
        if self.mask_illegal and state.stages >= self.stage_cap:
            return self._stay_only[state.assigned[state.dnn][-1]]
        return self._actions
