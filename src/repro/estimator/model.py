"""The throughput estimator: masked embedding tensor in, 3 rates out.

Wraps the 20,044-parameter ResNet9 backbone with the embedding space
(input rendering) and the target transform (output denormalization),
exposing the two calls the rest of the framework needs:

* :meth:`predict_throughput` -- physical per-device inferences/second
  for a complete mapping (Fig. 3 end to end);
* :meth:`reward` -- the scalar MCTS reward: the predicted expected
  system throughput (Section IV-C).

Every call counts queries, because the paper's run-time analysis
(Section V-B) reasons in estimator queries (500 per scheduling
decision).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..nn.inference import InferencePlan, PlanCompileError, compile_resnet9
from ..nn.resnet9 import ResNet9
from ..nn.tensor import Tensor, no_grad
from ..sim.mapping import Mapping
from ..workloads.mix import Workload
from .embedding import EmbeddingSpace
from .preprocessing import TargetTransform

__all__ = ["EstimatorFault", "ThroughputEstimator"]


class EstimatorFault(RuntimeError):
    """The estimator produced (or was injected with) non-finite output.

    A NaN/Inf prediction must never reach MCTS reward ordering: NaN
    comparisons are all false, so a single poisoned evaluation silently
    corrupts UCT child selection instead of failing.  The throughput
    path therefore guards every denormalized batch with ``isfinite``
    and raises this typed fault, which the serving engine's degradation
    ladder (:mod:`repro.resilience`) catches to step down to a safer
    decision tier.
    """


class ThroughputEstimator:
    """CNN predictor of per-component throughput under a mapping.

    Inference runs through a compiled :class:`~repro.nn.inference.InferencePlan`
    by default (``use_compiled=True``): the eval-mode backbone is
    captured once into raw-numpy kernel steps (BatchNorm folded,
    conv+GELU fused, preallocated arenas) and every query executes
    that plan — same predictions within tight tolerance, several times
    faster.  The plan compiles lazily on the first eval-mode query and
    invalidates automatically when the backbone's weights change
    (training-mode forwards and ``load_state_dict()`` bump
    :attr:`~repro.nn.layers.Module.version`); call
    :meth:`invalidate_plan` after any out-of-band in-place weight
    write.  One known window: a query issued *between* ``backward()``
    and ``optimizer.step()`` snapshots pre-step weights and the step
    itself does not bump the version — the snapshot refreshes at the
    next training forward, or immediately via :meth:`invalidate_plan`.
    Set ``use_compiled=False`` to fall back to the autograd
    interpreter — bit-for-bit the historical path; a backbone the
    compiler cannot capture falls back automatically
    (:class:`~repro.nn.inference.PlanCompileError` flips
    ``use_compiled`` off).
    """

    def __init__(
        self,
        embedding: EmbeddingSpace,
        backbone: Optional[ResNet9] = None,
        target_transform: Optional[TargetTransform] = None,
        rng: Optional[np.random.Generator] = None,
        use_compiled: bool = True,
    ) -> None:
        self.embedding = embedding
        if backbone is None:
            # A fresh backbone starts in eval mode, the mode every
            # query runs in: serving then never toggles modes.
            backbone = ResNet9(
                in_channels=embedding.num_devices,
                out_features=embedding.num_devices,
                rng=rng or np.random.default_rng(0),
            ).eval()
        self.network = backbone
        self.target_transform = target_transform or TargetTransform()
        self.query_count = 0
        self.use_compiled = use_compiled
        #: Optional fault-injection seam (:mod:`repro.resilience`): a
        #: callable ``(outputs, backend) -> outputs`` invoked once per
        #: batched forward with ``backend`` one of ``"compiled"`` /
        #: ``"interpreter"``.  ``None`` (the default) is a straight
        #: pass-through — production replays never pay for it.
        self.fault_hook = None
        self._plan: Optional[InferencePlan] = None
        self._plan_version: Optional[int] = None
        self._plan_compiles = 0

    # ------------------------------------------------------------------
    # Compiled-plan lifecycle
    # ------------------------------------------------------------------
    def invalidate_plan(self) -> None:
        """Drop the compiled plan; the next eval-mode query recompiles.

        Training steps and ``load_state_dict`` invalidate automatically
        (the backbone bumps its version); this hook covers direct
        in-place writes to ``Tensor.data`` that bypass both.
        """
        self._plan = None
        self._plan_version = None

    @property
    def plan_compiles(self) -> int:
        """How many times a compiled plan has been (re)built."""
        return self._plan_compiles

    def _compiled_plan(self) -> InferencePlan:
        version = self.network.version
        if self._plan is None or self._plan_version != version:
            self._plan = compile_resnet9(self.network)
            self._plan_version = version
            self._plan_compiles += 1
        return self._plan

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def predict_normalized(
        self, workload: Workload, mapping: Mapping
    ) -> np.ndarray:
        """Per-device outputs in the network's normalized target space."""
        batch = self.predict_normalized_batch([(workload, mapping)])
        return batch[0]

    def predict_normalized_batch(
        self, pairs: Sequence[Tuple[Workload, Mapping]]
    ) -> np.ndarray:
        """Batched normalized predictions ``(N, num_devices)``.

        Runs in eval mode, restoring the caller's training mode on the
        way out, and counts queries only after the forward succeeds —
        a raising encode or forward never inflates the Section V-B
        accounting.
        """
        if not pairs:
            raise ValueError("encode_batch needs at least one pair")
        network = self.network
        was_training = network.training
        if was_training:
            network.eval()
        try:
            use_compiled = self.use_compiled
            if use_compiled:
                try:
                    plan = self._compiled_plan()
                except PlanCompileError:
                    # Backbones the compiler cannot capture fall back
                    # to the interpreter permanently (documented
                    # contract; recompiling would fail identically).
                    self.use_compiled = False
                    use_compiled = False
            if use_compiled:
                _, height, width = self.embedding.input_shape
                count = len(pairs)
                view = plan.prepare(count, height, width)
                self.embedding.encode_batch(pairs, out=view)
                outputs = plan.execute(count, height, width)
            else:
                inputs = self.embedding.encode_batch(pairs)
                with no_grad():
                    outputs = self.network(Tensor(inputs)).numpy().copy()
        finally:
            if was_training:
                network.train()
        if self.fault_hook is not None:
            # Fires before accounting: an injected raise (plan-error)
            # must not inflate the Section V-B query count, exactly
            # like a real failing forward.
            outputs = self.fault_hook(
                outputs, "compiled" if use_compiled else "interpreter"
            )
        self.query_count += len(pairs)
        return outputs

    def predict_throughput(
        self, workload: Workload, mapping: Mapping
    ) -> np.ndarray:
        """Physical per-device throughput (inferences/second)."""
        return self.predict_throughput_batch([(workload, mapping)])[0]

    def predict_throughput_batch(
        self, pairs: Sequence[Tuple[Workload, Mapping]]
    ) -> np.ndarray:
        """Batched physical throughput predictions ``(N, num_devices)``.

        Stacks the masked embedding tensors and runs a single ResNet9
        forward over the whole batch, then denormalizes.  Row ``i`` is
        *bitwise identical* to the standalone
        :meth:`predict_throughput` call for pair ``i``, no matter how
        the batch is composed: every eval-mode op prices each sample
        independently (convs via broadcast matmul, the head via
        :func:`~repro.nn.functional.linear_rowwise`).  Batching is
        purely an amortization of per-call overhead — and the property
        the scheduling service's cross-request evaluation pooling
        relies on to stay result-identical to per-request calls.  This
        is the search hot path's vectorized entry point.
        """
        # Fail before the forward runs: an unfitted transform would
        # raise *after* the network was queried, which (now that only
        # successful queries count) would still be honest — but
        # checking first keeps the failure free.
        self.target_transform.require_fitted()
        normalized = self.predict_normalized_batch(pairs)
        predicted = self.target_transform.inverse(normalized)
        if not np.isfinite(predicted).all():
            raise EstimatorFault(
                "estimator produced non-finite throughput predictions; "
                "a NaN/Inf reward would silently corrupt UCT ordering "
                "in MCTS (all NaN comparisons are false), so the fault "
                "is raised here instead"
            )
        return predicted

    def reward(self, workload: Workload, mapping: Mapping) -> float:
        """Scalar MCTS reward: expected system throughput.

        The mean of the *denormalized* per-device predictions, i.e.
        predicted aggregate inferences/second divided by the device
        count -- "the expected system throughput as a reward" (paper
        IV-C).  Averaging the normalized outputs instead would weight a
        LITTLE-CPU inference as heavily as a GPU one.
        """
        return float(self.predict_throughput(workload, mapping).mean())

    def reward_batch(
        self, pairs: Sequence[Tuple[Workload, Mapping]]
    ) -> np.ndarray:
        """Vectorized :meth:`reward` over many (workload, mapping) pairs.

        One batched forward pass instead of ``len(pairs)`` scalar
        queries -- the numpy convolutions amortize dramatically, which
        is what makes exhaustive enumeration of small design spaces
        practical.  Query accounting is identical (``len(pairs)``
        queries).
        """
        return self.predict_throughput_batch(pairs).mean(axis=1)

    # ------------------------------------------------------------------
    # Extensibility (paper contribution iii)
    # ------------------------------------------------------------------
    def with_embedding(self, embedding: EmbeddingSpace) -> "ThroughputEstimator":
        """The same trained network over a different embedding space.

        The intended use is pairing with
        :meth:`~repro.estimator.embedding.EmbeddingSpace.extend`: a new
        DNN is profiled into a fresh column and the returned estimator
        schedules mixes containing it *without retraining* -- backbone
        weights and target statistics are shared with ``self`` (not
        copied).  The backbone is fully convolutional, so the widened
        (or taller) tensor is accepted as-is.
        """
        if embedding.num_devices != self.embedding.num_devices:
            raise ValueError(
                f"embedding has {embedding.num_devices} device channels, "
                f"the trained backbone expects {self.embedding.num_devices}"
            )
        return ThroughputEstimator(
            embedding,
            backbone=self.network,
            target_transform=self.target_transform,
            use_compiled=self.use_compiled,
        )

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def reset_query_count(self) -> int:
        """Zero the query counter, returning the previous value."""
        previous = self.query_count
        self.query_count = 0
        return previous

    @property
    def num_parameters(self) -> int:
        """Trainable parameter count (the paper reports 20,044)."""
        return self.network.num_parameters()

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Persist backbone weights and target statistics as ``.npz``."""
        state = self.network.state_dict()
        if self.target_transform.fitted:
            state.update(self.target_transform.state_dict())
        np.savez(path, **state)

    def load(self, path: str) -> None:
        """Restore a checkpoint produced by :meth:`save`."""
        with np.load(path) as archive:
            state = {key: archive[key] for key in archive.files}
        self.network.load_state_dict(state)
        if "target_mean" in state:
            self.target_transform.load_state_dict(state)
