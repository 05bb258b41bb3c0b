"""Estimator dataset construction and training (paper Section V, Fig. 4).

The design-time pipeline: sample 500 random (mix, random-mapping)
pairs, measure each on the board (simulator), render inputs through the
embedding space, fit the target transform on the 400-sample training
split, then train the CNN with L1 loss for 100 epochs, recording the
train/validation curves that reproduce Fig. 4.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from ..nn.data import DataLoader, TensorDataset
from ..nn.functional import l1_loss, mse_loss
from ..nn.optim import Adam
from ..nn.tensor import Tensor
from ..sim.mapping import Mapping
from ..sim.simulator import BoardSimulator
from ..workloads.generator import WorkloadGenerator
from ..workloads.mix import Workload
from .model import ThroughputEstimator

__all__ = ["EstimatorDatasetBuilder", "TrainingHistory", "EstimatorTrainer"]


@dataclass(frozen=True)
class EstimatorDataset:
    """Measured (input tensor, per-device throughput) pairs."""

    inputs: np.ndarray  # (N, devices, max_layers, models)
    targets: np.ndarray  # (N, devices), physical inferences/second
    pairs: Tuple[Tuple[Workload, Mapping], ...]

    def __len__(self) -> int:
        return len(self.inputs)


class EstimatorDatasetBuilder:
    """Runs the paper's random data-collection campaign on the board."""

    def __init__(
        self,
        simulator: BoardSimulator,
        generator: WorkloadGenerator,
        estimator: ThroughputEstimator,
    ) -> None:
        self.simulator = simulator
        self.generator = generator
        self.estimator = estimator

    def build(
        self,
        num_samples: int = 500,
        sizes: Tuple[int, ...] = (1, 2, 3, 4, 5),
        measurement_seed: int = 1234,
        repetitions: int = 3,
    ) -> EstimatorDataset:
        """Collect ``num_samples`` measured random workloads.

        ``repetitions`` board measurements are averaged per sample --
        the usual way throughput is recorded over a measurement window.
        """
        if num_samples < 2:
            raise ValueError(f"need at least 2 samples, got {num_samples}")
        if repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {repetitions}")
        pairs = self.generator.sample_training_pairs(num_samples, sizes=sizes)
        rng = np.random.default_rng(measurement_seed)
        targets = np.zeros((num_samples, self.simulator.platform.num_devices))
        for index, (workload, mapping) in enumerate(pairs):
            samples = [
                self.simulator.measure(
                    workload.models, mapping, rng=rng
                ).device_throughput
                for _ in range(repetitions)
            ]
            targets[index] = np.mean(samples, axis=0)
        inputs = self.estimator.embedding.encode_batch(pairs)
        return EstimatorDataset(inputs=inputs, targets=targets, pairs=tuple(pairs))


@dataclass
class TrainingHistory:
    """Per-epoch loss curves -- the series behind Fig. 4."""

    train_losses: List[float] = field(default_factory=list)
    val_losses: List[float] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def epochs(self) -> int:
        return len(self.train_losses)

    @property
    def final_train_loss(self) -> float:
        return self.train_losses[-1]

    @property
    def final_val_loss(self) -> float:
        return self.val_losses[-1]

    @property
    def best_val_loss(self) -> float:
        return min(self.val_losses)

    def converged(self, threshold: float) -> bool:
        """Whether validation loss dropped below ``threshold``."""
        return self.best_val_loss < threshold

    def rows(self) -> List[Tuple[int, float, float]]:
        """(epoch, train, val) rows for tabular reporting."""
        return [
            (epoch + 1, train, val)
            for epoch, (train, val) in enumerate(
                zip(self.train_losses, self.val_losses)
            )
        ]


class EstimatorTrainer:
    """Trains a :class:`ThroughputEstimator` on a measured dataset."""

    def __init__(
        self,
        estimator: ThroughputEstimator,
        learning_rate: float = 3e-3,
        batch_size: int = 32,
        loss: str = "l1",
    ) -> None:
        if loss not in ("l1", "l2"):
            raise ValueError(f"loss must be 'l1' or 'l2', got {loss!r}")
        self.estimator = estimator
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.loss_name = loss
        self._loss_fn = l1_loss if loss == "l1" else mse_loss

    def train(
        self,
        dataset: EstimatorDataset,
        epochs: int = 100,
        train_size: int = 400,
        seed: int = 0,
    ) -> TrainingHistory:
        """Fit the estimator; returns the Fig.-4 loss curves.

        ``train_size`` samples go to training, the rest to validation
        (the paper uses 400/100).  The target transform is fit on the
        training split only.
        """
        if not 0 < train_size < len(dataset):
            raise ValueError(
                f"train_size must be in (0, {len(dataset)}), got {train_size}"
            )
        transform = self.estimator.target_transform
        transform.fit(dataset.targets[:train_size])
        normalized_targets = transform.transform(dataset.targets)

        full = TensorDataset(dataset.inputs, normalized_targets)
        train_split, val_split = full.split(train_size)
        rng = np.random.default_rng(seed)
        loader = DataLoader(
            train_split, batch_size=self.batch_size, shuffle=True, rng=rng
        )
        network = self.estimator.network
        optimizer = Adam(network.parameters(), lr=self.learning_rate)
        history = TrainingHistory()
        started = time.perf_counter()  # repro: lint-ignore[RPR002] -- host measurement of training wall time
        for epoch in range(epochs):
            # Cosine decay to a tenth of the base rate over the run.
            progress = epoch / max(epochs - 1, 1)
            optimizer.lr = self.learning_rate * (
                0.1 + 0.45 * (1.0 + np.cos(np.pi * progress))
            )
            network.train()
            epoch_losses = []
            for batch_inputs, batch_targets in loader:
                predictions = network(Tensor(batch_inputs))
                loss = self._loss_fn(predictions, Tensor(batch_targets))
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                epoch_losses.append(loss.item())
            history.train_losses.append(float(np.mean(epoch_losses)))
            history.val_losses.append(self.evaluate(val_split))
        history.wall_time_s = time.perf_counter() - started  # repro: lint-ignore[RPR002] -- host measurement of training wall time
        # Hand the backbone back in eval mode, the mode every query
        # runs in, so serving never toggles modes.
        network.eval()
        # The epochs above mutated the backbone in place; training-mode
        # switches already bump the backbone version, but be explicit:
        # any compiled inference plan snapshot is now stale.
        self.estimator.invalidate_plan()
        return history

    def evaluate(self, split: TensorDataset) -> float:
        """Mean loss of the current network over a split.

        Runs the autograd interpreter in eval mode and restores the
        prior training mode on the way out (mirroring
        :meth:`~repro.estimator.model.ThroughputEstimator.predict_normalized_batch`).
        """
        network = self.estimator.network
        was_training = network.training
        network.eval()
        from ..nn.tensor import no_grad

        try:
            with no_grad():
                predictions = network(Tensor(split.inputs))
                loss = self._loss_fn(predictions, Tensor(split.targets))
        finally:
            if was_training:
                network.train()
        return loss.item()
