"""Dataset building and estimator training tests (Fig. 4 machinery)."""

import numpy as np
import pytest

from repro.builder import SystemBuilder
from repro.estimator import (
    EstimatorDatasetBuilder,
    EstimatorTrainer,
    ThroughputEstimator,
    TrainingHistory,
)
from repro.nn.layers import Module
from repro.workloads import WorkloadGenerator


@pytest.fixture(scope="module")
def builder(simulator, embedding):
    estimator = ThroughputEstimator(embedding, rng=np.random.default_rng(0))
    generator = WorkloadGenerator(seed=21)
    return EstimatorDatasetBuilder(simulator, generator, estimator)


@pytest.fixture(scope="module")
def dataset(builder):
    return builder.build(num_samples=60, measurement_seed=9)


class TestDatasetBuilder:
    def test_shapes(self, dataset):
        assert dataset.inputs.shape == (60, 3, 35, 11)
        assert dataset.targets.shape == (60, 3)
        assert len(dataset.pairs) == 60
        assert len(dataset) == 60

    def test_targets_are_physical_rates(self, dataset):
        assert (dataset.targets >= 0).all()
        assert dataset.targets.max() < 100.0  # inferences/second, not ns

    def test_inputs_are_masked_embeddings(self, dataset):
        # Inputs must be sparse: only scheduled cells are non-zero.
        for index, (workload, _mapping) in enumerate(dataset.pairs[:10]):
            nonzero = (dataset.inputs[index] != 0).sum()
            assert nonzero == workload.total_layers

    def test_deterministic_given_seeds(self, simulator, embedding):
        def build():
            estimator = ThroughputEstimator(embedding, rng=np.random.default_rng(0))
            generator = WorkloadGenerator(seed=21)
            return EstimatorDatasetBuilder(simulator, generator, estimator).build(
                num_samples=20, measurement_seed=9
            )

        np.testing.assert_array_equal(build().targets, build().targets)

    def test_sample_count_validated(self, builder):
        with pytest.raises(ValueError):
            builder.build(num_samples=1)

    def test_repetitions_validated(self, builder):
        with pytest.raises(ValueError):
            builder.build(num_samples=10, repetitions=0)

    def test_more_repetitions_reduce_noise(self, simulator, embedding):
        estimator = ThroughputEstimator(embedding, rng=np.random.default_rng(0))
        generator_a = WorkloadGenerator(seed=21)
        noisy = EstimatorDatasetBuilder(simulator, generator_a, estimator).build(
            num_samples=20, measurement_seed=9, repetitions=1
        )
        generator_b = WorkloadGenerator(seed=21)
        smooth = EstimatorDatasetBuilder(simulator, generator_b, estimator).build(
            num_samples=20, measurement_seed=9, repetitions=10
        )
        exact = np.array(
            [
                simulator.simulate(workload.models, mapping).device_throughput
                for workload, mapping in noisy.pairs
            ]
        )
        noisy_error = np.abs(noisy.targets - exact).mean()
        smooth_error = np.abs(smooth.targets - exact).mean()
        assert smooth_error < noisy_error


class TestTrainer:
    def test_loss_decreases(self, dataset, embedding):
        estimator = ThroughputEstimator(embedding, rng=np.random.default_rng(5))
        trainer = EstimatorTrainer(estimator)
        history = trainer.train(dataset, epochs=12, train_size=48, seed=1)
        assert history.epochs == 12
        assert history.final_train_loss < history.train_losses[0] * 0.8
        # Validation must not diverge on this tiny 12-epoch run;
        # real convergence behaviour is the Fig.-4 benchmark's job.
        assert history.final_val_loss < history.val_losses[0] * 1.2

    def test_history_accessors(self):
        history = TrainingHistory(
            train_losses=[0.3, 0.2], val_losses=[0.35, 0.25]
        )
        assert history.final_train_loss == 0.2
        assert history.best_val_loss == 0.25
        assert history.converged(0.3)
        assert not history.converged(0.1)
        assert history.rows() == [(1, 0.3, 0.35), (2, 0.2, 0.25)]

    def test_l2_option(self, dataset, embedding):
        estimator = ThroughputEstimator(embedding, rng=np.random.default_rng(5))
        trainer = EstimatorTrainer(estimator, loss="l2")
        history = trainer.train(dataset, epochs=3, train_size=48, seed=1)
        assert history.epochs == 3

    def test_invalid_loss_rejected(self, embedding):
        estimator = ThroughputEstimator(embedding)
        with pytest.raises(ValueError, match="l1"):
            EstimatorTrainer(estimator, loss="huber")

    def test_train_size_validated(self, dataset, embedding):
        estimator = ThroughputEstimator(embedding)
        trainer = EstimatorTrainer(estimator)
        with pytest.raises(ValueError, match="train_size"):
            trainer.train(dataset, epochs=1, train_size=60)

    def test_transform_fit_on_train_split_only(self, dataset, embedding):
        estimator = ThroughputEstimator(embedding, rng=np.random.default_rng(5))
        trainer = EstimatorTrainer(estimator)
        trainer.train(dataset, epochs=1, train_size=48, seed=1)
        normalized = estimator.target_transform.transform(dataset.targets[:48])
        assert normalized.min() >= -1e-9
        assert normalized.max() <= 1.0 + 1e-9

    def test_training_is_reproducible(self, dataset, embedding):
        def run():
            estimator = ThroughputEstimator(embedding, rng=np.random.default_rng(5))
            trainer = EstimatorTrainer(estimator)
            return trainer.train(dataset, epochs=4, train_size=48, seed=1)

        assert run().train_losses == run().train_losses


class TestServingModes:
    """A ready estimator serves in eval mode without toggling modes."""

    @pytest.fixture()
    def toggles(self, monkeypatch):
        calls = []
        for name in ("train", "eval"):
            original = getattr(Module, name)

            def counted(module, _original=original, _name=name):
                calls.append(_name)
                return _original(module)

            monkeypatch.setattr(Module, name, counted)
        return calls

    @pytest.fixture()
    def trained(self, dataset, embedding):
        estimator = ThroughputEstimator(embedding, rng=np.random.default_rng(5))
        EstimatorTrainer(estimator).train(dataset, epochs=2, train_size=48, seed=1)
        return estimator

    @pytest.mark.parametrize("use_compiled", [True, False])
    def test_freshly_trained_estimator_serves_without_toggles(
        self, trained, dataset, toggles, use_compiled
    ):
        trained.use_compiled = use_compiled
        assert not trained.network.training
        trained.predict_throughput_batch(list(dataset.pairs[:4]))
        assert toggles == []

    def test_checkpoint_loaded_estimator_serves_without_toggles(
        self, trained, dataset, tmp_path, toggles
    ):
        path = str(tmp_path / "estimator.npz")
        trained.save(path)
        loaded = SystemBuilder(seed=21).from_checkpoint(path).estimator
        toggles.clear()
        assert not loaded.network.training
        loaded.predict_throughput_batch(list(dataset.pairs[:4]))
        assert toggles == []
