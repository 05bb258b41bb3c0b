"""Throughput estimator: embeddings, preprocessing, CNN and training."""

from .embedding import EmbeddingSpace
from .model import EstimatorFault, ThroughputEstimator
from .preprocessing import TargetTransform
from .quality import RankingReport, ranking_report, spearman_rho, top_k_regret
from .training import (
    EstimatorDataset,
    EstimatorDatasetBuilder,
    EstimatorTrainer,
    TrainingHistory,
)

__all__ = [
    "EmbeddingSpace",
    "EstimatorDataset",
    "EstimatorFault",
    "EstimatorDatasetBuilder",
    "EstimatorTrainer",
    "RankingReport",
    "TargetTransform",
    "ranking_report",
    "spearman_rho",
    "top_k_regret",
    "ThroughputEstimator",
    "TrainingHistory",
]
