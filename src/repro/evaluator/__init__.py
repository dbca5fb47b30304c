"""The differentiable evaluator network — the paper's core contribution.

Models the (non-differentiable) hardware generation + cost estimation
toolchain with neural networks so that hardware cost becomes a
differentiable function of the architecture parameters:

* :class:`HardwareGenerationNetwork` — classifies the optimal accelerator
  design from the architecture encoding;
* :class:`CostEstimationNetwork` — regresses latency / energy / area, with
  optional feature forwarding of the generated hardware design;
* :class:`Evaluator` — the combined, freezable surrogate used during search;
* dataset generation and training utilities that reproduce the Table-1
  accuracy measurements.
"""

from repro.evaluator.cost_estimation_net import CostEstimationNetwork
from repro.evaluator.dataset import EvaluatorDataset, generate_evaluator_dataset
from repro.evaluator.encoding import METRIC_ORDER, EvaluatorEncoding
from repro.evaluator.evaluator import Evaluator
from repro.evaluator.hw_generation_net import HardwareGenerationNetwork
from repro.evaluator.training import (
    EvaluatorTrainingResult,
    TrainingHistory,
    train_cost_estimation_network,
    train_evaluator,
    train_hw_generation_network,
)

__all__ = [
    "CostEstimationNetwork",
    "EvaluatorDataset",
    "generate_evaluator_dataset",
    "METRIC_ORDER",
    "EvaluatorEncoding",
    "Evaluator",
    "HardwareGenerationNetwork",
    "EvaluatorTrainingResult",
    "TrainingHistory",
    "train_cost_estimation_network",
    "train_evaluator",
    "train_hw_generation_network",
]
