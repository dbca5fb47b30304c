"""Ground-truth generation for training the evaluator networks.

The paper trains its surrogate on pairs produced by the real toolchain
(Timeloop + Accelergy wrapped in an exhaustive hardware-generation loop).
Here the toolchain is :mod:`repro.hwmodel`; this module

* builds a :class:`~repro.hwmodel.cost_model.CostTable` — per (searchable
  position, candidate op, accelerator configuration) latency/energy so that
  any architecture's cost under any configuration is a cheap table lookup;
* uses the table to run the exhaustive hardware-generation oracle quickly
  (whole batches of architectures are labelled in one vectorised pass);
* emits :class:`EvaluatorDataset` objects holding architecture encodings,
  optimal-hardware labels and cost-metric targets for supervised training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Union

import numpy as np

from repro.evaluator.encoding import EvaluatorEncoding
from repro.hwmodel.cost_model import CostTable
from repro.hwmodel.metrics import HardwareMetrics, edap_cost
from repro.nas.search_space import NASSearchSpace
from repro.utils.logging import get_logger
from repro.utils.seeding import as_rng

logger = get_logger("evaluator.dataset")

CostFunction = Callable[[HardwareMetrics], float]

@dataclass
class EvaluatorDataset:
    """Supervised training data for the evaluator networks.

    Attributes
    ----------
    arch_encodings:
        (num_samples, arch_width) architecture encodings (one-hot or soft).
    hw_encodings:
        (num_samples, hw_width) one-hot encodings of the *optimal* hardware.
    hw_class_indices:
        Per-field integer class labels of the optimal hardware.
    metric_targets:
        (num_samples, 3) latency / energy / area of the optimal hardware.
    """

    arch_encodings: np.ndarray
    hw_encodings: np.ndarray
    hw_class_indices: Dict[str, np.ndarray]
    metric_targets: np.ndarray
    encoding: EvaluatorEncoding

    def __len__(self) -> int:
        return self.arch_encodings.shape[0]

    def split(self, train_fraction: float, rng: Optional[Union[int, np.random.Generator]] = None):
        """Random (train, validation) split."""
        if not 0.0 < train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        generator = as_rng(rng)
        permutation = generator.permutation(len(self))
        cut = int(round(train_fraction * len(self)))
        first, second = permutation[:cut], permutation[cut:]

        def subset(indices: np.ndarray) -> "EvaluatorDataset":
            return EvaluatorDataset(
                arch_encodings=self.arch_encodings[indices],
                hw_encodings=self.hw_encodings[indices],
                hw_class_indices={k: v[indices] for k, v in self.hw_class_indices.items()},
                metric_targets=self.metric_targets[indices],
                encoding=self.encoding,
            )

        return subset(first), subset(second)

    def batches(
        self, batch_size: int, rng: Optional[Union[int, np.random.Generator]] = None, shuffle: bool = True
    ):
        """Yield index arrays forming mini-batches."""
        generator = as_rng(rng)
        indices = np.arange(len(self))
        if shuffle:
            generator.shuffle(indices)
        for start in range(0, len(indices), batch_size):
            yield indices[start : start + batch_size]


def generate_evaluator_dataset(
    nas_space: NASSearchSpace,
    hw_space,
    num_samples: int,
    cost_table: Optional[CostTable] = None,
    cost_function: CostFunction = edap_cost,
    soft_fraction: float = 0.25,
    soft_concentration: float = 4.0,
    rng: Optional[Union[int, np.random.Generator]] = None,
    label_chunk_size: int = 1024,
) -> EvaluatorDataset:
    """Generate ground-truth samples from the (non-differentiable) oracle.

    For every sample a random architecture is drawn, the exhaustive hardware
    generation oracle finds its optimal accelerator, and the oracle's metrics
    for that accelerator become the regression targets.  A ``soft_fraction``
    of the samples use *softened* architecture encodings (Dirichlet noise
    around the one-hot choice) so the surrogate behaves well on the soft
    probability vectors it sees during differentiable search.

    The oracle labelling runs through the vectorised
    :meth:`~repro.hwmodel.cost_model.CostTable.optimal_configs_batch` path in
    chunks of ``label_chunk_size`` architectures, so no per-sample Python
    dispatch touches the cost model.  The random draws happen per sample, in
    the same order as the historical loop, so a fixed seed reproduces the
    exact dataset the loop-based implementation produced.
    """
    if num_samples <= 0:
        raise ValueError("num_samples must be positive")
    generator = as_rng(rng)
    encoding = EvaluatorEncoding(nas_space=nas_space, hw_space=hw_space)
    table = cost_table or CostTable(nas_space, hw_space)

    arch_encodings = np.zeros((num_samples, encoding.arch_width))
    hw_encodings = np.zeros((num_samples, encoding.hw_width))
    hw_labels: Dict[str, np.ndarray] = {
        field_name: np.zeros(num_samples, dtype=np.int64)
        for field_name in encoding.hw_field_order
    }
    metric_targets = np.zeros((num_samples, encoding.num_metrics))

    # Draw every architecture (and its optional soft encoding) first; the RNG
    # consumption order per sample matches the historical implementation.
    arch_indices = np.zeros((num_samples, nas_space.num_searchable), dtype=np.int64)
    for sample_index in range(num_samples):
        op_indices = nas_space.random_architecture(rng=generator)
        arch_indices[sample_index] = op_indices

        arch_one_hot = encoding.encode_architecture(op_indices)
        if generator.uniform() < soft_fraction:
            matrix = arch_one_hot.reshape(nas_space.num_searchable, nas_space.num_ops)
            noise = generator.dirichlet(
                np.ones(nas_space.num_ops), size=nas_space.num_searchable
            )
            soft = soft_concentration * matrix + noise
            soft = soft / soft.sum(axis=1, keepdims=True)
            arch_encodings[sample_index] = soft.reshape(-1)
        else:
            arch_encodings[sample_index] = arch_one_hot

    # Label chunks of architectures with one table pass each; hardware
    # encodings and class labels come from the table's per-config LUTs.
    config_encodings = table.config_encodings
    config_class_indices = table.config_class_indices
    chunk = max(1, int(label_chunk_size))
    for start in range(0, num_samples, chunk):
        stop = min(start + chunk, num_samples)
        best, latency, energy, area = table.optimal_configs_batch(
            arch_indices[start:stop], cost_function=cost_function
        )
        hw_encodings[start:stop] = config_encodings[best]
        for field_name in encoding.hw_field_order:
            hw_labels[field_name][start:stop] = config_class_indices[field_name][best]
        metric_targets[start:stop, 0] = latency
        metric_targets[start:stop, 1] = energy
        metric_targets[start:stop, 2] = area

    return EvaluatorDataset(
        arch_encodings=arch_encodings,
        hw_encodings=hw_encodings,
        hw_class_indices=hw_labels,
        metric_targets=metric_targets,
        encoding=encoding,
    )
