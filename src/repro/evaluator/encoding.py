"""Encodings shared by the evaluator networks.

The hardware generation network consumes the *architecture encoding*
(flattened per-position operation probabilities, one-hot for discrete
architectures) and produces per-field logits over the hardware design space.
The cost estimation network consumes the architecture encoding, optionally
concatenated with the one-hot *hardware encoding* (feature forwarding), and
regresses latency / energy / area.

This module centralises the widths, slices and conversions so the two
networks and the ground-truth generator cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple, Union

import numpy as np

from repro.hwmodel.accelerator import HardwareSearchSpace
from repro.hwmodel.backends.base import SearchSpaceBase
from repro.nas.search_space import NASSearchSpace

#: Order of the regressed cost metrics.
METRIC_ORDER: Tuple[str, ...] = ("latency_ms", "energy_mj", "area_mm2")


@dataclass(frozen=True)
class EvaluatorEncoding:
    """Joint description of the architecture and hardware encodings.

    The hardware side is derived entirely from the backend's field spec
    (names, per-field one-hot widths, encoding order), so the evaluator
    networks adapt to whichever backend the ``hw_space`` belongs to.
    """

    nas_space: NASSearchSpace
    hw_space: Union[HardwareSearchSpace, SearchSpaceBase]

    @property
    def arch_width(self) -> int:
        """Width of the architecture encoding."""
        return self.nas_space.encoding_width

    @property
    def hw_width(self) -> int:
        """Width of the hardware one-hot encoding."""
        return self.hw_space.encoding_width

    @property
    def hw_backend_name(self) -> str:
        """Registry name of the hardware backend behind ``hw_space``."""
        return self.hw_space.backend_name

    @property
    def hw_field_order(self) -> Tuple[str, ...]:
        """Hardware design-field names, in encoding / network-head order."""
        return self.hw_space.field_names

    @property
    def hw_field_sizes(self) -> Dict[str, int]:
        """Number of classes per hardware design field."""
        return self.hw_space.field_sizes

    @property
    def num_metrics(self) -> int:
        """Number of regressed cost metrics (latency, energy, area)."""
        return len(METRIC_ORDER)

    # ------------------------------------------------------------------
    # Architecture side
    # ------------------------------------------------------------------
    def encode_architecture(self, op_indices: np.ndarray) -> np.ndarray:
        """One-hot encode a discrete architecture."""
        return self.nas_space.encode_indices(op_indices)

    def encode_architecture_soft(self, probabilities: np.ndarray) -> np.ndarray:
        """Flatten a probability matrix into the soft architecture encoding."""
        return self.nas_space.encode_probabilities(probabilities)

    # ------------------------------------------------------------------
    # Hardware side
    # ------------------------------------------------------------------
    def encode_hardware(self, config) -> np.ndarray:
        """One-hot encode an accelerator configuration."""
        return self.hw_space.encode(config)

    def decode_hardware(self, encoding: np.ndarray):
        """Decode a (possibly soft) hardware encoding to the nearest configuration."""
        return self.hw_space.decode(encoding)

    def hardware_class_indices(self, config) -> Dict[str, int]:
        """Per-field class indices of a configuration (classification targets)."""
        return self.hw_space.encode_indices(config)

    def hw_field_slices(self) -> Dict[str, slice]:
        """Slices of the flat hardware encoding owned by each design field."""
        return self.hw_space.field_slices()

    # ------------------------------------------------------------------
    # Metrics side
    # ------------------------------------------------------------------
    @staticmethod
    def metrics_to_vector(metrics) -> np.ndarray:
        """Convert a HardwareMetrics object to the regression target vector."""
        return np.asarray(
            [metrics.latency_ms, metrics.energy_mj, metrics.area_mm2], dtype=np.float64
        )
