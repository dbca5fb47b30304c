"""Tests for the evaluator networks: encoding, datasets, training, surrogacy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.evaluator import (
    Evaluator,
    EvaluatorEncoding,
    METRIC_ORDER,
    generate_evaluator_dataset,
    train_cost_estimation_network,
    train_hw_generation_network,
)
from repro.evaluator.cost_estimation_net import CostEstimationNetwork
from repro.evaluator.hw_generation_net import HardwareGenerationNetwork
from repro.hwmodel import AcceleratorConfig, CostTable, HardwareMetrics, edap_cost


@pytest.fixture(scope="module")
def encoding(nas_space, hw_space):
    return EvaluatorEncoding(nas_space=nas_space, hw_space=hw_space)


# The module-scoped fixtures above need the session fixtures; re-export them.
@pytest.fixture(scope="module")
def nas_space():
    from repro.nas import build_cifar_search_space

    return build_cifar_search_space()


@pytest.fixture(scope="module")
def hw_space():
    from repro.hwmodel import tiny_search_space

    return tiny_search_space()


@pytest.fixture(scope="module")
def cost_table(nas_space, hw_space):
    return CostTable(nas_space, hw_space)


@pytest.fixture(scope="module")
def dataset(nas_space, hw_space, cost_table):
    return generate_evaluator_dataset(nas_space, hw_space, num_samples=250, cost_table=cost_table, rng=0)


class TestEncoding:
    def test_widths(self, encoding):
        assert encoding.arch_width == 63
        assert encoding.hw_width == encoding.hw_space.encoding_width
        assert encoding.num_metrics == 3

    def test_hw_roundtrip(self, encoding):
        config = AcceleratorConfig(16, 24, 64, "OS")
        assert encoding.decode_hardware(encoding.encode_hardware(config)) == config

    def test_metrics_vector_order(self, encoding):
        metrics = HardwareMetrics(1.0, 2.0, 3.0)
        assert np.allclose(encoding.metrics_to_vector(metrics), [1.0, 2.0, 3.0])
        assert METRIC_ORDER == ("latency_ms", "energy_mj", "area_mm2")

    def test_field_slices_partition(self, encoding):
        slices = encoding.hw_field_slices()
        assert encoding.hw_field_order == ("pe_x", "pe_y", "rf_size", "dataflow")
        assert set(slices) == set(encoding.hw_field_order)


class TestLayerCostTable:
    def test_table_matches_direct_oracle(self, nas_space, hw_space, cost_table):
        from repro.hwmodel import AcceleratorCostModel

        oracle = AcceleratorCostModel()
        arch = nas_space.random_architecture(rng=1)
        config = AcceleratorConfig(16, 16, 16, "RS")
        table_metrics = cost_table.metrics_for(arch, config)
        direct_metrics = oracle.evaluate(nas_space.build_workload(arch), config)
        assert table_metrics.latency_ms == pytest.approx(direct_metrics.latency_ms, rel=1e-9)
        assert table_metrics.energy_mj == pytest.approx(direct_metrics.energy_mj, rel=1e-9)
        assert table_metrics.area_mm2 == pytest.approx(direct_metrics.area_mm2, rel=1e-9)

    def test_optimal_config_matches_exhaustive_generator(self, nas_space, hw_space, cost_table):
        from repro.hwmodel import ExhaustiveHardwareGenerator

        arch = nas_space.random_architecture(rng=2)
        workload = nas_space.build_workload(arch)
        generator = ExhaustiveHardwareGenerator(hw_space, cost_table.cost_model, cost_function=edap_cost)
        expected = generator.generate(workload)
        config, metrics = cost_table.optimal_config(arch, cost_function=edap_cost)
        assert metrics.edap == pytest.approx(expected.metrics.edap, rel=1e-9)
        assert config == expected.config

    def test_zero_heavy_architectures_are_cheaper(self, nas_space, cost_table):
        from repro.nas import op_index

        heavy = np.full(9, op_index("mbconv7_e6"))
        light = np.full(9, op_index("zero"))
        _, heavy_metrics = cost_table.optimal_config(heavy)
        _, light_metrics = cost_table.optimal_config(light)
        assert light_metrics.latency_ms < heavy_metrics.latency_ms
        assert light_metrics.energy_mj < heavy_metrics.energy_mj

    def test_metrics_per_config_shapes(self, nas_space, hw_space, cost_table):
        arch = nas_space.random_architecture(rng=3)
        latency, energy, area = cost_table.metrics_per_config(arch)
        assert latency.shape == (len(hw_space),)
        assert np.all(latency > 0) and np.all(energy > 0) and np.all(area > 0)


class TestEvaluatorDataset:
    def test_shapes(self, dataset, nas_space, hw_space):
        assert dataset.arch_encodings.shape == (250, 63)
        assert dataset.hw_encodings.shape == (250, hw_space.encoding_width)
        assert dataset.metric_targets.shape == (250, 3)
        assert set(dataset.hw_class_indices) == set(dataset.encoding.hw_field_order)

    def test_targets_positive(self, dataset):
        assert np.all(dataset.metric_targets > 0)

    def test_labels_consistent_with_encodings(self, dataset, hw_space):
        slices = hw_space.field_slices()
        for field_name in dataset.encoding.hw_field_order:
            onehot_argmax = dataset.hw_encodings[:, slices[field_name]].argmax(axis=1)
            assert np.array_equal(onehot_argmax, dataset.hw_class_indices[field_name])

    def test_split_preserves_total(self, dataset):
        train, val = dataset.split(0.8, rng=0)
        assert len(train) + len(val) == len(dataset)

    def test_generation_validation(self, nas_space, hw_space, cost_table):
        with pytest.raises(ValueError):
            generate_evaluator_dataset(nas_space, hw_space, num_samples=0, cost_table=cost_table)

    def test_batches_cover_everything(self, dataset):
        seen = np.concatenate(list(dataset.batches(64, rng=0)))
        assert sorted(seen.tolist()) == list(range(len(dataset)))


class TestHardwareGenerationNetwork:
    def test_forward_field_shapes(self, encoding):
        network = HardwareGenerationNetwork(encoding, hidden_features=32, rng=0)
        logits = network(Tensor(np.random.default_rng(0).normal(size=(4, encoding.arch_width))))
        for field_name in encoding.hw_field_order:
            assert logits[field_name].shape == (4, encoding.hw_field_sizes[field_name])

    def test_gumbel_output_is_per_field_one_hot(self, encoding):
        network = HardwareGenerationNetwork(encoding, hidden_features=32, rng=0)
        output = network.forward_gumbel(
            Tensor(np.zeros((2, encoding.arch_width))), temperature=0.5, hard=True, rng=1
        )
        assert output.shape == (2, encoding.hw_width)
        assert np.allclose(output.data.sum(axis=1), len(encoding.hw_field_order))

    def test_predict_config_in_space(self, encoding):
        network = HardwareGenerationNetwork(encoding, hidden_features=32, rng=0)
        config = network.predict_config(np.zeros(encoding.arch_width))
        assert encoding.hw_space.contains(config)

    def test_training_reaches_high_accuracy(self, dataset):
        train, val = dataset.split(0.8, rng=0)
        network = HardwareGenerationNetwork(dataset.encoding, hidden_features=64, rng=1)
        history = train_hw_generation_network(network, train, val, epochs=15, batch_size=64, rng=2)
        assert history.losses[-1] < history.losses[0]
        assert np.mean(list(history.accuracies.values())) > 0.6


class TestCostEstimationNetwork:
    def test_requires_hw_encoding_when_forwarding(self, encoding):
        network = CostEstimationNetwork(encoding, feature_forwarding=True, hidden_features=32, rng=0)
        with pytest.raises(ValueError):
            network(Tensor(np.zeros((1, encoding.arch_width))))

    def test_calibration_rejects_nonpositive_targets(self, encoding):
        network = CostEstimationNetwork(encoding, hidden_features=32, rng=0)
        with pytest.raises(ValueError):
            network.calibrate(np.zeros((4, 3)))

    def test_prediction_shapes_and_metrics_object(self, encoding):
        network = CostEstimationNetwork(encoding, feature_forwarding=False, hidden_features=32, rng=0)
        network.calibrate(np.ones((4, 3)))
        output = network(Tensor(np.zeros((5, encoding.arch_width))))
        assert output.shape == (5, 3)
        metrics = network.predict_metrics(np.zeros(encoding.arch_width))
        assert isinstance(metrics, HardwareMetrics)

    def test_training_reduces_loss_and_fits(self, dataset):
        train, val = dataset.split(0.8, rng=0)
        network = CostEstimationNetwork(dataset.encoding, feature_forwarding=True, hidden_features=64, rng=1)
        history = train_cost_estimation_network(network, train, val, epochs=25, batch_size=64, rng=2)
        assert history.losses[-1] < history.losses[0]
        assert np.mean(list(history.accuracies.values())) > 0.5


class TestCombinedEvaluator:
    def test_forward_differentiable_to_arch_encoding(self, nas_space, hw_space):
        evaluator = Evaluator(nas_space, hw_space, feature_forwarding=True, rng=0)
        arch = Tensor(np.full((1, nas_space.encoding_width), 1.0 / 7.0), requires_grad=True)
        metrics = evaluator(arch, rng=1)
        assert metrics.shape == (1, 3)
        metrics.sum().backward()
        assert arch.grad is not None and np.any(arch.grad != 0.0)

    def test_predict_returns_config_and_metrics(self, nas_space, hw_space):
        evaluator = Evaluator(nas_space, hw_space, feature_forwarding=True, rng=0)
        arch_encoding = nas_space.encode_indices(nas_space.random_architecture(rng=1))
        config, metrics = evaluator.predict(arch_encoding)
        assert hw_space.contains(config)
        assert isinstance(metrics, HardwareMetrics)

    def test_no_feature_forwarding_skips_hw_generation(self, nas_space, hw_space):
        evaluator = Evaluator(nas_space, hw_space, feature_forwarding=False, rng=0)
        arch = Tensor(np.zeros((1, nas_space.encoding_width)))
        assert evaluator(arch).shape == (1, 3)

    def test_freeze_stops_weight_updates(self, nas_space, hw_space):
        evaluator = Evaluator(nas_space, hw_space, rng=0)
        evaluator.freeze()
        arch = Tensor(np.full((1, nas_space.encoding_width), 1.0 / 7.0), requires_grad=True)
        evaluator(arch, rng=1).sum().backward()
        assert all(param.grad is None for param in evaluator.parameters())
        assert arch.grad is not None

    def test_end_to_end_accuracy_keys(self, nas_space, hw_space, dataset):
        evaluator = Evaluator(nas_space, hw_space, rng=0)
        evaluator.cost_estimation.calibrate(dataset.metric_targets)
        accuracy = evaluator.end_to_end_accuracy(dataset.arch_encodings[:32], dataset.metric_targets[:32])
        assert set(accuracy) == set(METRIC_ORDER)
