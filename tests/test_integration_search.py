"""Integration tests: full search pipelines at miniature scale.

These tests run the complete pipelines (evaluator training, DANCE search,
baseline search, RL comparator) on tiny datasets and a reduced search space
so they finish in a few tens of seconds while still exercising every code
path an experiment uses.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    BaselineConfig,
    BaselineSearcher,
    ClassifierTrainingConfig,
    DanceConfig,
    DanceSearcher,
    EDAPCostFunction,
    LinearCostFunction,
    RLCoExplorationConfig,
    RLCoExplorationSearcher,
    SearchResult,
)
from repro.data import make_cifar_like, train_val_split
from repro.evaluator import Evaluator, generate_evaluator_dataset, train_evaluator
from repro.hwmodel import CostTable, tiny_search_space
from repro.nas import ArchitectureParameters, build_cifar_search_space


@pytest.fixture(scope="module")
def small_space():
    return build_cifar_search_space(num_searchable=3, trainable_resolution=8, trainable_base_channels=4)


@pytest.fixture(scope="module")
def small_hw_space():
    return tiny_search_space()


@pytest.fixture(scope="module")
def small_cost_table(small_space, small_hw_space):
    return CostTable(small_space, small_hw_space)


@pytest.fixture(scope="module")
def trained_evaluator(small_space, small_hw_space, small_cost_table):
    dataset = generate_evaluator_dataset(
        small_space, small_hw_space, num_samples=400, cost_table=small_cost_table, rng=0
    )
    train, val = dataset.split(0.85, rng=1)
    evaluator = Evaluator(small_space, small_hw_space, feature_forwarding=True, rng=2)
    train_evaluator(evaluator, train, val, hw_epochs=15, cost_epochs=30, rng=3)
    return evaluator


@pytest.fixture(scope="module")
def tiny_images():
    dataset = make_cifar_like(num_samples=160, resolution=8, rng=0)
    return train_val_split(dataset, val_fraction=0.25, rng=1)


FAST_SEARCH = DanceConfig(
    search_epochs=2,
    batch_size=32,
    lambda_2=1.0,
    warmup_epochs=1,
    final_training=ClassifierTrainingConfig(epochs=1, batch_size=32),
)


class TestDanceSearch:
    def test_search_returns_valid_result(self, small_space, small_hw_space, small_cost_table, trained_evaluator, tiny_images):
        train_set, val_set = tiny_images
        searcher = DanceSearcher(
            small_space, trained_evaluator, small_cost_table, config=FAST_SEARCH, rng=0
        )
        result = searcher.search(train_set, val_set, method_name="DANCE (test)")
        assert isinstance(result, SearchResult)
        assert result.op_indices.shape == (small_space.num_searchable,)
        assert small_hw_space.contains(result.hardware)
        assert result.metrics.latency_ms > 0
        assert 0.0 <= result.accuracy <= 1.0
        assert result.candidates_trained == 1
        assert len(result.history) == FAST_SEARCH.search_epochs

    def test_strong_cost_pressure_prunes_architecture(self, small_space, small_hw_space, small_cost_table, trained_evaluator, tiny_images):
        """With an overwhelming lambda_2 the search must shrink the network (Section 3.4)."""
        train_set, val_set = tiny_images
        heavy_cost = DanceConfig(
            search_epochs=3,
            batch_size=32,
            lambda_2=200.0,
            warmup_epochs=0,
            arch_lr=0.05,
            final_training=ClassifierTrainingConfig(epochs=1),
        )
        searcher = DanceSearcher(
            small_space, trained_evaluator, small_cost_table, config=heavy_cost, rng=1
        )
        result = searcher.search(train_set, val_set, method_name="DANCE (heavy cost)", retrain_final=False)
        light_result_flops = small_space.architecture_flops(result.op_indices)

        no_cost = DanceConfig(
            search_epochs=3,
            batch_size=32,
            lambda_2=0.0,
            warmup_epochs=0,
            final_training=ClassifierTrainingConfig(epochs=1),
        )
        baseline_searcher = DanceSearcher(
            small_space, trained_evaluator, small_cost_table, config=no_cost, rng=1
        )
        heavy_result = baseline_searcher.search(
            train_set, val_set, method_name="DANCE (no cost)", retrain_final=False
        )
        heavy_result_flops = small_space.architecture_flops(heavy_result.op_indices)
        assert light_result_flops <= heavy_result_flops

    def test_finalize_uses_oracle_hardware(self, small_space, small_cost_table, trained_evaluator, tiny_images):
        train_set, val_set = tiny_images
        searcher = DanceSearcher(small_space, trained_evaluator, small_cost_table, config=FAST_SEARCH, rng=3)
        params = ArchitectureParameters(small_space, rng=4)
        target = small_space.random_architecture(rng=5)
        params.set_architecture(target)
        result = searcher.finalize(
            params, train_set, val_set, method_name="manual", search_seconds=0.0, retrain_final=False
        )
        expected_config, expected_metrics = small_cost_table.optimal_config(
            target, cost_function=EDAPCostFunction().scalar
        )
        assert result.hardware == expected_config
        assert result.metrics.edap == pytest.approx(expected_metrics.edap)

    def test_linear_cost_function_supported(self, small_space, small_cost_table, trained_evaluator, tiny_images):
        train_set, val_set = tiny_images
        searcher = DanceSearcher(
            small_space,
            trained_evaluator,
            small_cost_table,
            cost_function=LinearCostFunction(4.1, 4.8, 1.0),
            config=FAST_SEARCH,
            rng=5,
        )
        result = searcher.search(train_set, val_set, retrain_final=False)
        assert result.metrics.latency_ms > 0


class TestBaselineSearch:
    def test_baseline_without_penalty(self, small_space, small_hw_space, small_cost_table, tiny_images):
        train_set, val_set = tiny_images
        config = BaselineConfig(
            search_epochs=2, batch_size=32, final_training=ClassifierTrainingConfig(epochs=1)
        )
        searcher = BaselineSearcher(small_space, small_cost_table, config=config, rng=0)
        result = searcher.search(train_set, val_set, retrain_final=False)
        assert "No penalty" in result.method
        assert small_hw_space.contains(result.hardware)

    def test_flops_penalty_shrinks_architecture(self, small_space, small_cost_table, tiny_images):
        train_set, val_set = tiny_images
        no_penalty = BaselineSearcher(
            small_space,
            small_cost_table,
            config=BaselineConfig(search_epochs=3, batch_size=32, flops_penalty=0.0),
            rng=1,
        ).search(train_set, val_set, retrain_final=False)
        with_penalty = BaselineSearcher(
            small_space,
            small_cost_table,
            config=BaselineConfig(search_epochs=3, batch_size=32, flops_penalty=50.0, arch_lr=0.05),
            rng=1,
        ).search(train_set, val_set, retrain_final=False)
        assert "Flops penalty" in with_penalty.method
        assert small_space.architecture_flops(with_penalty.op_indices) <= small_space.architecture_flops(
            no_penalty.op_indices
        )


class TestRLCoExploration:
    def test_rl_search_trains_many_candidates(self, small_space, small_hw_space, small_cost_table, tiny_images):
        train_set, val_set = tiny_images
        config = RLCoExplorationConfig(
            num_candidates=4,
            candidate_training=ClassifierTrainingConfig(epochs=1, batch_size=32),
            final_training=ClassifierTrainingConfig(epochs=1, batch_size=32),
        )
        searcher = RLCoExplorationSearcher(
            small_space, small_hw_space, small_cost_table, config=config, rng=0
        )
        result = searcher.search(train_set, val_set, retrain_final=False)
        assert result.candidates_trained == 4
        assert len(result.history) == 4
        assert small_hw_space.contains(result.hardware)

    def test_rl_controller_improves_reward_signal(self):
        from repro.core.rl_coexplore import _SoftmaxController

        rng = np.random.default_rng(0)
        controller = _SoftmaxController([3], lr=0.5, rng=rng)
        # Reward decision 0 only; its probability should rise.
        for _ in range(50):
            decision = controller.sample()
            reward = 1.0 if decision[0] == 0 else -1.0
            controller.update(decision, reward)
        probabilities = np.exp(controller.logits[0]) / np.exp(controller.logits[0]).sum()
        assert probabilities[0] > 0.8


class TestQuickstartPipeline:
    def test_quick_coexploration_runs(self):
        from repro import quick_coexploration

        result = quick_coexploration(seed=0, search_epochs=1, num_eval_samples=150)
        assert isinstance(result, SearchResult)
        assert result.metrics.edap > 0
