"""Shared fixtures for the test suite.

Expensive objects (search spaces, cost tables, datasets) are session-scoped
so that the many tests that need them do not rebuild them repeatedly.
"""

from __future__ import annotations

import pytest

from repro.data import make_cifar_like, train_val_split
from repro.evaluator import generate_evaluator_dataset
from repro.hwmodel import AcceleratorCostModel, CostTable, HardwareSearchSpace, tiny_search_space
from repro.nas import build_cifar_search_space
from repro.utils.seeding import seed_everything


@pytest.fixture(autouse=True)
def _seed_each_test():
    """Keep every test deterministic regardless of execution order."""
    seed_everything(1234)
    yield


@pytest.fixture(scope="session")
def nas_space():
    """The CIFAR-like ProxylessNAS search space (9 searchable layers)."""
    return build_cifar_search_space()

@pytest.fixture(scope="session")
def small_nas_space():
    """A reduced 3-position search space for the slowest integration tests."""
    return build_cifar_search_space(num_searchable=3, trainable_resolution=8)


@pytest.fixture(scope="session")
def hw_space():
    """The small (3x3x3x3) hardware space used by fast tests."""
    return tiny_search_space()


@pytest.fixture(scope="session")
def full_hw_space():
    """The full hardware design space of the paper's discretisation."""
    return HardwareSearchSpace()


@pytest.fixture(scope="session")
def cost_model():
    """The analytical accelerator cost oracle."""
    return AcceleratorCostModel()


@pytest.fixture(scope="session")
def cost_table(nas_space, hw_space):
    """Precomputed per-candidate cost table over the tiny hardware space."""
    return CostTable(nas_space, hw_space)


@pytest.fixture(scope="session")
def evaluator_dataset(nas_space, hw_space, cost_table):
    """A small oracle-labelled dataset for evaluator training tests."""
    return generate_evaluator_dataset(
        nas_space, hw_space, num_samples=300, cost_table=cost_table, rng=0
    )


@pytest.fixture(scope="session")
def image_data():
    """A small synthetic CIFAR-like dataset split into train / validation."""
    dataset = make_cifar_like(num_samples=200, resolution=8, rng=0)
    return train_val_split(dataset, val_fraction=0.25, rng=1)
