"""Shared infrastructure for the benchmark harness.

Every table and figure of the paper's evaluation section has a benchmark
module in this directory.  The benchmarks are pytest(-benchmark) tests that

* build the workloads / search spaces the experiment needs,
* run the searches or surrogate trainings,
* print the reproduced rows next to the numbers the paper reports, and
* assert the *shape* of the result (who wins, in which direction), not the
  absolute values — the substrate here is an analytical simulator, not the
  authors' GPU cluster and Timeloop installation.

Set the environment variable ``REPRO_BENCH_SCALE`` to ``small`` (default) or
``full`` to trade fidelity against runtime.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import pytest

from repro.core import ClassifierTrainingConfig
from repro.data import make_cifar_like, train_val_split
from repro.evaluator import Evaluator, generate_evaluator_dataset, train_evaluator
from repro.hwmodel import CostTable, HardwareSearchSpace, tiny_search_space
from repro.nas import build_cifar_search_space
from repro.utils.seeding import seed_everything

from bench_utils import bench_scale


@dataclass(frozen=True)
class BenchmarkBudget:
    """Knobs that differ between the small and full benchmark scales."""

    evaluator_samples: int
    evaluator_hw_epochs: int
    evaluator_cost_epochs: int
    search_epochs: int
    final_epochs: int
    image_samples: int
    rl_candidates: int
    pareto_points: int


def get_budget() -> BenchmarkBudget:
    if bench_scale() == "full":
        return BenchmarkBudget(
            evaluator_samples=8000,
            evaluator_hw_epochs=60,
            evaluator_cost_epochs=100,
            search_epochs=6,
            final_epochs=10,
            image_samples=600,
            rl_candidates=12,
            pareto_points=4,
        )
    return BenchmarkBudget(
        evaluator_samples=2500,
        evaluator_hw_epochs=25,
        evaluator_cost_epochs=45,
        search_epochs=3,
        final_epochs=4,
        image_samples=320,
        rl_candidates=5,
        pareto_points=3,
    )


@pytest.fixture(autouse=True)
def _seed():
    seed_everything(2021)
    yield


@pytest.fixture(scope="session")
def budget():
    return get_budget()


@pytest.fixture(scope="session")
def cifar_nas_space():
    return build_cifar_search_space()


@pytest.fixture(scope="session")
def hw_space():
    """The hardware space used by the benchmarks.

    The tiny 81-configuration space keeps the exhaustive oracle cheap enough
    to be called thousands of times while preserving the full structure
    (both PE dimensions, RF size and all three dataflows are searched).
    The ``full`` scale switches to the complete 1215-configuration space.
    """
    if bench_scale() == "full":
        return HardwareSearchSpace()
    return tiny_search_space()


@pytest.fixture(scope="session")
def cifar_cost_table(cifar_nas_space, hw_space):
    return CostTable(cifar_nas_space, hw_space)


@pytest.fixture(scope="session")
def cifar_evaluator_data(cifar_nas_space, hw_space, cifar_cost_table, budget):
    dataset = generate_evaluator_dataset(
        cifar_nas_space,
        hw_space,
        num_samples=budget.evaluator_samples,
        cost_table=cifar_cost_table,
        rng=0,
    )
    return dataset.split(0.85, rng=1)


@pytest.fixture(scope="session")
def trained_cifar_evaluator(cifar_nas_space, hw_space, cifar_evaluator_data, budget):
    train, val = cifar_evaluator_data
    evaluator = Evaluator(cifar_nas_space, hw_space, feature_forwarding=True, rng=2)
    train_evaluator(
        evaluator,
        train,
        val,
        hw_epochs=budget.evaluator_hw_epochs,
        cost_epochs=budget.evaluator_cost_epochs,
        rng=3,
    )
    return evaluator


@pytest.fixture(scope="session")
def cifar_images(budget):
    dataset = make_cifar_like(num_samples=budget.image_samples, resolution=8, rng=0)
    return train_val_split(dataset, val_fraction=0.25, rng=1)


@pytest.fixture(scope="session")
def final_training_config(budget):
    return ClassifierTrainingConfig(epochs=budget.final_epochs, batch_size=32, lr=0.05)


def print_section(title: str) -> None:
    """Visually separate benchmark output sections."""
    bar = "=" * len(title)
    print(f"\n{bar}\n{title}\n{bar}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the reproduced tables at the end of the run and persist them.

    Benchmark fixtures record their tables through ``bench_utils.report``;
    per-test stdout is captured by pytest, so this hook is what makes the
    reproduced rows visible in a quiet ``pytest benchmarks/ --benchmark-only``
    run and saves them to ``benchmark_tables.txt`` for later inspection.
    """
    from bench_utils import REPORT_LINES

    if not REPORT_LINES:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("Reproduced tables and figures (recorded during this run):")
    for line in REPORT_LINES:
        terminalreporter.write_line(line)
    output_path = os.path.join(os.path.dirname(__file__), "..", "benchmark_tables.txt")
    with open(os.path.abspath(output_path), "w", encoding="utf-8") as handle:
        handle.write("\n".join(REPORT_LINES) + "\n")
    terminalreporter.write_line(
        f"(also written to {os.path.abspath(output_path)})"
    )
