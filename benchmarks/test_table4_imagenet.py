"""Table 4 — Performance of DANCE on ImageNet.

Paper row:

    Baseline + HW    70.6%   10.3 ms   43.0 mJ   EDAP 1212.6
    DANCE (w/ FF)    68.7%    8.1 ms   36.3 mJ   EDAP  808.3

i.e. on the larger task DANCE again finds a design with clearly better
hardware cost at a small accuracy cost.  The ImageNet substitute here is a
synthetic many-class dataset and an ImageNet-scaled layer geometry (larger
channels / features), so the expected shape is: hardware costs are much
larger than the CIFAR ones, and DANCE's design is cheaper than the
baseline's with a bounded accuracy drop.
"""

from __future__ import annotations

import pytest

from repro.core import (
    BaselineConfig,
    BaselineSearcher,
    ClassifierTrainingConfig,
    DanceConfig,
    DanceSearcher,
    EDAPCostFunction,
    format_results_table,
)
from repro.data import make_imagenet_like, train_val_split
from repro.evaluator import Evaluator, generate_evaluator_dataset, train_evaluator
from repro.experiments import Runner, execute_queued
from repro.hwmodel import CostTable
from repro.nas import build_imagenet_search_space

from bench_utils import print_section, report

# Searches are driven by the shared orchestration step loop, dispatched via
# the work-queue cycle of `python -m repro sweep --jobs N` (one in-process
# worker: both flows share the module-scoped ImageNet-proxy setup).
RUNNER = Runner()

PAPER_TABLE4 = {
    "Baseline + HW": {"acc": 70.6, "latency": 10.3, "energy": 43.0, "edap": 1212.6},
    "DANCE (w/ FF)": {"acc": 68.7, "latency": 8.1, "energy": 36.3, "edap": 808.3},
}


@pytest.fixture(scope="module")
def imagenet_setup(hw_space, budget):
    nas_space = build_imagenet_search_space(num_classes=20)
    cost_table = CostTable(nas_space, hw_space)
    dataset = generate_evaluator_dataset(
        nas_space,
        hw_space,
        num_samples=max(budget.evaluator_samples // 2, 500),
        cost_table=cost_table,
        rng=300,
    )
    train_eval, val_eval = dataset.split(0.85, rng=301)
    evaluator = Evaluator(nas_space, hw_space, feature_forwarding=True, rng=302)
    train_evaluator(
        evaluator,
        train_eval,
        val_eval,
        hw_epochs=budget.evaluator_hw_epochs,
        cost_epochs=budget.evaluator_cost_epochs,
        rng=303,
    )
    images = make_imagenet_like(num_samples=budget.image_samples, resolution=8, num_classes=20, rng=304)
    train_images, val_images = train_val_split(images, val_fraction=0.25, rng=305)
    return nas_space, cost_table, evaluator, train_images, val_images


@pytest.fixture(scope="module")
def table4_results(imagenet_setup, budget, tmp_path_factory):
    nas_space, cost_table, evaluator, train_images, val_images = imagenet_setup
    final_training = ClassifierTrainingConfig(epochs=budget.final_epochs, batch_size=32)
    cost_function = EDAPCostFunction()

    def baseline_flow(workdir):
        return RUNNER.execute(
            BaselineSearcher(
                nas_space,
                cost_table,
                hw_cost_function=cost_function,
                config=BaselineConfig(
                    search_epochs=budget.search_epochs, batch_size=32, final_training=final_training
                ),
                rng=310,
            ),
            train_images,
            val_images,
            method_name="Baseline + HW",
            workdir=workdir,
        )

    def dance_flow(workdir):
        return RUNNER.execute(
            DanceSearcher(
                nas_space,
                evaluator,
                cost_table,
                cost_function=cost_function,
                config=DanceConfig(
                    search_epochs=budget.search_epochs,
                    batch_size=32,
                    lambda_2=2.0,
                    warmup_epochs=1,
                    final_training=final_training,
                ),
                rng=311,
            ),
            train_images,
            val_images,
            method_name="DANCE (w/ FF)",
            workdir=workdir,
        )

    queued = execute_queued(
        {"baseline": baseline_flow, "dance": dance_flow}, tmp_path_factory.mktemp("table4_queue")
    )
    baseline, dance = queued["baseline"], queued["dance"]

    print_section("Table 4 (ImageNet-proxy) — reproduced")
    report(format_results_table([baseline, dance]))
    print_section("Table 4 — paper reference")
    for method, row in PAPER_TABLE4.items():
        report(
            f"  {method:<20} acc={row['acc']:5.1f}%  latency={row['latency']:5.1f}ms  "
            f"energy={row['energy']:5.1f}mJ  EDAP={row['edap']:7.1f}"
        )
    return {"baseline": baseline, "dance": dance}


def test_table4_imagenet_costs_exceed_cifar_costs(imagenet_setup, cifar_cost_table, cifar_nas_space):
    """The ImageNet-scale workload is substantially more expensive than the CIFAR one."""
    nas_space, cost_table, _, _, _ = imagenet_setup
    arch = nas_space.random_architecture(rng=0, allow_zero=False)
    _, imagenet_metrics = cost_table.optimal_config(arch)
    _, cifar_metrics = cifar_cost_table.optimal_config(cifar_nas_space.validate_indices(arch))
    assert imagenet_metrics.latency_ms > cifar_metrics.latency_ms
    assert imagenet_metrics.energy_mj > cifar_metrics.energy_mj


def test_table4_dance_cheaper_than_baseline(table4_results):
    """DANCE's co-explored design has better EDAP than the separate-design baseline."""
    assert table4_results["dance"].metrics.edap < table4_results["baseline"].metrics.edap * 1.05


def test_table4_accuracy_drop_is_bounded(table4_results):
    """The accuracy cost of the cheaper design stays small (paper: ~1.9%p)."""
    assert table4_results["dance"].accuracy >= table4_results["baseline"].accuracy - 0.15


def test_table4_designs_valid(table4_results, hw_space):
    for result in table4_results.values():
        assert hw_space.contains(result.hardware)
        assert result.metrics.edap > 0


def test_table4_oracle_scoring_benchmark(table4_results, imagenet_setup, benchmark):
    """Ensures the Table-4 reproduction runs under --benchmark-only and times the oracle scoring step."""
    _, cost_table, _, _, _ = imagenet_setup
    dance = table4_results["dance"]
    config, metrics = benchmark(lambda: cost_table.optimal_config(dance.op_indices))
    assert metrics.edap == pytest.approx(dance.metrics.edap)
