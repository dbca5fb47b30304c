#!/usr/bin/env python3
"""Train the differentiable evaluator and reproduce Table-1-style metrics.

This example focuses on the paper's core contribution in isolation: modelling
the (non-differentiable) hardware generation + cost estimation toolchain with
neural networks.  Component assembly goes through the experiment factory
(:mod:`repro.experiments.factory`), so the spaces, oracle dataset and seeds
are exactly the ones a ``python -m repro run --method dance`` search uses.
It

1. generates oracle ground truth (random architectures -> optimal accelerator
   + its latency/energy/area) using the exhaustive search over H,
2. trains the hardware generation network (per-field classification) and the
   cost estimation network (MSRE regression), with and without feature
   forwarding,
3. prints a Table-1 style accuracy summary and the surrogate-vs-oracle
   hardware-generation speedup.

Usage::

    python examples/evaluator_training.py [--samples 4000] [--full-hw-space]
"""

from __future__ import annotations

import argparse
import time

from repro.evaluator import (
    METRIC_ORDER,
    generate_evaluator_dataset,
    train_cost_estimation_network,
    train_evaluator,
)
from repro.evaluator.cost_estimation_net import CostEstimationNetwork
from repro.evaluator import Evaluator
from repro.experiments import ExperimentConfig
from repro.experiments.factory import (
    SEED_EVAL_DATA,
    SEED_EVAL_INIT,
    SEED_EVAL_SPLIT,
    SEED_EVAL_TRAIN,
    build_hw_space,
    build_search_space,
)
from repro.hwmodel import ExhaustiveHardwareGenerator
from repro.hwmodel.cost_model import CostTable


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=4000, help="number of oracle ground-truth samples")
    parser.add_argument("--hw-epochs", type=int, default=40, help="hardware generation network epochs")
    parser.add_argument("--cost-epochs", type=int, default=80, help="cost estimation network epochs")
    parser.add_argument(
        "--full-hw-space",
        action="store_true",
        help="use the full 1215-configuration hardware space instead of the reduced 81-configuration one",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    config = ExperimentConfig(
        seed=args.seed,
        hw_space="full" if args.full_hw_space else "tiny",
        evaluator_samples=args.samples,
        evaluator_hw_epochs=args.hw_epochs,
        evaluator_cost_epochs=args.cost_epochs,
    )
    nas_space = build_search_space(config)
    hw_space = build_hw_space(config)
    print(f"Architecture space: {nas_space.num_searchable} searchable layers x {nas_space.num_ops} ops")
    print(f"Hardware space    : {len(hw_space)} configurations, encoding width {hw_space.encoding_width}")

    print("\n[1/3] Building the layer cost table and generating oracle ground truth ...")
    start = time.time()
    cost_table = CostTable(nas_space, hw_space)
    dataset = generate_evaluator_dataset(
        nas_space,
        hw_space,
        num_samples=config.evaluator_samples,
        cost_table=cost_table,
        rng=config.seed + SEED_EVAL_DATA,
    )
    train_data, val_data = dataset.split(0.85, rng=config.seed + SEED_EVAL_SPLIT)
    print(f"    {len(dataset)} samples in {time.time() - start:.1f}s "
          f"({len(train_data)} train / {len(val_data)} validation)")

    print("\n[2/3] Training the evaluator (with feature forwarding) ...")
    evaluator = Evaluator(
        nas_space, hw_space, feature_forwarding=True, rng=config.seed + SEED_EVAL_INIT
    )
    result = train_evaluator(
        evaluator,
        train_data,
        val_data,
        hw_epochs=config.evaluator_hw_epochs,
        cost_epochs=config.evaluator_cost_epochs,
        rng=config.seed + SEED_EVAL_TRAIN,
    )

    print("\n    Training a no-feature-forwarding cost estimation network for comparison ...")
    no_ff = CostEstimationNetwork(dataset.encoding, feature_forwarding=False, rng=args.seed + 10)
    no_ff_history = train_cost_estimation_network(
        no_ff, train_data, val_data, epochs=config.evaluator_cost_epochs, rng=args.seed + 11
    )

    print("\n[3/3] Table-1 style summary (validation accuracy)")
    print("    Hardware generation network:")
    for field in dataset.encoding.hw_field_order:
        print(f"        {field:<10} {result.hw_generation_history.accuracies[field] * 100:6.2f}%")
    print("    Cost estimation network:")
    for metric in METRIC_ORDER:
        with_ff = result.cost_estimation_history.accuracies[metric]
        without_ff = no_ff_history.accuracies[metric]
        print(f"        {metric:<12} w/o FF {without_ff * 100:6.2f}%    w/ FF {with_ff * 100:6.2f}%")
    print("    Overall evaluator (generation -> estimation):")
    for metric in METRIC_ORDER:
        print(f"        {metric:<12} {result.end_to_end_accuracy[metric] * 100:6.2f}%")

    # Surrogate vs exhaustive hardware generation speed (Section 4.2).
    arch = nas_space.random_architecture(rng=args.seed + 6)
    encoding = nas_space.encode_indices(arch)
    start = time.perf_counter()
    for _ in range(20):
        evaluator.hw_generation.predict_config(encoding)
    surrogate_ms = (time.perf_counter() - start) / 20 * 1e3
    start = time.perf_counter()
    ExhaustiveHardwareGenerator(hw_space).generate(nas_space.build_workload(arch))
    exhaustive_ms = (time.perf_counter() - start) * 1e3
    print("\n    Hardware generation speed:")
    print(f"        surrogate network : {surrogate_ms:8.2f} ms / architecture")
    print(f"        exhaustive search : {exhaustive_ms:8.1f} ms / architecture")
    print(f"        speedup           : {exhaustive_ms / max(surrogate_ms, 1e-9):8.1f}x")


if __name__ == "__main__":
    main()
