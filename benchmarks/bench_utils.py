"""Small helpers shared by the benchmark modules.

Because pytest captures per-test stdout, tables printed inside benchmark
fixtures would normally be invisible in a quiet run.  ``report`` therefore
both prints a line and records it; the conftest's ``pytest_terminal_summary``
hook replays every recorded line at the end of the session and writes them to
``benchmark_tables.txt`` in the repository root, so the reproduced tables are
always part of the benchmark output.
"""

from __future__ import annotations

import os
from typing import List

#: Lines recorded by :func:`report`, replayed in the terminal summary.
REPORT_LINES: List[str] = []


def bench_scale() -> str:
    """Benchmark scale: ``small`` (CI-friendly) or ``full`` (closer to the paper)."""
    return os.environ.get("REPRO_BENCH_SCALE", "small").lower()


def report(text: str = "") -> None:
    """Print ``text`` and record it for the end-of-session summary."""
    print(text)
    REPORT_LINES.append(str(text))


def print_section(title: str) -> None:
    """Visually separate benchmark output sections."""
    bar = "=" * len(title)
    report("")
    report(bar)
    report(title)
    report(bar)


# ----------------------------------------------------------------------
# Legacy (pre-vectorisation) cost-pipeline implementations
# ----------------------------------------------------------------------
# The seed evaluated every (layer, config) pair through per-pair Python
# dispatch.  These reference re-implementations preserve that path so the
# perf benchmarks and ``run_bench.py`` can report honest before/after
# numbers against the batched pipeline.


def legacy_build_cost_table(nas_space, hw_space, cost_model):
    """Nested-loop cost-table construction, as the seed's cost table did it.

    Returns ``(fixed_latency, fixed_energy, op_latency, op_energy, area)``
    numpy arrays (bit-identical to the vectorised CostTable's tensors).
    """
    import numpy as np

    configs = list(hw_space.enumerate())
    num_configs = len(configs)
    num_positions = nas_space.num_searchable
    num_ops = nas_space.num_ops

    op_latency = np.zeros((num_positions, num_ops, num_configs))
    op_energy = np.zeros((num_positions, num_ops, num_configs))
    fixed_latency = np.zeros(num_configs)
    fixed_energy = np.zeros(num_configs)
    area = np.zeros(num_configs)

    fixed_layers = nas_space.fixed_workload_layers()
    for config_index, config in enumerate(configs):
        area[config_index] = cost_model.area_model.total_area_mm2(config)
        for layer in fixed_layers:
            fixed_latency[config_index] += cost_model.latency_model.layer_latency_ms_reference(
                layer, config
            )
            fixed_energy[config_index] += cost_model.energy_model.layer_energy_mj_reference(
                layer, config
            )
    for position in range(num_positions):
        for op_idx in range(num_ops):
            layers = nas_space.op_layers(position, op_idx)
            if not layers:
                continue
            for config_index, config in enumerate(configs):
                latency = 0.0
                energy = 0.0
                for layer in layers:
                    latency += cost_model.latency_model.layer_latency_ms_reference(layer, config)
                    energy += cost_model.energy_model.layer_energy_mj_reference(layer, config)
                op_latency[position, op_idx, config_index] = latency
                op_energy[position, op_idx, config_index] = energy
    return fixed_latency, fixed_energy, op_latency, op_energy, area


def legacy_optimal_config(table, op_indices, cost_function):
    """Per-config Python cost loop, as the seed's optimal_config did it."""
    import numpy as np

    from repro.hwmodel import HardwareMetrics

    latency, energy, area = table.metrics_per_config(op_indices)
    costs = np.array(
        [
            cost_function(HardwareMetrics(latency[i], energy[i], area[i]))
            for i in range(len(table.configs))
        ]
    )
    best = int(np.argmin(costs))
    return table.configs[best], HardwareMetrics(latency[best], energy[best], area[best])


def legacy_generate_evaluator_dataset(nas_space, hw_space, num_samples, table, rng):
    """Sample-at-a-time dataset generation, as the seed implemented it."""
    import numpy as np

    from repro.evaluator.encoding import EvaluatorEncoding
    from repro.hwmodel import edap_cost
    from repro.utils.seeding import as_rng

    generator = as_rng(rng)
    encoding = EvaluatorEncoding(nas_space=nas_space, hw_space=hw_space)
    arch_encodings = np.zeros((num_samples, encoding.arch_width))
    hw_encodings = np.zeros((num_samples, encoding.hw_width))
    hw_labels = {field: np.zeros(num_samples, dtype=np.int64) for field in encoding.hw_field_order}
    metric_targets = np.zeros((num_samples, encoding.num_metrics))
    for sample_index in range(num_samples):
        op_indices = nas_space.random_architecture(rng=generator)
        best_config, best_metrics = legacy_optimal_config(table, op_indices, edap_cost)
        arch_one_hot = encoding.encode_architecture(op_indices)
        if generator.uniform() < 0.25:
            matrix = arch_one_hot.reshape(nas_space.num_searchable, nas_space.num_ops)
            noise = generator.dirichlet(np.ones(nas_space.num_ops), size=nas_space.num_searchable)
            soft = 4.0 * matrix + noise
            soft = soft / soft.sum(axis=1, keepdims=True)
            arch_encodings[sample_index] = soft.reshape(-1)
        else:
            arch_encodings[sample_index] = arch_one_hot
        hw_encodings[sample_index] = encoding.encode_hardware(best_config)
        for field_name, class_index in encoding.hardware_class_indices(best_config).items():
            hw_labels[field_name][sample_index] = class_index
        metric_targets[sample_index] = encoding.metrics_to_vector(best_metrics)
    return arch_encodings, hw_encodings, hw_labels, metric_targets


def legacy_report_scan(root):
    """Pre-browser report scan, as ``Runner.report`` worked before the
    incremental results browser: fully parse every ``result.json`` under
    ``root`` (``SearchResult.from_dict``, numpy arrays and backend config
    included) in ``rglob`` order, then re-derive the queue state of every
    direct-child run directory with per-file ``exists`` probes."""
    import re
    import time
    from pathlib import Path

    from repro.core.results import SearchResult
    from repro.utils.serialization import load_json

    root = Path(root)
    named = []
    for path in sorted(root.rglob("result.json")):
        name = str(path.parent.relative_to(root))
        named.append((name, SearchResult.from_dict(load_json(path))))
    status = {}
    for config_path in sorted(root.glob("*/config.json")):
        workdir = config_path.parent
        if (workdir / "result.json").exists():
            state = "finished"
        elif (workdir / "LOCK").exists():
            state = "running" if time.time() - (workdir / "LOCK").stat().st_mtime < 3600 else "stale"
        elif (workdir / "FAILED.txt").exists():
            state = "failed"
        elif (workdir / "checkpoint.json").exists():
            state = "checkpointed"
        else:
            state = "pending"
        entry = {"state": state}
        if state in ("checkpointed", "running", "stale", "failed"):
            try:
                with (workdir / "checkpoint.json").open("r", encoding="utf-8") as handle:
                    head = handle.read(256)
                match = re.search(r'"steps_completed":\s*(\d+)', head)
                entry["step"] = int(match.group(1)) if match else None
            except OSError:
                entry["step"] = None
        status[workdir.name] = entry
    return named, status
