"""Seeded inputs of ``serve_mixed``: a runs tree, request schedules and job payloads.

Everything is drawn from ``random.Random`` / ``numpy`` generators seeded by
the workload seed, so one seed always yields the same tree and the same
requests.  The tree is written with the program's own writers
(``ExperimentConfig.save``, ``save_json``, ``save_checkpoint``) so its files
have exactly the shape real runs leave behind, and every result's metrics
come from the cost table, so its EDAP is the oracle's.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

FINISHED_RUNS = 200
CHECKPOINTED_RUNS = 4
FAILED_RUNS = 4
#: float64 values in each checkpointed run's body (about 2.5 MB of JSON).
CHECKPOINT_VALUES = 120_000
METHODS = ("dance", "baseline", "baseline_flops", "rl")

#: Request mix of ``serve_mixed``: endpoint -> weight (percent).
MIX = {"summary": 30, "runs": 25, "cost": 20, "pareto": 10, "report": 5, "jobs": 10}


@dataclass
class RunsTree:
    root: Path
    #: The experiment config every run in the tree shares apart from method and seed.
    config: Any
    names: List[str]
    num_ops: int
    num_searchable: int


@dataclass
class Request:
    due: float
    method: str
    path: str
    body: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {"due": self.due, "method": self.method, "path": self.path, "body": self.body}


def build_runs_tree(root: Path, seed: int) -> RunsTree:
    """Write ~200 finished, a few checkpointed and a few failed runs under ``root``."""
    import numpy as np

    from repro.core.results import SearchResult
    from repro.experiments import ExperimentConfig, build_hw_space, build_search_space
    from repro.experiments.config import METHODS as METHOD_NAMES
    from repro.hwmodel.cost_model import CostTable
    from repro.utils.serialization import save_checkpoint, save_json

    rng = random.Random(seed)
    arrays = np.random.default_rng(seed)
    base = ExperimentConfig()
    nas_space = build_search_space(base)
    table = CostTable(nas_space, build_hw_space(base))
    total = FINISHED_RUNS + CHECKPOINTED_RUNS + FAILED_RUNS
    seeds = rng.sample(range(100_000), total)
    names: List[str] = []
    for index, run_seed in enumerate(seeds):
        config = base.replace(method=rng.choice(METHODS), seed=run_seed)
        workdir = root / config.name
        config.save(workdir / "config.json")
        names.append(config.name)
        if index < FINISHED_RUNS:
            op_indices = np.array(
                [rng.randrange(nas_space.num_ops) for _ in range(nas_space.num_searchable)]
            )
            hardware, metrics = table.optimal_config(op_indices)
            history = [
                {
                    "epoch": float(epoch),
                    "lambda_2": 0.05 if epoch == 0 else config.lambda_2,
                    "train_ce": rng.uniform(2.2, 2.5),
                    "hw_cost": rng.uniform(0.5, 1.0),
                    "entropy": rng.uniform(1.8, 1.95),
                }
                for epoch in range(config.search_epochs)
            ]
            result = SearchResult(
                method=METHOD_NAMES[config.method],
                op_indices=op_indices,
                accuracy=rng.randrange(6, 24) / 64,
                hardware=hardware,
                metrics=metrics,
                search_seconds=rng.uniform(3.0, 9.0),
                candidates_trained=config.rl_candidates if config.method == "rl" else 1,
                history=history,
            )
            save_json(result.to_dict(), workdir / "result.json")
        elif index < FINISHED_RUNS + CHECKPOINTED_RUNS:
            save_checkpoint(
                {
                    "steps_completed": 1,
                    "score": rng.uniform(2.0, 2.5),
                    "state": {"weights": arrays.standard_normal(CHECKPOINT_VALUES)},
                },
                workdir / "checkpoint.json",
            )
        else:
            (workdir / "FAILED.txt").write_text(
                "Traceback (most recent call last):\n"
                f"RuntimeError: injected failure of {config.name}\n",
                encoding="utf-8",
            )
    return RunsTree(root, base, names, nas_space.num_ops, nas_space.num_searchable)


class RequestFactory:
    """Draws the request mix; job seeds come from one counter so they never collide."""

    def __init__(self, tree: RunsTree, seed: int) -> None:
        self.tree = tree
        self.rng = random.Random(seed * 7919 + 17)
        self.deck: List[str] = []
        self.next_job_seed = 1_000_000
        self.jobs: List[str] = []

    def _endpoint(self) -> str:
        """Next endpoint from a shuffled deck holding the mix's exact shares.

        Every 20 consecutive requests hold the mix exactly, so phases of one
        run and runs of different seeds see the same proportions.
        """
        if not self.deck:
            self.deck = [name for name, weight in MIX.items() for _ in range(weight // 5)]
            self.rng.shuffle(self.deck)
        return self.deck.pop()

    def draw(self, due: float) -> Request:
        endpoint = self._endpoint()
        if endpoint == "runs":
            return Request(due, "GET", f"/v1/runs/{self.rng.choice(self.tree.names)}")
        if endpoint == "cost":
            arch = ",".join(
                str(self.rng.randrange(self.tree.num_ops)) for _ in range(self.tree.num_searchable)
            )
            return Request(due, "GET", f"/v1/cost?arch={arch}")
        if endpoint == "jobs":
            method = self.rng.choice(METHODS)
            seed = self.next_job_seed
            self.next_job_seed += 1
            self.jobs.append(f"{method}-cifar-seed{seed}")
            return Request(due, "POST", "/v1/jobs", json.dumps({"method": method, "seed": seed}))
        return Request(due, "GET", f"/v1/{endpoint}")

    def poisson(self, rate: float, seconds: float) -> List[Request]:
        """Open-loop Poisson arrivals at ``rate`` per second for ``seconds``.

        The count is fixed at ``rate * seconds`` and the arrival times are
        uniform over the window (a Poisson process conditioned on its count),
        so every seed offers the same load.
        """
        count = round(rate * seconds)
        dues = sorted(self.rng.uniform(0.0, seconds) for _ in range(count))
        return [self.draw(due) for due in dues]

    def burst(self, count: int) -> List[Request]:
        """``count`` requests all due at once (a closed loop over the connections)."""
        return [self.draw(0.0) for _ in range(count)]

