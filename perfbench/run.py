"""The repository benchmark: three seeded workloads, timed from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ``src/``.
Workloads (see ``GLOSSARY.md`` for every metric):

* ``dance_fig5``  — Figure-5 style λ2 sweep of three default DANCE runs;
* ``asha_sweep``  — ASHA over 8 baseline candidates on 2 forked workers;
* ``serve_mixed`` — mixed open-loop HTTP traffic against ``create_server``.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` the calls into each layer are recorded as spans and the last
line holds the per-layer metrics instead.  Earlier lines record the
environment, the correctness checks and sample counts.  The exit code is 0
only when the workload ran; ``correct`` says whether every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
import workloads  # noqa: E402

#: End-to-end metrics: name -> unit (directions and bounds live in BENCHMARK.json).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "disk_mb": "MB",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "max_rps": "1/s",
    "success_ratio": "fraction",
}
#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
WORK_DIR = ".perfbench"


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def _program_env() -> Dict[str, str]:
    env = dict(os.environ)
    source = str(ROOT / "src")
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_seconds(workload: str, workdir: Path) -> List[float]:
    """Cold set-up times, each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_REPEATS):
        (workdir / ".browser_cache.json").unlink(missing_ok=True)
        completed = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(workdir)],
            env=_program_env(),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(completed.stdout.strip().splitlines()[-1]))
    return samples


def main(argv: List[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    scratch = ROOT / WORK_DIR
    work = scratch / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(args, scratch, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args: argparse.Namespace, scratch: Path, work: Path) -> int:
    import environment

    tree = None
    if args.workload == "serve_mixed":
        tree = workloads.serve_prepare(work, args.seed)
    setup = []
    if not args.trace:
        setup = setup_seconds(args.workload, tree.root if tree is not None else work)

    import repro.experiments  # noqa: F401  (the program, before any probe)

    tracer = trace_dir = plan_cache_before = None
    if args.trace:
        from probes import instrument
        from tracing import Tracer

        tracer = Tracer(f"{args.workload}-seed{args.seed}-{os.getpid()}")
        trace_dir = work / "spans"
        plan_cache_before = instrument(tracer, trace_dir)

    context = workloads.Context(
        seed=args.seed,
        seconds=args.seconds,
        work=work,
        records=scratch / "records",
        tracer=tracer,
    )
    if args.workload == "serve_mixed":
        outcome = workloads.serve_mixed(context, tree)
    else:
        outcome = getattr(workloads, args.workload)(context)

    print("ENV " + json.dumps(environment.record(ROOT)))
    print("INFO " + json.dumps(outcome.info))
    for name, ok, detail in outcome.checks:
        print(f"CHECK {'ok  ' if ok else 'FAIL'} {name}: {detail}")

    if args.trace:
        metrics = _layer_metrics(outcome, tracer, trace_dir, plan_cache_before)
    else:
        values = dict(outcome.metrics)
        values["setup_s"] = stats.median(setup)
        values["peak_rss_mb"] = workloads.peak_rss_mb()
        values["success_ratio"] = 1.0 - outcome.failed / outcome.attempted
        quality = {name: outcome.layer[name] for name in ("core.final_accuracy", "core.final_edap")}
        print("INFO " + json.dumps({"setup_samples_s": setup, **quality}))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    correct = all(ok for _, ok, _ in outcome.checks)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def _layer_metrics(
    outcome: Any, tracer: Any, trace_dir: Path, plan_cache_before: Dict[str, int]
) -> Dict[str, Dict[str, Any]]:
    from layers import PER_LAYER, span_metrics
    from probes import finish_parent
    from tracing import load_flushed, span_cost_seconds

    finish_parent(tracer, trace_dir, plan_cache_before)
    spans, counters = load_flushed(trace_dir)
    root = outcome.root
    # Only spans of the measured workload: checks ran after its root span.
    spans = [span for span in spans if span.start >= root.start and span.end <= root.end]
    values = span_metrics(spans, counters, root, span_cost_seconds())
    values.update(outcome.layer)
    steps = values["core.step.calls"]
    values["schedulers.useful_step_ratio"] = (
        outcome.info.get("finished_steps", 0) / steps if steps else 0.0
    )
    return {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit, _ in PER_LAYER}


if __name__ == "__main__":
    started = time.perf_counter()
    code = main(sys.argv[1:])
    sys.stderr.write(f"perfbench: finished in {time.perf_counter() - started:.1f}s\n")
    sys.exit(code)
