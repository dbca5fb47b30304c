"""One cold set-up of a workload in a fresh interpreter; prints its seconds.

    python3 perfbench/setup_probe.py WORKLOAD WORKDIR

The clock starts before ``import repro`` and stops where the workload's
first timed operation would begin: for the sweeps once the run objects are
built, for ``serve_mixed`` once ``create_server`` is listening and the first
(cold) ``GET /v1/report`` has filled the results-browser cache under
``WORKDIR``.  ``PYTHONPATH`` must already point at the program's sources.
"""

from __future__ import annotations

import sys
import time

from workloads import ASHA_CANDIDATES, ASHA_CONFIG, ASHA_ETA, ASHA_MIN_STEPS


def main(argv: list) -> int:
    workload, workdir = argv
    start = time.perf_counter()
    from repro.experiments import ExperimentConfig, Runner, SweepPlan

    if workload == "dance_fig5":
        Runner(workdir)
        ExperimentConfig(method="dance")
    elif workload == "asha_sweep":
        from repro.experiments.schedulers import ASHA

        SweepPlan.from_grid(ExperimentConfig(**ASHA_CONFIG), seeds=list(range(ASHA_CANDIDATES)))
        ASHA(eta=ASHA_ETA, min_steps=ASHA_MIN_STEPS)
    elif workload == "serve_mixed":
        import threading
        import urllib.request

        from repro.serve.app import create_server

        server = create_server(workdir, port=0)
        thread = threading.Thread(target=server.serve_forever)
        thread.start()
        try:
            with urllib.request.urlopen(f"{server.url}/v1/report", timeout=60) as response:
                response.read()
        finally:
            server.shutdown()
            thread.join()
            server.server_close()
    else:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    print(time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
