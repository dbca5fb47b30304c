"""The seam between ``src/`` and the out-of-tree benchmark probes.

``perfbench/probes.py`` instruments the program from outside by rebinding
named entry points (sweep worker entries, ``WorkQueue.try_claim``,
``ScheduleCoordinator.sync``, the ``repro.api`` builders, ...).  A refactor
that renames or deletes one of them would only break ``perfbench/run.py
--trace 1`` runs; this test installs every probe against ``src/`` so the
break shows up in the test suite instead.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

INSTALL_PROBES = """
import sys
from pathlib import Path

sys.path[:0] = [sys.argv[1], sys.argv[2]]
import repro.experiments  # the program first, as perfbench/run.py does

from probes import instrument
from tracing import Tracer

instrument(Tracer("seam"), Path(sys.argv[3]))
"""


def test_perfbench_probes_install_against_src(tmp_path):
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            INSTALL_PROBES,
            str(REPO_ROOT / "perfbench"),
            str(REPO_ROOT / "src"),
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
