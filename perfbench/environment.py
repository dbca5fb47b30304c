"""The machine a result was measured on, recorded next to every result.

These fields let absolute seconds be read across machines; none of them
rescales a gated metric.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, Optional

#: Side of the square float64 matrices of the calibration GEMM.
GEMM_SIZE = 384


def _blas_threads() -> Optional[int]:
    """Thread count of the loaded OpenBLAS, if it exports a getter."""
    try:
        maps = Path("/proc/self/maps").read_text(encoding="utf-8")
    except OSError:
        return None
    libraries = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for library in sorted(libraries):
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        completed = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.strip()


def calibration_gemm_ms(repeats: int = 7) -> float:
    """Median time of one ``GEMM_SIZE``-square float64 matrix product."""
    import numpy as np

    rng = np.random.default_rng(0)
    left = rng.standard_normal((GEMM_SIZE, GEMM_SIZE))
    right = rng.standard_normal((GEMM_SIZE, GEMM_SIZE))
    left @ right  # warm the BLAS thread pool
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        left @ right
        times.append(time.perf_counter() - start)
    times.sort()
    return 1000.0 * times[len(times) // 2]


def record(root: Path) -> Dict[str, Any]:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "REPRO_NUM_THREADS": os.environ.get("REPRO_NUM_THREADS"),
        "git_commit": _git_commit(root),
        "calibration_gemm_ms": round(calibration_gemm_ms(), 4),
        "gemm_size": GEMM_SIZE,
    }
