"""Process set-up shared by the benchmark's main process (run.py) and its workers.

``pin_threads`` must run before numpy is first imported: BLAS reads its
thread count once, at load.  The variables are set in this process only and
are inherited by the workers it spawns.

``spin_ms`` times a fixed spin.  The host's speed drifts by 10-30 % within
seconds to minutes, and the spin slows with it, so a time divided by spins
measured next to it in the same process is steady across runs.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from pathlib import Path

BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


# Median time of one spin unit on the 2-core x86_64 host the benchmark was
# built on; normalised times read as if every op had run at that speed.
REF_NOMINAL_MS = 1.6


def spin_ms() -> float:
    """Time one spin unit: half a pure-Python loop, half a small eigensolve,
    the two kinds of work the workloads mix."""
    import numpy as np

    t = time.perf_counter()
    acc = 0
    for i in range(8000):
        acc += i * i % 7
    m = np.random.default_rng(0).random((64, 64))
    np.linalg.eigh(m + m.T)
    return (time.perf_counter() - t) * 1e3


def host_ref_ms(spins: int) -> float:
    """Median of ``spins`` spin units; the median drops one hit by a preemption."""
    return statistics.median(spin_ms() for _ in range(spins))


def normalised(value: float, ref_ms: float) -> float:
    """A time measured next to spins of ``ref_ms``, rescaled to the nominal speed."""
    return value * REF_NOMINAL_MS / ref_ms


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS


def use_source() -> None:
    """Import dgspec from the checkout's ``src``; exit 2 when it is absent."""
    if not (SRC / "dgspec" / "__init__.py").is_file():
        print(f"error: no dgspec sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def environment() -> dict:
    """Versions and thread settings that a result depends on."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
    }
