"""Process set-up shared by the benchmark runner and its tests.

The benchmark measures the starlog sources of the checkout it sits in, never
an installed copy, and runs numpy single-threaded so that one client in one
process is what gets timed.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class MissingSources(RuntimeError):
    pass


def prepare() -> None:
    """Pin BLAS threads to 1 and put the checkout's ``src`` first on the path.

    Must run before numpy is imported.  Raises MissingSources when the
    checkout holds no starlog package, so that the benchmark fails instead of
    measuring some other copy.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "starlog" / "__init__.py").is_file():
        raise MissingSources(f"no starlog sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import starlog

    if Path(starlog.__file__).resolve().parent != SRC / "starlog":
        raise MissingSources(f"imported starlog from {starlog.__file__}, not from {SRC}")


def benchmark() -> dict:
    """The benchmark's declaration: workloads and the metrics a run reports."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def src_lines() -> int:
    """Line count of the package sources (the code size the roadmap tracks)."""
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def describe(seed: int) -> dict:
    """Environment of a run: cores, versions, thread pinning, seed, code size."""
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
        "src_lines": src_lines(),
    }
