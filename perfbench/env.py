"""Process environment shared by the benchmark's scripts.

`pin()` must run before numpy is first imported: it fixes the BLAS/OpenMP
thread count and puts the checkout's own src/ first on sys.path, so that the
benchmark measures the source tree it sits in and never an installed copy.
"""

from __future__ import annotations

import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "perfbench", ".work")

# One thread: the dense kernels here are small (n <= a few hundred), and a
# single thread makes runs repeatable and leaves the second core to the OS.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "GRAPHFIELD_THREADS")


def _missing(message):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def pin():
    """Pin threads and the import path; exit with code 2 if the checkout has
    no graphfield sources to measure."""
    if "numpy" in sys.modules:
        raise RuntimeError("env.pin() must run before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    if not os.path.isfile(os.path.join(SRC, "graphfield", "__init__.py")):
        _missing(f"no graphfield sources under {SRC}")
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)


def check_origin(module):
    """Exit with code 2 unless `module` was imported from this checkout."""
    path = os.path.abspath(module.__file__)
    if not path.startswith(SRC + os.sep):
        _missing(f"graphfield imported from {path}, not from {SRC}")


def describe() -> dict:
    """The environment a result was measured in (own process only)."""
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": THREADS,
        "timers": "time.perf_counter, resource.getrusage(RUSAGE_SELF), tracemalloc",
    }
