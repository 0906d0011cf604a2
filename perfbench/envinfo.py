"""Environment block: what the numbers were measured on.

Records the BLAS thread count as found. The benchmark never sets
``OPENBLAS_NUM_THREADS`` or similar: oversubscribing a small machine with
BLAS threads is a property of the program under test, not of the
benchmark, and pinning it would hide it.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import numpy
import scipy
import scipy.linalg  # noqa: F401 - loads scipy's own BLAS so it is listed below

_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_GET_THREADS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
)


def _commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
    )
    return out.stdout.strip() or None


def _openblas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return {}
    threads = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in _GET_THREADS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads[Path(path).name] = int(fn())
                break
    return threads


def _numba() -> str:
    try:
        return version("numba")
    except PackageNotFoundError:
        return "absent"


def environment(root: Path) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _commit(root),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in _THREAD_ENV if k in os.environ},
        "numba": _numba(),
    }
