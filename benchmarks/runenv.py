"""What the benchmark ran on: interpreter, numpy, BLAS, cores, CPU, code size."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path

_BLAS_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads")


def _blas() -> tuple[str, int | None]:
    import numpy as np

    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        name = "unknown"
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*blas*.so*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for query in _BLAS_THREAD_QUERIES:
            fn = getattr(lib, query, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def src_lines(root: Path) -> int:
    """Lines in the library's Python sources, the repository's size gauge."""
    total = 0
    for path in sorted((root / "src").rglob("*.py")):
        with open(path, "rb") as f:
            total += sum(1 for _ in f)
    return total


def run_environment(root: Path) -> dict:
    import numpy as np

    blas, threads = _blas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "src_lines": src_lines(root),
    }
