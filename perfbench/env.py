"""Where the program lives relative to the benchmark, and what it runs on."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")


class MissingProgram(RuntimeError):
    pass


def use_checkout_source() -> None:
    """Put this checkout's ``src`` first on the import path, so the package
    measured is the one next to the benchmark and never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "srbb", "__init__.py")):
        raise MissingProgram(f"no srbb package under {SRC}")
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)


def check_imported(module) -> None:
    where = os.path.abspath(module.__file__)
    if not where.startswith(os.path.join(SRC, "srbb") + os.sep):
        raise MissingProgram(f"srbb was imported from {where}, not from {SRC}")


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine(srbb_threads) -> dict:
    """The stack a result was measured on; ``srbb_threads`` is the value
    SRBB_THREADS had in the environment (the benchmark unsets it)."""
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "srbb_threads_env": srbb_threads,
        "platform": platform.platform(),
    }
