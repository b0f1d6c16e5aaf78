"""Host fingerprint recorded with every result."""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import platform
import statistics
import time
from pathlib import Path
from typing import Optional

import numpy as np

#: Thread-count variables the benchmark pins to 1 before numpy loads,
#: so the two pool workers cannot oversubscribe the host with BLAS or
#: OpenMP threads.
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")


def blas_threads() -> Optional[int]:
    """Threads numpy's bundled OpenBLAS uses, or ``None`` if unknown."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            library = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _blas_version() -> str:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:
        return "unknown"
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def speed_probe(repeats: int = 3) -> dict:
    """Seconds a fixed Python loop and a fixed memory stream take now.

    Taken before and after a run's timed passes, so that a slower host
    can be told apart from a slower program.  Neither probe runs any
    ``repro`` code.
    """
    a = np.ones(2 * 2 ** 20)
    b = np.ones_like(a)
    loop, stream = [], []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i
        loop.append(time.perf_counter() - started)
        started = time.perf_counter()
        for _ in range(8):
            np.add(a, b, out=a)
        stream.append(time.perf_counter() - started)
    return {"python_loop_s": statistics.median(loop),
            "memory_stream_s": statistics.median(stream)}


def describe_probes(records) -> str:
    """Median speed probes of run records, before their timed passes."""
    probes = [record["speed_probe"]["before"] for record in records]
    loop = statistics.median(probe["python_loop_s"] for probe in probes)
    stream = statistics.median(probe["memory_stream_s"]
                               for probe in probes)
    return (f"host speed probe (median): python loop {loop:.4f} s, "
            f"memory stream {stream:.4f} s")


def fingerprint(seed: int) -> dict:
    """CPU counts, versions, BLAS threads, pool start method, seed."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_version(),
        "blas_threads": blas_threads(),
        "thread_pins": {name: os.environ.get(name)
                        for name in THREAD_PINS},
        "pool_start_method": (
            multiprocessing.get_start_method(allow_none=True)
            or multiprocessing.get_all_start_methods()[0]),
        "seed": seed,
    }
