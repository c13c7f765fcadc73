"""What the numbers were measured on: cores, BLAS, versions, memory."""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import platform
import resource
from pathlib import Path
from typing import Dict, Optional

import numpy as np

# Symbol names of OpenBLAS's thread query across the builds numpy ships.
_OPENBLAS_PREFIXES = ("", "scipy_")
_OPENBLAS_SUFFIXES = ("", "64_")


def _loaded_blas() -> Optional[str]:
    """Path of the BLAS shared library mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            for line in maps:
                path = line.split()[-1]
                name = Path(path).name.lower()
                if "blas" in name or "mkl" in name:
                    return path
    except OSError:
        return None
    return None


def _openblas_call(lib: ctypes.CDLL, stem: str, restype):
    for prefix in _OPENBLAS_PREFIXES:
        for suffix in _OPENBLAS_SUFFIXES:
            fn = getattr(lib, f"{prefix}openblas_{stem}{suffix}", None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = restype
                return fn()
    return None


def blas_info() -> Dict[str, object]:
    """BLAS library name, its build string and thread count (best effort)."""
    path = _loaded_blas()
    info: Dict[str, object] = {"library": Path(path).name if path else "unknown"}
    if path and "openblas" in path.lower():
        lib = ctypes.CDLL(path)
        config = _openblas_call(lib, "get_config", ctypes.c_char_p)
        threads = _openblas_call(lib, "get_num_threads", ctypes.c_int)
        if config is not None:
            info["config"] = config.decode("utf-8", "replace")
        if threads is not None:
            info["threads"] = int(threads)
    return info


def record() -> Dict[str, object]:
    """The environment printed with every result."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "blas": blas_info(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_env": {
            key: os.environ[key]
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ
        },
    }


def _peak_kb(pid: int) -> Optional[int]:
    """VmHWM (peak resident set) of a live process, in kB."""
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        return None
    return None


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its live children (pool replicas).

    Call it while the children still run: a reaped child's peak is only
    visible as the largest one, through ``RUSAGE_CHILDREN``.
    """
    own = _peak_kb(os.getpid())
    if own is None:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = 0
    for child in multiprocessing.active_children():
        children += _peak_kb(child.pid) or 0
    return (own + children) / 1024.0
