"""Opt-in kernel profiler: per-kernel timing, shapes, and FLOP estimates.

Every kernel in :mod:`repro.nn.backend.kernels` is wrapped by
:func:`profiled`.  With no profiler installed the wrapper is two loads and
a conditional jump on top of the kernel call — effectively free next to an
im2col matmul (gated by ``benchmarks/test_profiler_overhead.py``).  With a
profiler active (:func:`enable_kernel_profiler` or the ``kernel_profile``
context manager) each call records:

* an in-process aggregate (call count, wall seconds, estimated FLOPs and
  bytes moved, the set of input shapes/dtypes seen) — rendered by
  ``repro profile`` and :meth:`KernelProfiler.table`;
* ``kernel.<name>.calls`` / ``kernel.<name>.seconds`` /
  ``kernel.<name>.flops`` instruments in the active telemetry registry, so
  the ``/metrics`` endpoint exposes ``kernel.*`` series;
* a ``kernel.<name>`` span — only when an ambient trace context is active
  (see :mod:`repro.telemetry.trace`), so a traced serving request gets
  per-kernel timings in its tree without training-time span floods.

FLOP estimates use the textbook multiply-add counts (2 FLOPs per MAC) for
matmul-shaped kernels, one FLOP per add or multiply of each window tap for
SSIM's window mean, and one FLOP per output element for elementwise and
pooling kernels; bytes are the ``nbytes`` of array arguments and results.
Estimates, not measurements — good for attributing relative cost layer by
layer, not for quoting absolute GFLOP/s.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.telemetry import current_trace, get_telemetry

#: Bucket bounds for kernel-duration histograms (seconds, 1µs..5s).
KERNEL_BUCKETS = tuple(
    base * 10.0**exp for exp in range(-6, 1) for base in (1.0, 5.0)
)


class KernelStat:
    """Aggregate for one kernel across every profiled call."""

    __slots__ = ("name", "calls", "seconds", "flops", "bytes", "shapes")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.seconds = 0.0
        self.flops = 0.0
        self.bytes = 0.0
        self.shapes: Dict[str, int] = {}  # "(8, 3, 66, 200) f4" -> count

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "calls": self.calls,
            "seconds": self.seconds,
            "flops": self.flops,
            "bytes": self.bytes,
            "shapes": dict(self.shapes),
        }


class KernelProfiler:
    """Collects :class:`KernelStat` aggregates while installed.

    Thread-safe: serving dispatch threads and worker mains may drive
    kernels concurrently in one process.
    """

    def __init__(self) -> None:
        self.stats: Dict[str, KernelStat] = {}
        self._lock = threading.Lock()

    def record(
        self,
        name: str,
        duration: float,
        flops: float,
        nbytes: float,
        shape_key: str,
    ) -> None:
        with self._lock:
            stat = self.stats.get(name)
            if stat is None:
                stat = self.stats[name] = KernelStat(name)
            stat.calls += 1
            stat.seconds += duration
            stat.flops += flops
            stat.bytes += nbytes
            stat.shapes[shape_key] = stat.shapes.get(shape_key, 0) + 1

    def snapshot(self) -> List[Dict[str, Any]]:
        """Aggregates as dicts, sorted by total wall time descending."""
        with self._lock:
            rows = [s.as_dict() for s in self.stats.values()]
        return sorted(rows, key=lambda r: r["seconds"], reverse=True)

    def table(self) -> str:
        """Human-readable aggregate table (what ``repro profile`` prints)."""
        return render_profile_table(self.snapshot())


def render_profile_table(rows: List[Dict[str, Any]]) -> str:
    """Format kernel aggregate rows as an aligned text table."""
    if not rows:
        return "(no kernel calls profiled)"
    lines = [
        f"{'kernel':<28} {'calls':>8} {'seconds':>10} {'ms/call':>9} "
        f"{'GFLOP':>9} {'GB':>8}  top shape"
    ]
    for row in rows:
        calls = row["calls"] or 1
        shapes = row.get("shapes", {})
        top_shape = max(shapes, key=shapes.get) if shapes else "-"
        lines.append(
            f"{row['name']:<28} {row['calls']:>8} {row['seconds']:>10.4f} "
            f"{1e3 * row['seconds'] / calls:>9.3f} "
            f"{row['flops'] / 1e9:>9.3f} {row['bytes'] / 1e9:>8.3f}  {top_shape}"
        )
    return "\n".join(lines)


_ACTIVE: Optional[KernelProfiler] = None


def get_kernel_profiler() -> Optional[KernelProfiler]:
    """The installed profiler, or ``None`` when profiling is off."""
    return _ACTIVE


def enable_kernel_profiler() -> KernelProfiler:
    """Install (and return) a fresh process-wide profiler."""
    global _ACTIVE
    _ACTIVE = KernelProfiler()
    return _ACTIVE


def disable_kernel_profiler() -> None:
    """Remove the installed profiler (kernels revert to the free path)."""
    global _ACTIVE
    _ACTIVE = None


class kernel_profile:
    """Context manager scoping a profiler installation.

    >>> from repro.nn.backend import kernel_profile
    >>> with kernel_profile() as prof:
    ...     pass  # run kernels
    >>> prof.snapshot()
    []
    """

    def __init__(self) -> None:
        self.profiler: Optional[KernelProfiler] = None
        self._previous: Optional[KernelProfiler] = None

    def __enter__(self) -> KernelProfiler:
        global _ACTIVE
        self._previous = _ACTIVE
        self.profiler = KernelProfiler()
        _ACTIVE = self.profiler
        return self.profiler

    def __exit__(self, *exc: Any) -> bool:
        global _ACTIVE
        _ACTIVE = self._previous
        return False


# -- FLOP estimators -------------------------------------------------------
#
# Each estimator mirrors its kernel's positional signature and returns the
# estimated floating-point operation count.  They run only while a profiler
# is installed, and any estimation failure degrades to 0 rather than
# breaking the kernel call.


def _flops_conv2d_forward(x, weight, bias, stride, padding) -> float:
    from repro.nn.backend.kernels import conv_output_size

    n = x.shape[0]
    c_out, c_in, kh, kw = weight.shape
    out_h = conv_output_size(x.shape[2], kh, stride[0], padding[0])
    out_w = conv_output_size(x.shape[3], kw, stride[1], padding[1])
    macs = n * out_h * out_w * c_out * c_in * kh * kw
    return 2.0 * macs


def _flops_conv2d_backward(grad_output, cols, x_shape, weight, *a, **k) -> float:
    # grad_weight and grad_cols are each the same matmul volume as forward.
    n, c_out, out_h, out_w = grad_output.shape
    _, c_in, kh, kw = weight.shape
    macs = n * out_h * out_w * c_out * c_in * kh * kw
    return 4.0 * macs


def _flops_conv_transpose2d(x, weight, stride=1, padding=0) -> float:
    n, c_in, h, w = np.asarray(x).shape
    _, c_out, kh, kw = np.asarray(weight).shape
    macs = n * h * w * c_in * c_out * kh * kw
    return 2.0 * macs


def _flops_conv_transpose2d_backward(grad_output, x, weight, *a, **k) -> float:
    n, _, h, w = x.shape
    c_in, c_out, kh, kw = weight.shape
    macs = n * h * w * c_in * c_out * kh * kw
    return 4.0 * macs


def _flops_dense_forward(x, weight, bias) -> float:
    return 2.0 * x.shape[0] * weight.shape[0] * weight.shape[1]


def _flops_dense_backward(grad_output, x, weight, *a, **k) -> float:
    return 4.0 * x.shape[0] * weight.shape[0] * weight.shape[1]


def _flops_window_mean(x, size, weights=None, *a, **k) -> float:
    # Per axis: size-1 adds, plus the centre multiply and size-1 multiplies
    # for a weighted window or one division for the uniform box.
    per_axis = 2 * size - 1 if weights is not None else size
    return 2.0 * per_axis * x.size


def _flops_elementwise(x, *a, **k) -> float:
    return float(np.asarray(x).size)


_FLOPS: Dict[str, Callable[..., float]] = {
    "conv2d_forward": _flops_conv2d_forward,
    "conv2d_backward": _flops_conv2d_backward,
    "conv_transpose2d": _flops_conv_transpose2d,
    "conv_transpose2d_backward": _flops_conv_transpose2d_backward,
    "dense_forward": _flops_dense_forward,
    "dense_backward": _flops_dense_backward,
    "window_mean": _flops_window_mean,
}


def _estimate_flops(name: str, args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> float:
    estimator = _FLOPS.get(name, _flops_elementwise)
    try:
        return float(estimator(*args, **kwargs))
    except Exception:
        return 0.0


def _array_bytes(value: Any) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(_array_bytes(v) for v in value)
    return 0


def _shape_key(args: Tuple[Any, ...]) -> str:
    for value in args:
        if isinstance(value, np.ndarray):
            return f"{value.shape} {value.dtype.str.lstrip('<>=|')}"
    return "-"


def profiled(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Wrap a kernel with the opt-in profiling hook.

    The undecorated kernel stays reachable as ``wrapper.__wrapped__``
    (benchmarks use it to measure the true baseline).
    """
    name = fn.__name__

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        profiler = _ACTIVE
        if profiler is None:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        duration = time.perf_counter() - start
        flops = _estimate_flops(name, args, kwargs)
        nbytes = _array_bytes(args) + _array_bytes(result)
        shape_key = _shape_key(args)
        profiler.record(name, duration, flops, nbytes, shape_key)
        telem = get_telemetry()
        if telem.enabled:
            telem.counter(f"kernel.{name}.calls").inc()
            telem.counter(f"kernel.{name}.flops").inc(flops)
            telem.histogram(f"kernel.{name}.seconds", buckets=KERNEL_BUCKETS).observe(duration)
            if current_trace() is not None:
                telem.add_span(
                    f"kernel.{name}",
                    duration,
                    context=current_trace().child(),
                    shape=shape_key,
                    flops=flops,
                    bytes=nbytes,
                )
        return result

    return wrapper
