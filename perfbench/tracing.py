"""The traced run: spans around each layer's public entry points.

Spans are recorded from the benchmark's own code, by wrapping the entry
points for the length of the traced phase and restoring them afterwards;
nothing in ``src/`` changes.  Each span keeps its name, start, duration
and self time (duration minus the time of spans nested inside it on the
same thread).  Spans stay in memory and are written out at the end.

Entry points wrapped:

* ``repro.serving.service.send_message`` / ``recv_message``, tagged
  ``client`` on the benchmark's load threads and ``server`` elsewhere.  A
  receive is timed from when its socket turns readable, so the wait for
  the peer is not counted as decoding;
* ``ServingEngine.submit``, ``PipelineScorer.score_batch`` and
  ``WorkerPool.score_batch``;
* the ``run`` method of every stage class in ``repro.pipeline.stages``;
* ``JsonlSink.emit``;
* ``next_batch`` of the engine's batchers, which yields queue waits and
  batch sizes rather than a span.

Kernel rows come from ``kernel_profile()``; inside pool replicas they come
from the ``kernel.*`` and ``worker.score_batch`` spans the pool ships back
with each reply (see :class:`PoolSpanCollector`).
"""

from __future__ import annotations

import json
import os
import select
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from measure import percentile

# A span: (name, start, duration, self time, thread id).
Span = Tuple[str, float, float, float, int]

#: Pipeline stages reported per frame (the scoring plan's stages).
STAGES = ("cnn_forward", "saliency_cascade", "reconstruct", "similarity", "verdict")

#: Kernels on the scoring path, reported per scored frame.
KERNELS = (
    "conv2d_forward",
    "conv_transpose2d",
    "dense_forward",
    "relu_forward",
    "leaky_relu_forward",
    "sigmoid_forward",
)

#: Every per-layer metric, with its unit; a layer a workload does not
#: cross reports 0.
LAYER_UNITS: Dict[str, str] = {
    "wire.request_bytes": "B",
    "wire.client_encode_ms": "ms",
    "wire.server_decode_ms": "ms",
    "wire.response_codec_ms": "ms",
    "wire.overhead_ms": "ms",
    "engine.submit_ms": "ms",
    "engine.queue_wait_ms.p50": "ms",
    "engine.queue_wait_ms.p99": "ms",
    "engine.batch_size_mean": "frames",
    "engine.batches": "count",
    "engine.scorer_busy_share": "share",
    "scorer.score_batch_ms": "ms",
    **{f"stage.{name}.ms_per_frame": "ms/frame" for name in STAGES},
    **{
        f"kernel.{name}.{field}": unit
        for name in KERNELS
        for field, unit in (
            ("calls", "count/frame"),
            ("ms", "ms/frame"),
            ("flops", "flop/frame"),
            ("bytes", "B/frame"),
        )
    },
    "kernel.coverage": "share",
    "pool.score_batch_ms": "ms",
    "pool.worker_compute_ms": "ms",
    "pool.ipc_ms": "ms",
    "pool.restarts": "count",
    "pool.retries": "count",
    "telemetry.records_per_request": "count",
    "telemetry.bytes_per_request": "B",
    "telemetry.sink_ms_per_request": "ms",
    "telemetry.histogram_samples": "count",
    "setup.bundle_load_s": "s",
    "setup.engine_start_s": "s",
    "setup.first_answer_ms": "ms",
    "loadgen.late_ms.p99": "ms",
    "trace.overhead_share": "share",
}


class SpanRecorder:
    """Wraps entry points while active and keeps their spans in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.queue_waits_ms: List[float] = []
        self.batch_sizes: List[int] = []
        self._pid = os.getpid()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- thread roles ----------------------------------------------------
    def mark_client(self) -> None:
        """Called on each load thread: its wire calls are the client side."""
        self._local.client = True

    def _side(self) -> str:
        return "client" if getattr(self._local, "client", False) else "server"

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrapping --------------------------------------------------------
    def _patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            return  # the entry point is gone; its metrics read 0
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _timed(self, fn: Callable[..., Any], name: Any, wait_readable: bool = False):
        recorder = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != recorder._pid:
                return fn(*args, **kwargs)  # inside a forked pool replica
            if wait_readable:
                select.select([args[0]], [], [], 60.0)
            label = name(recorder) if callable(name) else name
            stack = recorder._stack()
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                recorder.spans.append(
                    (label, start, duration, duration - children[0], threading.get_ident())
                )

        return wrapper

    def _batcher_hook(self, fn: Callable[..., Any]):
        recorder = self

        def next_batch(*args: Any, **kwargs: Any) -> Any:
            batch = fn(*args, **kwargs)
            if batch:
                now = time.monotonic()
                recorder.batch_sizes.append(len(batch))
                recorder.queue_waits_ms.extend(
                    (now - request.enqueued_at) * 1e3 for request in batch
                )
            return batch

        return next_batch

    def install(self) -> None:
        from repro.pipeline import stages
        from repro.serving import (
            MicroBatcher,
            PipelineScorer,
            ServingEngine,
            WeightedClassBatcher,
            WorkerPool,
            service,
        )
        from repro.telemetry import JsonlSink, TraceContext, use_trace

        side = lambda verb: lambda rec: f"wire.{rec._side()}.{verb}"  # noqa: E731
        self._patch(service, "send_message", lambda fn: self._timed(fn, side("send")))
        self._patch(
            service, "recv_message",
            lambda fn: self._timed(fn, side("recv"), wait_readable=True),
        )
        self._patch(ServingEngine, "submit", lambda fn: self._timed(fn, "engine.submit"))
        self._patch(
            PipelineScorer, "score_batch", lambda fn: self._timed(fn, "scorer.score_batch")
        )

        def pool_score(fn):
            timed = self._timed(fn, "pool.score_batch")

            def score_batch(pool, frames):
                # A current trace makes replicas record and ship back
                # their worker.score_batch, stage and kernel spans.
                with use_trace(TraceContext.new_root()):
                    return timed(pool, frames)

            return score_batch

        self._patch(WorkerPool, "score_batch", pool_score)
        for value in vars(stages).values():
            stage_name = getattr(value, "name", None)
            if (
                isinstance(value, type)
                and value.__module__ == stages.__name__
                and isinstance(stage_name, str)
                and hasattr(value, "run")
            ):
                self._patch(
                    value, "run", lambda fn, n=stage_name: self._timed(fn, f"stage.{n}")
                )
        self._patch(JsonlSink, "emit", lambda fn: self._timed(fn, "telemetry.sink_emit"))
        for batcher in (MicroBatcher, WeightedClassBatcher):
            self._patch(batcher, "next_batch", self._batcher_hook)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- queries ---------------------------------------------------------
    def by_name(self) -> Dict[str, List[Span]]:
        groups: Dict[str, List[Span]] = defaultdict(list)
        for span in self.spans:
            groups[span[0]].append(span)
        return groups

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for name, start, duration, self_time, thread in self.spans:
                out.write(
                    json.dumps(
                        {"name": name, "start": start, "duration": duration,
                         "self": self_time, "thread": thread}
                    )
                    + "\n"
                )


class PoolSpanCollector:
    """Stands in for the pool module's telemetry handle while traced.

    ``WorkerPool.score_batch`` replays the span records a replica ships
    back into ``get_telemetry()``; with this object installed as the pool
    module's ``get_telemetry`` those records land here instead, without
    turning on telemetry for the rest of the process.
    """

    enabled = True

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []

    def replay_span(self, record: Dict[str, Any]) -> None:
        self.records.append(record)

    def counter(self, name: str):
        from repro.telemetry import NullTelemetry

        return NullTelemetry().counter(name)

    def install(self) -> Callable[[], None]:
        from repro.serving import pool

        original = pool.get_telemetry
        pool.get_telemetry = lambda: self
        return lambda: setattr(pool, "get_telemetry", original)


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _durations(groups: Dict[str, List[Span]], name: str, field: int = 2) -> List[float]:
    return [span[field] for span in groups.get(name, [])]


def layer_metrics(
    recorder: SpanRecorder,
    *,
    requests: int,
    frames_scored: int,
    wall_s: float,
    kernel_rows: List[Dict[str, Any]],
    pool_records: List[Dict[str, Any]],
    wire_overheads_ms: List[float],
    request_bytes: List[int],
    telemetry_bytes: int,
    histogram_samples: int,
    pool_restarts: int,
    engine_retries: int,
    setup: Dict[str, float],
    late_ms: List[float],
    overhead_share: float,
) -> Dict[str, float]:
    """Fold one traced phase into every metric of :data:`LAYER_UNITS`."""
    metrics = dict.fromkeys(LAYER_UNITS, 0.0)
    groups = recorder.by_name()
    per_request = 1.0 / requests if requests else 0.0
    per_frame = 1.0 / frames_scored if frames_scored else 0.0

    # wire (serving.service)
    metrics["wire.request_bytes"] = _mean([float(b) for b in request_bytes])
    metrics["wire.client_encode_ms"] = 1e3 * _mean(_durations(groups, "wire.client.send"))
    metrics["wire.server_decode_ms"] = 1e3 * _mean(_durations(groups, "wire.server.recv"))
    metrics["wire.response_codec_ms"] = 1e3 * (
        _mean(_durations(groups, "wire.server.send"))
        + _mean(_durations(groups, "wire.client.recv"))
    )
    metrics["wire.overhead_ms"] = _mean(wire_overheads_ms)

    # engine, batcher, admission
    metrics["engine.submit_ms"] = 1e3 * _mean(_durations(groups, "engine.submit", 3))
    if recorder.queue_waits_ms:
        metrics["engine.queue_wait_ms.p50"] = percentile(recorder.queue_waits_ms, 50.0)
        metrics["engine.queue_wait_ms.p99"] = percentile(recorder.queue_waits_ms, 99.0)
    metrics["engine.batch_size_mean"] = _mean([float(b) for b in recorder.batch_sizes])
    metrics["engine.batches"] = float(len(recorder.batch_sizes))

    # pipeline stages: in process from the wrappers, in replicas from the
    # spans the pool shipped back.
    worker = [r for r in pool_records if r.get("name") == "worker.score_batch"]
    scorer_times = _durations(groups, "scorer.score_batch")
    if worker:
        scorer_times = [float(r["duration"]) for r in worker]
    pool_times = _durations(groups, "pool.score_batch")
    busy = sum(pool_times) if pool_times else sum(scorer_times)
    metrics["engine.scorer_busy_share"] = busy / wall_s if wall_s > 0 else 0.0
    metrics["scorer.score_batch_ms"] = 1e3 * _mean(scorer_times)
    for stage in STAGES:
        local = sum(_durations(groups, f"stage.{stage}", 3))
        shipped = sum(
            float(r["duration"]) for r in pool_records if r.get("name") == f"stage.{stage}"
        )
        metrics[f"stage.{stage}.ms_per_frame"] = 1e3 * (local + shipped) * per_frame

    # kernels
    rows: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for row in kernel_rows:
        for key in ("calls", "seconds", "flops", "bytes"):
            rows[row["name"]][key] += float(row[key])
    for record in pool_records:
        name = str(record.get("name", ""))
        if name.startswith("kernel."):
            attrs = record.get("attrs", {})
            row = rows[name[len("kernel."):]]
            row["calls"] += 1
            row["seconds"] += float(record.get("duration", 0.0))
            row["flops"] += float(attrs.get("flops", 0.0))
            row["bytes"] += float(attrs.get("bytes", 0.0))
    for name in KERNELS:
        row = rows.get(name, {})
        metrics[f"kernel.{name}.calls"] = row.get("calls", 0.0) * per_frame
        metrics[f"kernel.{name}.ms"] = 1e3 * row.get("seconds", 0.0) * per_frame
        metrics[f"kernel.{name}.flops"] = row.get("flops", 0.0) * per_frame
        metrics[f"kernel.{name}.bytes"] = row.get("bytes", 0.0) * per_frame
    kernel_seconds = sum(row.get("seconds", 0.0) for row in rows.values())
    if scorer_times:
        metrics["kernel.coverage"] = kernel_seconds / sum(scorer_times)

    # worker pool
    if pool_times:
        metrics["pool.score_batch_ms"] = 1e3 * _mean(pool_times)
        metrics["pool.worker_compute_ms"] = 1e3 * _mean(scorer_times)
        metrics["pool.ipc_ms"] = metrics["pool.score_batch_ms"] - metrics["pool.worker_compute_ms"]
    metrics["pool.restarts"] = float(pool_restarts)
    metrics["pool.retries"] = float(engine_retries)

    # telemetry and the kernel profiler
    emits = _durations(groups, "telemetry.sink_emit")
    metrics["telemetry.records_per_request"] = len(emits) * per_request
    metrics["telemetry.bytes_per_request"] = telemetry_bytes * per_request
    metrics["telemetry.sink_ms_per_request"] = 1e3 * sum(emits) * per_request
    metrics["telemetry.histogram_samples"] = float(histogram_samples)

    # startup
    metrics["setup.bundle_load_s"] = setup["bundle_load_s"]
    metrics["setup.engine_start_s"] = setup["engine_start_s"]
    metrics["setup.first_answer_ms"] = setup["first_answer_ms"]

    # harness validity
    metrics["loadgen.late_ms.p99"] = percentile(late_ms, 99.0) if late_ms else 0.0
    metrics["trace.overhead_share"] = overhead_share
    return metrics

