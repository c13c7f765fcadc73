"""Closed-loop load generator for the serving engine.

Drives a scoring endpoint with ``clients`` concurrent synchronous
callers — the standard closed-loop load model: each client sends its next
frame as soon as the previous answer arrives, so offered load scales with
the measured latency.  Works against anything that maps a frame to a
response carrying a ``status`` (an in-process
:meth:`ServingEngine.infer <repro.serving.engine.ServingEngine.infer>`,
or a :meth:`ServingClient.score <repro.serving.service.ServingClient.score>`
over the socket protocol); ``repro bench-serve`` and the serving
benchmarks are thin wrappers around :func:`run_load`.

With a priority ``mix`` (``repro bench-serve --priority-mix
critical=10,batch=90``) the client population is split across priority
classes, each class keeps its own closed loop, and the report carries one
:class:`LoadReport` per class — outcome counts, latency percentiles and
goodput, the numbers the admission benchmark gates on.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.serving.qos import PRIORITY_CLASSES
from repro.utils.timer import percentile


@dataclass(frozen=True)
class LoadReport:
    """Outcome counts and client-observed latency of one load run.

    ``rejected`` counts every refusal (``status: "rejected"``, whether by
    admission policy or a full queue); ``goodput_fps`` is scored-ok
    answers per second.  ``per_class`` holds one report per priority
    class when the run had a mix.
    """

    requests: int
    ok: int
    rejected: int
    deadline_exceeded: int
    degraded: int
    failed: int
    elapsed_s: float
    throughput_fps: float
    goodput_fps: float
    latency_ms_mean: float
    latency_ms_p50: float
    latency_ms_p95: float
    latency_ms_p99: float
    per_class: Optional[Dict[str, "LoadReport"]] = None

    def render(self) -> str:
        """Human-readable block printed by ``repro bench-serve``."""
        lines = [
            f"{'requests':<22} {self.requests:>10}",
            f"{'scored ok':<22} {self.ok:>10}",
            f"{'rejected':<22} {self.rejected:>10}",
            f"{'deadline exceeded':<22} {self.deadline_exceeded:>10}",
            f"{'degraded (fail-safe)':<22} {self.degraded:>10}",
            f"{'failed':<22} {self.failed:>10}",
            f"{'elapsed':<22} {self.elapsed_s:>10.3f} s",
            f"{'throughput':<22} {self.throughput_fps:>10.1f} frames/s",
            (
                f"{'latency (ms)':<22} "
                f"mean={self.latency_ms_mean:.2f} p50={self.latency_ms_p50:.2f} "
                f"p95={self.latency_ms_p95:.2f} p99={self.latency_ms_p99:.2f}"
            ),
        ]
        for name, report in sorted((self.per_class or {}).items()):
            lines.append(
                f"{name:<12} "
                f"req={report.requests:>6} ok={report.ok:>6} "
                f"rej={report.rejected:>6} "
                f"goodput={report.goodput_fps:>7.1f}/s "
                f"p50={report.latency_ms_p50:.2f}ms "
                f"p99={report.latency_ms_p99:.2f}ms"
            )
        return "\n".join(lines)


def _status_of(response) -> str:
    """Extract a status string from a typed outcome or a wire response."""
    status = getattr(response, "status", None)
    if status is None and isinstance(response, dict):
        status = response.get("status")
    return status or "failed"


def _report(
    statuses: List[str],
    latencies: List[float],
    elapsed: float,
    per_class: Optional[Dict[str, LoadReport]] = None,
) -> LoadReport:
    """Fold one population's statuses and latencies (seconds) into a report."""
    counts = Counter(statuses)
    per_s = 1.0 / elapsed if elapsed > 0 else 0.0
    ms = [lap * 1e3 for lap in latencies] or [0.0]
    return LoadReport(
        requests=len(statuses),
        ok=counts["ok"],
        rejected=counts["rejected"],
        deadline_exceeded=counts["deadline_exceeded"],
        degraded=counts["degraded"],
        failed=counts["failed"] + counts["error"],
        elapsed_s=elapsed,
        throughput_fps=len(statuses) * per_s,
        goodput_fps=counts["ok"] * per_s,
        latency_ms_mean=float(np.mean(ms)),
        latency_ms_p50=percentile(ms, 50.0),
        latency_ms_p95=percentile(ms, 95.0),
        latency_ms_p99=percentile(ms, 99.0),
        per_class=per_class,
    )


def parse_priority_mix(spec: str) -> Dict[str, float]:
    """Parse a ``"critical=10,batch=90"`` mix spec into class weights.

    Weights are relative shares of the client population (see
    :func:`run_load`); classes must come from
    :data:`~repro.serving.qos.PRIORITY_CLASSES`.  Raises
    :class:`~repro.exceptions.ConfigurationError` on anything malformed,
    so ``repro bench-serve --priority-mix`` can exit 2 with the message.
    """
    mix: Dict[str, float] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, weight_text = part.partition("=")
        name = name.strip()
        if not sep:
            raise ConfigurationError(
                f"priority-mix entry {part!r} is not of the form class=weight"
            )
        if name not in PRIORITY_CLASSES:
            raise ConfigurationError(
                f"unknown priority class {name!r}; expected one of "
                f"{', '.join(PRIORITY_CLASSES)}"
            )
        if name in mix:
            raise ConfigurationError(f"priority class {name!r} listed twice")
        try:
            weight = float(weight_text)
        except ValueError:
            raise ConfigurationError(
                f"priority-mix weight {weight_text!r} is not a number"
            ) from None
        if weight <= 0:
            raise ConfigurationError(f"priority-mix weight for {name} must be > 0")
        mix[name] = weight
    if not mix:
        raise ConfigurationError("priority mix is empty")
    return mix


def _allocate_clients(mix: Mapping[str, float], clients: int) -> Dict[str, int]:
    """Split ``clients`` across classes proportional to their weights
    (largest remainder, at least one client per listed class)."""
    if clients < len(mix):
        raise ConfigurationError(
            f"{clients} clients cannot cover {len(mix)} priority classes"
        )
    total_weight = sum(mix.values())
    shares = {name: clients * weight / total_weight for name, weight in mix.items()}
    allocation = {name: max(1, int(share)) for name, share in shares.items()}
    # Hand out (or claw back) the rounding difference by largest remainder.
    remainders = sorted(shares, key=lambda n: shares[n] - int(shares[n]), reverse=True)
    index = 0
    while sum(allocation.values()) < clients:
        allocation[remainders[index % len(remainders)]] += 1
        index += 1
    overshoot = sorted(allocation, key=lambda n: allocation[n], reverse=True)
    index = 0
    while sum(allocation.values()) > clients:
        name = overshoot[index % len(overshoot)]
        if allocation[name] > 1:
            allocation[name] -= 1
        index += 1
    return allocation


def run_load(
    score_fn: Callable[..., Any],
    frames: Sequence[np.ndarray],
    clients: int = 4,
    mix: Optional[Mapping[str, float]] = None,
    requests_per_client: Optional[int] = None,
) -> LoadReport:
    """Closed-loop load from ``clients`` threads, timed on the client side
    (so queue wait, batching delay and transport all count).

    Without a ``mix``, every frame is sent exactly once as
    ``score_fn(frame)``, claimed from a shared cursor so the workload
    partitions dynamically across clients: ``requests == len(frames)``.

    With a ``mix`` (class name → relative weight, see
    :func:`parse_priority_mix`), the clients are divided across classes
    proportionally (each class gets at least one) and every client sends
    ``requests_per_client`` frames (default ``len(frames) // clients``),
    cycling over ``frames``, as ``score_fn(frame, qos_class=...,
    client_id=...)`` — the keywords :meth:`ServingEngine.infer
    <repro.serving.engine.ServingEngine.infer>` takes.  The report's
    ``per_class`` then holds one report per class whose ``elapsed_s`` is
    that class's longest-running client, so its goodput is scored-ok per
    second of the class's own run.
    """
    frames = list(frames)
    if not frames:
        raise ConfigurationError("run_load needs at least one frame")
    if clients < 1:
        raise ConfigurationError(f"clients must be >= 1, got {clients}")
    # One (qos_class, client_id, frame indices) plan per client thread.
    if mix is None:
        shared = iter(range(len(frames)))
        plans = [(None, None, shared)] * min(clients, len(frames))
    else:
        plans = []
        for name in mix:
            if name not in PRIORITY_CLASSES:
                raise ConfigurationError(f"unknown priority class {name!r} in mix")
        per_client = requests_per_client or max(1, len(frames) // clients)
        for name, n_clients in _allocate_clients(mix, clients).items():
            for i in range(n_clients):
                indices = range(i * per_client, (i + 1) * per_client)
                plans.append((name, f"{name}-{i}", iter(indices)))

    lock = threading.Lock()
    statuses: Dict[Optional[str], List[str]] = defaultdict(list)
    latencies: Dict[Optional[str], List[float]] = defaultdict(list)
    elapsed_by_class: Dict[Optional[str], float] = defaultdict(float)

    def _client(
        qos_class: Optional[str], client_id: Optional[str], indices: Iterator[int]
    ) -> None:
        kwargs = {} if qos_class is None else {
            "qos_class": qos_class, "client_id": client_id
        }
        started = time.perf_counter()
        while True:
            with lock:
                index = next(indices, None)
            if index is None:
                break
            call_started = time.perf_counter()
            try:
                status = _status_of(score_fn(frames[index % len(frames)], **kwargs))
            except Exception:  # noqa: BLE001 — a load test must finish
                status = "failed"
            lap = time.perf_counter() - call_started
            with lock:
                statuses[qos_class].append(status)
                latencies[qos_class].append(lap)
        elapsed = time.perf_counter() - started
        with lock:
            elapsed_by_class[qos_class] = max(elapsed_by_class[qos_class], elapsed)

    threads = [
        threading.Thread(
            target=_client, args=plan, name=f"loadgen-{plan[1] or i}", daemon=True
        )
        for i, plan in enumerate(plans)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started

    per_class = None
    if mix is not None:
        per_class = {
            name: _report(statuses[name], latencies[name], elapsed_by_class[name])
            for name in mix
        }
    return _report(
        [status for group in statuses.values() for status in group],
        [lap for group in latencies.values() for lap in group],
        elapsed,
        per_class,
    )
