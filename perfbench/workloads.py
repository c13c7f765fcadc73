"""Inputs, systems and load for the three workloads.

Every workload drives the public serving API with the ``repro serve``
engine defaults (``EngineConfig()``: batch 8, wait 2 ms, queue 64):

* ``camera_open`` -- ``ServingEngine`` over ``PipelineScorer`` at ci
  geometry, telemetry off, open-loop Poisson arrivals;
* ``wire_closed`` -- ``ServingServer`` plus two ``ServingClient``
  connections, closed loop, with ``repro serve``'s default telemetry
  session (JSONL into a temp dir) and kernel profiler;
* ``pool_paper`` -- ``ServingEngine`` over a two-replica ``WorkerPool``
  of a paper-geometry bundle, two closed-loop clients, telemetry off.
"""

from __future__ import annotations

import itertools
import json
import queue
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from measure import Expected

#: Share of DSI (indoor, novel) frames in the traffic.
NOVEL_SHARE = 0.06
#: Share of non-finite frames (sensor corruption) in ``camera_open``.
NONFINITE_SHARE = 1.0 / 400.0
#: Distinct frames rendered per workload; requests cycle through them.
DRIVE_FRAMES = {"ci": 384, "paper": 96}
NOVEL_FRAMES = {"ci": 32, "paper": 8}
#: Length of the seeded request order (it wraps around after this).
ORDER_LENGTH = 1 << 16
#: Replicas in ``pool_paper`` and clients in the closed loops (= nproc).
POOL_WORKERS = 2
CLIENTS = 2
#: How long one request may take before it counts as an error.
REQUEST_TIMEOUT_S = 30.0


@dataclass
class FrameSet:
    """Distinct frames, their reference answers, and the request order."""

    frames: np.ndarray
    expected: List[Expected]
    order: np.ndarray
    first_finite: int = 0

    def frame_at(self, k: int) -> Tuple[int, np.ndarray]:
        index = int(self.order[k % len(self.order)])
        return index, self.frames[index]


def render_frames(shape: Tuple[int, int], geometry: str, seed: int,
                  nonfinite: bool) -> Tuple[np.ndarray, np.ndarray, List[bool]]:
    """A DSU drive, DSI novel frames and (optionally) corrupted frames.

    Returns ``(frames, order, finite)``: the request order visits the
    drive in sequence, with novel and non-finite frames mixed in at
    :data:`NOVEL_SHARE` and :data:`NONFINITE_SHARE`.
    """
    from repro.datasets import SyntheticIndoor, SyntheticUdacity

    drive = SyntheticUdacity(shape).render_drive(DRIVE_FRAMES[geometry], rng=seed).frames
    novel = SyntheticIndoor(shape).render_batch(NOVEL_FRAMES[geometry], rng=seed + 1).frames
    parts = [drive, novel]
    if nonfinite:
        nan_frame = np.full(shape, np.nan)
        inf_frame = drive[0].copy()
        inf_frame[: shape[0] // 2] = np.inf
        parts.append(np.stack([nan_frame, inf_frame]))
    frames = np.concatenate(parts)
    n_drive, n_novel = len(drive), len(novel)
    rng = np.random.default_rng(seed)
    draw = rng.random(ORDER_LENGTH)
    pick = rng.integers(0, 1 << 30, ORDER_LENGTH)
    order = np.arange(ORDER_LENGTH) % n_drive
    is_novel = draw < NOVEL_SHARE
    order[is_novel] = n_drive + pick[is_novel] % n_novel
    if nonfinite:
        is_bad = draw > 1.0 - NONFINITE_SHARE
        order[is_bad] = n_drive + n_novel + pick[is_bad] % 2
    finite = [bool(np.all(np.isfinite(f))) for f in frames]
    return frames, order, finite


def reference(bundle_dir: Path, frames: np.ndarray, finite: List[bool]) -> List[Expected]:
    """Offline reference answers from a separately loaded copy of the bundle."""
    from repro.serving import PipelineScorer, load_bundle

    bundle = load_bundle(bundle_dir)
    scorer = PipelineScorer(bundle.pipeline)
    threshold = float(bundle.threshold)
    good = [i for i, ok in enumerate(finite) if ok]
    scores: Dict[int, Tuple[float, bool]] = {}
    for start in range(0, len(good), 8):
        chunk = good[start:start + 8]
        verdicts = scorer.score_batch(frames[chunk])
        for i, score, novel in zip(chunk, verdicts.scores, verdicts.is_novel):
            scores[i] = (float(score), bool(novel))
    return [
        Expected(True, scores[i][0], scores[i][1], threshold) if ok else Expected(False)
        for i, ok in enumerate(finite)
    ]


def make_frameset(bundle_dir: Path, geometry: str, seed: int, nonfinite: bool) -> FrameSet:
    from repro.serving import read_manifest

    shape = tuple(read_manifest(bundle_dir)["image_shape"])
    frames, order, finite = render_frames(shape, geometry, seed, nonfinite)
    return FrameSet(frames, reference(bundle_dir, frames, finite), order, finite.index(True))


# -- systems -------------------------------------------------------------------


@dataclass
class System:
    """One started serving stack and how long each part took to start."""

    engine: Any
    calls: List[Callable[[np.ndarray], Any]]
    timings: Dict[str, float]
    first_reply: Any = None
    server: Any = None
    clients: List[Any] = field(default_factory=list)
    pool: Any = None
    telemetry_path: Optional[Path] = None

    def close(self) -> None:
        from repro.nn.backend import disable_kernel_profiler
        from repro.telemetry import disable_telemetry

        for client in self.clients:
            client.close()
        if self.server is not None:
            close_server(self.server)
        self.engine.close()
        if self.telemetry_path is not None:
            disable_kernel_profiler()
            disable_telemetry()


def close_server(server) -> None:
    """``ServingServer.close()``, without its 5 s wait.

    Closing the listener does not wake a thread blocked in ``accept`` on
    Linux, so ``close`` waits out its join timeout.  Connecting once
    ``close`` has begun lets the accept loop see that it is closed.
    """
    closer = threading.Thread(target=server.close, name="perfbench-server-close")
    closer.start()
    while closer.is_alive():
        try:
            socket.create_connection(server.address, timeout=0.5).close()
        except OSError:
            pass
        closer.join(0.01)


def _engine_call(engine) -> Callable[[np.ndarray], Any]:
    return lambda frame: engine.infer(frame, timeout_s=REQUEST_TIMEOUT_S)


def start_system(workload: str, bundle_dir: Path, first_frame: np.ndarray,
                 workdir: Path, start_no: int, profile_pool: bool = False) -> System:
    """Cold start: bundle load, engine (and server or pool), first answer."""
    from repro.nn.backend import enable_kernel_profiler
    from repro.serving import (
        EngineConfig,
        PipelineScorer,
        ServingClient,
        ServingEngine,
        ServingServer,
        WorkerPool,
        load_bundle,
    )
    from repro.telemetry import enable_telemetry

    telemetry_path = None
    t0 = time.perf_counter()
    if workload == "wire_closed":
        telemetry_path = workdir / f"serving-{start_no}.jsonl"
        enable_telemetry(telemetry_path)
    bundle = load_bundle(bundle_dir)
    t1 = time.perf_counter()
    server = pool = None
    clients: List[Any] = []
    if workload == "pool_paper":
        # The parent loads the bundle too, as ``repro serve --workers`` does.
        pool = WorkerPool(bundle_dir, workers=POOL_WORKERS, profile_kernels=profile_pool)
        engine = ServingEngine(pool, EngineConfig())
        calls = [_engine_call(engine)] * CLIENTS
    else:
        engine = ServingEngine(PipelineScorer(bundle.pipeline), EngineConfig())
        calls = [_engine_call(engine)] * CLIENTS
        if workload == "wire_closed":
            enable_kernel_profiler()
            server = ServingServer(engine).start()
            clients = [ServingClient(*server.address) for _ in range(CLIENTS)]
            calls = [client.score for client in clients]
    t2 = time.perf_counter()
    first = calls[0](first_frame)
    t3 = time.perf_counter()
    return System(
        engine=engine,
        calls=calls,
        timings={
            "setup_s": t3 - t0,
            "bundle_load_s": t1 - t0,
            "engine_start_s": t2 - t1,
            "first_answer_ms": (t3 - t2) * 1e3,
        },
        first_reply=first,
        server=server,
        clients=clients,
        pool=pool,
        telemetry_path=telemetry_path,
    )


# -- load ----------------------------------------------------------------------


@dataclass
class Sample:
    """One request: which frame, how it ended, and when."""

    frame: int
    status: str
    score: Optional[float]
    is_novel: Optional[bool]
    latency_ms: float
    #: ``time.perf_counter()`` when the reply arrived.
    done: float = 0.0
    late_ms: float = 0.0
    #: Server-side latency the reply claims (wire replies only).
    served_ms: Optional[float] = None


def reply_fields(reply: Any) -> Tuple[str, Optional[float], Optional[bool], Optional[float]]:
    """``(status, score, is_novel, served_ms)`` of an engine outcome or a
    wire reply; both name their outcome with the same status strings."""
    if isinstance(reply, dict):
        return (
            str(reply.get("status", "error")),
            reply.get("score"),
            reply.get("is_novel"),
            reply.get("latency_ms"),
        )
    return (
        reply.status,
        getattr(reply, "score", None),
        getattr(reply, "is_novel", None),
        None,
    )


def open_loop(submit: Callable[[np.ndarray], Any], frameset: FrameSet, cursor: itertools.count,
              rate: float, seconds: float, seed: int,
              on_thread: Callable[[], None] = lambda: None,
              window: Optional[int] = None,
              on_answer: Callable[[], None] = lambda: None) -> Tuple[List[Sample], float]:
    """Poisson arrivals at ``rate`` for ``seconds`` from one generator thread.

    Latency runs from when a request was *due*, so a stalled generator or
    engine is charged for every request it delays.  The calling thread
    collects replies in order (the engine resolves them in FIFO order).
    ``on_answer`` runs after each reply is collected.
    With ``window``, the generator holds a request back while ``window``
    earlier ones are still unanswered: set to the engine's queue capacity,
    a host stall delays the requests due during it (and is charged to
    their latency) instead of bursting them into a full queue.
    Returns the samples, in reply order, and the ``perf_counter`` time the
    phase started.
    """
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 64)
    due = np.cumsum(gaps)
    due = due[due < seconds]
    picks = [frameset.frame_at(next(cursor)) for _ in range(len(due))]
    handoff: "queue.SimpleQueue[Any]" = queue.SimpleQueue()
    slots = threading.Semaphore(window) if window else None
    start = time.perf_counter() + 0.005

    def generate() -> None:
        on_thread()
        for offset, (index, frame) in zip(due, picks):
            target = start + offset
            delay = target - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            if slots is not None:
                slots.acquire()
            sent = time.perf_counter()
            try:
                pending: Any = submit(frame)
            except Exception as exc:  # noqa: BLE001 -- an error is an outcome
                pending = exc
            handoff.put((index, target, sent, pending))
        handoff.put(None)

    generator = threading.Thread(target=generate, name="perfbench-generator")
    generator.start()
    samples: List[Sample] = []
    while True:
        item = handoff.get()
        if item is None:
            break
        index, target, sent, pending = item
        try:
            if isinstance(pending, Exception):
                raise pending
            status, score, novel, _ = reply_fields(pending.result(REQUEST_TIMEOUT_S))
        except Exception:  # noqa: BLE001
            status, score, novel = "error", None, None
        done = time.perf_counter()
        if slots is not None:
            slots.release()
        samples.append(
            Sample(index, status, score, novel, (done - target) * 1e3, done,
                   (sent - target) * 1e3)
        )
        on_answer()
    generator.join()
    return samples, start


def closed_loop(calls: Sequence[Callable[[np.ndarray], Any]], frameset: FrameSet,
                cursor: itertools.count, seconds: float,
                on_thread: Callable[[], None] = lambda: None,
                on_answer: Callable[[], None] = lambda: None) -> Tuple[List[Sample], float]:
    """Each caller sends its next frame as soon as its last one returns.

    ``on_answer`` runs after each reply, on the caller's thread.

    Returns the samples, in reply order, and the ``perf_counter`` time the
    phase started.
    """
    start = time.perf_counter()
    stop_at = start + seconds
    results: List[List[Sample]] = [[] for _ in calls]

    def client(call: Callable[[np.ndarray], Any], out: List[Sample]) -> None:
        on_thread()
        while time.perf_counter() < stop_at:
            index, frame = frameset.frame_at(next(cursor))
            t0 = time.perf_counter()
            try:
                status, score, novel, served = reply_fields(call(frame))
            except Exception:  # noqa: BLE001 -- an error is an outcome
                status, score, novel, served = "error", None, None, None
            done = time.perf_counter()
            out.append(
                Sample(index, status, score, novel, (done - t0) * 1e3, done, served_ms=served)
            )
            on_answer()

    threads = [
        threading.Thread(target=client, args=(call, out), name=f"perfbench-client-{i}")
        for i, (call, out) in enumerate(zip(calls, results))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sorted((s for out in results for s in out), key=lambda s: s.done), start


def request_bytes(frame: np.ndarray) -> int:
    """Size on the wire of one score request for ``frame`` (length prefix
    included), computed the way ``ServingClient.score`` encodes it."""
    payload = {"op": "score", "frame": np.asarray(frame).tolist(), "id": 1}
    return 4 + len(json.dumps(payload, separators=(",", ":")).encode("utf-8"))


def histogram_samples(telemetry: Any) -> int:
    """Observations the active telemetry session's histograms hold in memory."""
    if not getattr(telemetry, "enabled", False):
        return 0
    registry = telemetry.registry
    names = registry.snapshot().get("histograms", {})
    return sum(len(getattr(registry.histogram(name), "samples", ())) for name in names)

