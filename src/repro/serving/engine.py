"""The inference engine: admission control + micro-batching + dispatch.

:class:`ServingEngine` accepts single-frame requests, admits them into a
bounded :class:`~repro.serving.batcher.WeightedClassBatcher` (a one-class
``MicroBatcher`` without a QoS policy), and runs one or more dispatch
threads that pull micro-batches and hand them to a *scorer* — an object
with ``score_batch(frames) -> BatchVerdicts``.  Two scorers exist:

* :class:`PipelineScorer` — in-process, wraps a fitted pipeline;
* :class:`repro.serving.pool.WorkerPool` — multiprocess replicas, one
  dispatch thread per worker so replicas score concurrently.

Backpressure is explicit: a full queue resolves the request to a typed
:class:`~repro.serving.results.Overloaded` outcome at submit time; an
admitted request whose deadline lapses while queued resolves to
:class:`~repro.serving.results.DeadlineExceeded` without being scored.
The engine never queues unboundedly and never blocks a producer.  Every
request leaves through ``ServingEngine._finish``, so each one gets
exactly one typed outcome, counted once.

The engine owns the one retry layer: by default it retries a
:class:`~repro.exceptions.WorkerCrashError` once, immediately (the pool
has already respawned the replica).  The rest of fault tolerance is
opt-in via :class:`EngineConfig`: a
:class:`~repro.reliability.RetryPolicy` retries any raising backend with
exponential backoff, a :class:`~repro.reliability.BreakerConfig` puts a
circuit breaker in front of it (an open breaker resolves batches
immediately instead of hammering a dead backend), and ``fail_safe``
decides whether unscorable requests resolve to
:class:`~repro.serving.results.Failed` or to a conservative
:class:`~repro.serving.results.Degraded` verdict.  With reliability
configured the engine also refuses to deliver non-finite scores as
``Scored`` — NaN verdicts are a backend failure, not an answer.

Telemetry (when a session is active): ``serving.queue_depth``,
``serving.breaker_state`` and ``serving.admission.concurrency_limit``
gauges, ``serving.batch_size`` and ``serving.request_latency`` histograms,
``serving.queue_delay.<class>`` per-priority-class window histograms,
``serving.batch`` spans, and ``serving.requests`` / ``serving.rejected``
/ ``serving.deadline_exceeded`` / ``serving.errors`` / ``serving.retries``
/ ``serving.degraded`` / ``serving.admission.admitted.<class>`` /
``serving.admission.rejected.<reason>`` counters.

Tracing: :meth:`ServingEngine.submit` roots a
:class:`~repro.telemetry.TraceContext` per admitted request (or adopts one
the TCP frontend already rooted) and carries it on the
:class:`QueuedRequest` through the batcher.  The dispatch loop emits the
request's ``serving.queue`` wait and its ``serving.request`` root as
synthetic spans, and runs the scoring pass under a ``serving.batch`` span
parented to the *first* live request's trace (the batch owner); the other
requests of the batch link to it via a ``batch_trace`` attribute.  Spans
the backend opens during scoring (pipeline, worker, kernels) inherit the
batch span's context ambiently, so ``repro trace <id>`` reconstructs the
whole path.  Scores additionally feed the ``monitor.score_window`` sliding
histogram, the live score-distribution series the ``/metrics`` endpoint
exposes.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import (
    ConfigurationError,
    DeploymentError,
    NotFittedError,
    ServingError,
    ShapeError,
    WorkerCrashError,
)
from repro.nn.backend.policy import as_tensor
from repro.novelty.framework import SaliencyNoveltyPipeline
from repro.reliability.breaker import BreakerConfig, CircuitBreaker
from repro.reliability.retry import RetryPolicy, call_with_retry
from repro.serving.admission import AdmissionController
from repro.serving.batcher import MicroBatcher, QueuedRequest, WeightedClassBatcher
from repro.serving.qos import DEFAULT_CLASS, QosPolicy
from repro.serving.results import (
    BatchVerdicts,
    DeadlineExceeded,
    Degraded,
    Failed,
    Overloaded,
    PendingResult,
    Rejected,
    RequestOutcome,
    Scored,
)
from repro.telemetry import TraceContext, get_telemetry
from repro.utils.timer import percentile

_UNSET = object()

#: Fail-safe policies for unscorable requests (see :class:`EngineConfig`).
FAIL_SAFE_POLICIES = ("fail", "novel")

#: Retry policy without ``EngineConfig.retry``: one immediate retry of a
#: crashed worker, which the pool has already respawned.
_CRASH_RETRY = RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0)

#: Per outcome status: the ``stats()`` count and the telemetry counter
#: (``Rejected`` counts under ``serving.admission.rejected.<reason>``).
_TALLIES = {
    "ok": ("scored", None),
    "rejected": ("rejected_admission", None),
    "overloaded": ("rejected", "serving.rejected"),
    "deadline_exceeded": ("deadline_exceeded", "serving.deadline_exceeded"),
    "failed": ("failed", None),
    "degraded": ("degraded", "serving.degraded"),
}


@dataclass(frozen=True)
class EngineConfig:
    """Micro-batching and admission policy for one engine.

    Attributes
    ----------
    max_batch_size:
        Upper bound on frames per batched VBP + autoencoder pass.
    max_wait_ms:
        How long an under-full batch waits for more frames (the
        latency/throughput trade: 0 favors latency, larger favors batches).
    queue_capacity:
        Bounded request queue; submissions beyond it are rejected with a
        typed ``Overloaded`` outcome rather than queued.
    default_deadline_ms:
        Per-request deadline applied when ``submit`` does not pass one;
        ``None`` disables deadlines by default.
    retry:
        Retry-with-backoff policy for a raising backend.  ``None``
        retries only a :class:`~repro.exceptions.WorkerCrashError`, once
        and immediately.
    breaker:
        Circuit-breaker policy guarding the backend; ``None`` disables
        breaking.
    fail_safe:
        What an unscorable request resolves to: ``"fail"`` (a
        :class:`~repro.serving.results.Failed` outcome, the historical
        behavior) or ``"novel"`` (a :class:`~repro.serving.results.Degraded`
        outcome carrying the conservative ``is_novel=True`` verdict — the
        right default for a safety monitor, where "I cannot score this"
        must read as "assume novel").
    qos:
        Admission-control & QoS policy
        (:class:`~repro.serving.qos.QosPolicy`).  When set, the batcher
        gets one queue per priority class, submissions carry a priority
        class and client id, and requests may resolve to a typed
        :class:`~repro.serving.results.Rejected` outcome (rate limit,
        adaptive concurrency limit, or deadline-aware shedding) before
        any work is queued.  ``None`` admits everything into a single
        FIFO.
    """

    max_batch_size: int = 8
    max_wait_ms: float = 2.0
    queue_capacity: int = 64
    default_deadline_ms: Optional[float] = None
    retry: Optional[RetryPolicy] = None
    breaker: Optional[BreakerConfig] = None
    fail_safe: str = "fail"
    qos: Optional[QosPolicy] = None

    def __post_init__(self) -> None:
        if self.max_batch_size < 1 or self.queue_capacity < 1:
            raise ConfigurationError(
                "max_batch_size and queue_capacity must be >= 1"
            )
        if self.max_wait_ms < 0:
            raise ConfigurationError(f"max_wait_ms must be >= 0, got {self.max_wait_ms}")
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise ConfigurationError(
                f"default_deadline_ms must be positive, got {self.default_deadline_ms}"
            )
        if self.fail_safe not in FAIL_SAFE_POLICIES:
            raise ConfigurationError(
                f"fail_safe must be one of {', '.join(FAIL_SAFE_POLICIES)}, "
                f"got {self.fail_safe!r}"
            )


class PipelineScorer:
    """In-process scorer: one fitted pipeline, scored on the caller thread.

    ``model_version`` optionally names the model (a registry version or a
    bundle config hash); every :class:`BatchVerdicts` it produces carries
    it, so outcomes stay attributable across hot-swaps.
    """

    #: Number of engine dispatch threads this scorer can keep busy.
    replicas = 1

    def __init__(
        self,
        pipeline: SaliencyNoveltyPipeline,
        model_version: Optional[str] = None,
    ) -> None:
        if not pipeline.is_fitted:
            raise NotFittedError("PipelineScorer requires a fitted pipeline")
        self.pipeline = pipeline
        self.image_shape = pipeline.image_shape
        self.model_version = model_version
        # Compile the scoring plan eagerly so the first request doesn't pay
        # stage-graph construction; plan-less (duck-typed) pipelines serve
        # through their plain score_batch path.
        self.plan = getattr(pipeline, "plan", None)
        # One batched pass at a time: the numpy substrate is single-threaded
        # anyway, and serializing keeps layer caches coherent.  reload()
        # takes the same lock, so a swap waits for the in-flight batch.
        self._lock = threading.Lock()

    @property
    def dtype(self) -> np.dtype:
        """Precision policy of the wrapped pipeline (frames are coerced
        to this before scoring)."""
        return self.pipeline.dtype

    def score_batch(self, frames: np.ndarray) -> BatchVerdicts:
        """Vectorized verdicts for an ``(N, H, W)`` stack."""
        with self._lock:
            if self.plan is not None and hasattr(self.pipeline, "run_plan"):
                # One compiled-plan invocation yields scores, decisions and
                # margins together — the verdict stage reads the cached
                # scores — and every stage emits its own telemetry span.
                ctx = self.pipeline.run_plan(frames)
                scores, is_novel, margins = ctx.scores, ctx.is_novel, ctx.margins
            else:
                scores = self.pipeline.score_batch(frames)
                detector = self.pipeline.one_class.detector
                is_novel = detector.predict(scores)
                margins = detector.novelty_margin(scores)
            return BatchVerdicts(scores, is_novel, margins, self.model_version)

    def reload(self, target: Any, model_version: Optional[str] = None) -> None:
        """Hot-swap the pipeline without dropping the in-flight batch.

        ``target`` is a fitted :class:`SaliencyNoveltyPipeline` or a
        :class:`~repro.serving.artifacts.LoadedBundle` (whose pipeline and
        config hash are used).  Taking the scoring lock *drains* the batch
        currently being scored; the swap is then a plain attribute write,
        so the next batch scores on the new model.  The new pipeline must
        score the same ``(H, W)`` the engine validates submissions against.
        """
        pipeline = getattr(target, "pipeline", target)
        if model_version is None:
            manifest = getattr(target, "manifest", None)
            if manifest is not None:
                model_version = manifest.get("config_hash")
        if not getattr(pipeline, "is_fitted", False):
            raise NotFittedError("reload requires a fitted pipeline")
        if tuple(pipeline.image_shape) != tuple(self.image_shape):
            raise DeploymentError(
                f"hot-swap shape mismatch: serving {tuple(self.image_shape)}, "
                f"candidate scores {tuple(pipeline.image_shape)}"
            )
        # Compile the candidate's plan BEFORE taking the lock: stage-graph
        # construction happens off the serving path, and the swap below is
        # an atomic pipeline+plan+version exchange under the drained lock.
        plan = getattr(pipeline, "plan", None)
        with self._lock:
            self.pipeline = pipeline
            self.plan = plan
            self.model_version = model_version

    def close(self) -> None:
        """Nothing to release for the in-process scorer."""


class ServingEngine:
    """Micro-batched inference front door over a scorer backend.

    Parameters
    ----------
    scorer:
        Backend with ``score_batch(frames) -> BatchVerdicts`` plus optional
        ``replicas`` (dispatch-thread count), ``image_shape`` (enables
        shape validation at submit), and ``close()``.
    config:
        Batching/admission policy (defaults: batch 8, wait 2 ms, queue 64)
        plus the optional reliability knobs (``retry``/``breaker``/
        ``fail_safe``).
    breaker:
        A pre-built :class:`~repro.reliability.CircuitBreaker` to use
        instead of constructing one from ``config.breaker`` — chaos tests
        inject one with a controllable clock.

    The engine starts its dispatch threads immediately and is usable as a
    context manager; :meth:`close` drains and fails whatever is in flight.
    """

    def __init__(
        self,
        scorer,
        config: Optional[EngineConfig] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        self.config = config or EngineConfig()
        self.scorer = scorer
        self.breaker: Optional[CircuitBreaker] = breaker
        if breaker is None and self.config.breaker is not None:
            self.breaker = CircuitBreaker(self.config.breaker)
        self._retry = self.config.retry
        # One jitter stream shared by every dispatch thread; exact
        # interleaving does not matter, determinism per-policy-seed does.
        self._retry_rng = (self._retry or _CRASH_RETRY).make_rng()
        replicas = max(1, int(getattr(scorer, "replicas", 1)))
        cfg = self.config
        self.admission: Optional[AdmissionController] = None
        if cfg.qos is None:
            self._batcher: WeightedClassBatcher = MicroBatcher(
                cfg.max_batch_size, cfg.max_wait_ms, cfg.queue_capacity
            )
        else:
            self._batcher = WeightedClassBatcher(
                cfg.qos, cfg.max_batch_size, cfg.max_wait_ms, cfg.queue_capacity
            )
            self.admission = AdmissionController(cfg.qos, replicas=replicas)
        self._stats_lock = threading.Lock()
        self._in_flight = 0
        self._counts = dict.fromkeys(
            ("submitted", "scored", "rejected", "rejected_admission", "deadline_exceeded",
             "failed", "degraded", "retries", "batches", "reloads"),
            0,
        )
        self._latencies: List[float] = []
        self._last_trace_id: Optional[str] = None
        self._shadow: Optional[Any] = None
        self._ledger: Optional[Any] = None
        self._closed = False
        self._threads = [
            threading.Thread(
                target=self._dispatch_loop,
                name=f"serving-dispatch-{i}",
                daemon=True,
            )
            for i in range(replicas)
        ]
        for thread in self._threads:
            thread.start()

    # -- submission ------------------------------------------------------
    def submit(
        self,
        frame: np.ndarray,
        deadline_ms: Any = _UNSET,
        trace: Optional[TraceContext] = None,
        client_id: Optional[str] = None,
        qos_class: Optional[str] = None,
    ) -> PendingResult:
        """Admit one frame; returns a future resolving to a typed outcome.

        Never blocks: when admission control refuses the request (rate
        limit, concurrency limit, deadline shedding) the future is already
        resolved to :class:`Rejected` on return; when the bounded queue is
        full, to :class:`Overloaded`.  ``deadline_ms`` overrides the
        class/config default (``None`` = no deadline).  ``client_id``
        names the caller for per-client quotas and ``qos_class`` picks a
        priority class (both ignored without a configured
        :attr:`EngineConfig.qos`; an unknown class raises
        :class:`~repro.exceptions.ConfigurationError`).  ``trace`` adopts
        a context the caller already rooted (the TCP frontend's
        ``serving.frontend`` span); with telemetry active and no ``trace``
        a fresh root is generated for the request.
        """
        frame = as_tensor(frame, getattr(self.scorer, "dtype", None))
        expected = getattr(self.scorer, "image_shape", None)
        if frame.ndim != 2 or (expected is not None and frame.shape != tuple(expected)):
            raise ShapeError(
                f"submit expects one ({expected or 'H, W'}) frame, got {frame.shape}"
            )
        admission = self.admission
        class_deadline_ms = None
        if admission is not None:
            qos_class = admission.resolve_class(qos_class)
            class_deadline_ms = admission.class_policy(qos_class).default_deadline_ms
        else:
            qos_class = DEFAULT_CLASS
        if deadline_ms is _UNSET:
            deadline_ms = (
                class_deadline_ms
                if class_deadline_ms is not None
                else self.config.default_deadline_ms
            )
        telem = get_telemetry()
        if trace is None and telem.enabled:
            trace = TraceContext.new_root()
        now = time.monotonic()
        ledger = self._ledger
        request = QueuedRequest(
            frame=frame,
            pending=PendingResult(),
            enqueued_at=now,
            deadline_at=None if deadline_ms is None else now + deadline_ms / 1000.0,
            trace=trace,
            ledger_id=None if ledger is None else ledger.admit(),
            qos_class=qos_class,
            client_id=client_id,
        )
        telem.counter("serving.requests").inc()
        with self._stats_lock:
            self._counts["submitted"] += 1
            in_flight = self._in_flight
            self._in_flight += 1  # until _finish
            if trace is not None:
                self._last_trace_id = trace.trace_id
        if admission is not None:
            decision = admission.admit(
                client_id=client_id,
                qos_class=qos_class,
                deadline_s=None if deadline_ms is None else deadline_ms / 1000.0,
                queue_depth=len(self._batcher),
                in_flight=in_flight,
            )
            if not decision.admitted:
                rejected = Rejected(
                    reason=decision.reason or "rejected",
                    qos_class=qos_class,
                    client_id=client_id,
                    retry_after_ms=decision.retry_after_ms,
                )
                self._finish([request], rejected, now)
                return request.pending
            telem.counter(f"serving.admission.admitted.{qos_class}").inc()
        if not self._batcher.offer(request):
            overloaded = Overloaded(
                queue_depth=len(self._batcher), capacity=self._batcher.capacity
            )
            self._finish([request], overloaded, now)
        telem.gauge("serving.queue_depth").set(len(self._batcher))
        return request.pending

    def infer(
        self,
        frame: np.ndarray,
        timeout_s: float = 60.0,
        client_id: Optional[str] = None,
        qos_class: Optional[str] = None,
    ) -> RequestOutcome:
        """Synchronous single-frame scoring (submit + wait)."""
        return self.submit(frame, client_id=client_id, qos_class=qos_class).result(
            timeout_s
        )

    def infer_many(self, frames: np.ndarray, timeout_s: float = 120.0) -> List[RequestOutcome]:
        """Submit a stack of frames and wait for every outcome.

        Frames beyond ``queue_capacity`` naturally resolve to
        ``Overloaded`` — size the engine's queue for the burst you send.
        """
        pendings = [
            self.submit(frame)
            for frame in as_tensor(frames, getattr(self.scorer, "dtype", None))
        ]
        return [p.result(timeout_s) for p in pendings]

    # -- reliability -----------------------------------------------------
    def _score_guarded(self, stack: np.ndarray) -> Tuple[BatchVerdicts, int]:
        """One micro-batch through the engine's retry layer and breaker.

        Returns ``(verdicts, retries_used)``.  With a retry policy or
        breaker configured, every failed attempt feeds the breaker and
        non-finite scores count as a backend failure.  The final failure
        is re-raised for the dispatch loop to resolve.
        """
        checked = self._retry is not None or self.breaker is not None

        def attempt() -> BatchVerdicts:
            try:
                verdicts = self.scorer.score_batch(stack)
                if checked:
                    scores = np.asarray(verdicts.scores, dtype=float)
                    if not np.all(np.isfinite(scores)):
                        bad = int(np.sum(~np.isfinite(scores)))
                        raise ServingError(f"backend returned {bad} non-finite scores")
            except Exception:
                if self.breaker is not None:
                    self.breaker.record_failure()
                raise
            return verdicts

        verdicts, retries = call_with_retry(
            attempt,
            self._retry or _CRASH_RETRY,
            retryable=Exception if self._retry is not None else WorkerCrashError,
            rng=self._retry_rng,
        )
        if self.breaker is not None:
            self.breaker.record_success()
        return verdicts, retries

    def attach_ledger(self, ledger: Optional[Any]) -> None:
        """Attach (or with ``None`` detach) a durable request ledger.

        Every subsequently admitted request is journaled via
        ``ledger.admit()`` and resolved with its outcome's ``status``
        string; after a crash the unresolved admits are exactly the
        requests the dead process owed answers for.  See
        :class:`~repro.durability.RequestLedger`.
        """
        self._ledger = ledger

    def _finish(
        self,
        requests: Sequence[QueuedRequest],
        outcomes: Union[RequestOutcome, List[RequestOutcome]],
        now: float,
        owner: Optional[TraceContext] = None,
    ) -> None:
        """Resolve requests to their outcomes: the engine's one exit.

        ``outcomes`` is one outcome for all ``requests`` or a list with
        one each (a list of ``Scored`` is one scored micro-batch); ``now``
        is when they resolved; ``owner`` is their batch's trace, if any.

        The ledger record is written *before* ``pending.resolve``: a crash
        can leave an extra unresolved admit (reported as failed) but never
        a resolved request the journal still calls in flight.  The stats
        lock covers the whole pass, so ``stats()`` never lags a resolved
        future, and it serializes the telemetry instruments (not
        thread-safe) across dispatch threads.
        """
        if not isinstance(outcomes, list):
            outcomes = [outcomes] * len(requests)
        telem = get_telemetry()
        ledger = self._ledger
        with self._stats_lock:
            if outcomes and isinstance(outcomes[0], Scored):
                retries = outcomes[0].retries
                self._counts["batches"] += 1
                self._counts["retries"] += retries
                telem.counter("serving.batches").inc()
                telem.histogram("serving.batch_size").observe(len(requests))
                if retries:
                    telem.counter("serving.retries").inc(retries)
            for request, outcome in zip(requests, outcomes):
                if ledger is not None and request.ledger_id is not None:
                    ledger.resolve(request.ledger_id, outcome.status)
                request.pending.resolve(outcome)
                count_key, counter = _TALLIES[outcome.status]
                self._counts[count_key] += 1
                latency = now - request.enqueued_at
                attrs: Dict[str, Any] = {}
                if isinstance(outcome, Scored):
                    self._latencies.append(latency)
                    telem.histogram("serving.request_latency").observe(latency)
                    telem.window_histogram("monitor.score_window").observe(outcome.score)
                    if outcome.is_novel:
                        telem.counter("monitor.novel_verdicts").inc()
                    attrs["batch_size"] = outcome.batch_size
                elif isinstance(outcome, Rejected):
                    counter = f"serving.admission.rejected.{outcome.reason}"
                    attrs.update(reason=outcome.reason, qos_class=outcome.qos_class)
                if counter is not None:
                    telem.counter(counter).inc()
                if request.trace is not None:
                    if owner is not None and request.trace is not owner:
                        attrs["batch_trace"] = owner.trace_id
                    telem.add_span(
                        "serving.request",
                        latency,
                        context=request.trace,
                        outcome="scored" if outcome.status == "ok" else outcome.status,
                        **attrs,
                    )
            self._in_flight -= len(requests)

    def _publish_state(self, telem) -> None:
        """Set the queue-depth, breaker and concurrency-limit gauges."""
        telem.gauge("serving.queue_depth").set(len(self._batcher))
        if self.breaker is not None:
            telem.gauge("serving.breaker_state").set(self.breaker.state_code())
        admission = self.admission
        if admission is not None and admission.aimd is not None:
            telem.gauge("serving.admission.concurrency_limit").set(
                admission.aimd.limit
            )

    # -- dispatch --------------------------------------------------------
    def _dispatch_loop(self) -> None:
        telem = get_telemetry()
        while True:
            batch = self._batcher.next_batch()
            if batch is None:
                return
            now = time.monotonic()
            live: List[QueuedRequest] = []
            expired: List[QueuedRequest] = []
            late: List[RequestOutcome] = []
            for request in batch:
                waited = now - request.enqueued_at
                telem.window_histogram(
                    f"serving.queue_delay.{request.qos_class}"
                ).observe(waited)
                if request.deadline_at is not None and now > request.deadline_at:
                    expired.append(request)
                    allowed = request.deadline_at - request.enqueued_at
                    late.append(DeadlineExceeded(waited_s=waited, deadline_s=allowed))
                else:
                    live.append(request)
            if expired:
                self._finish(expired, late, now)
                if self.admission is not None:
                    # Late expiries mean the queue outran the deadline
                    # budget: back the adaptive concurrency limit off.
                    self.admission.on_overload("deadline_exceeded")
            self._publish_state(telem)
            if not live:
                continue
            # The batch's spans join the first live request's trace (the
            # batch owner); the other requests link to it via a
            # ``batch_trace`` attribute on their own root spans.
            owner = live[0].trace
            for request in live:
                if request.trace is not None:
                    telem.add_span(
                        "serving.queue",
                        now - request.enqueued_at,
                        context=request.trace.child(),
                    )
            error: Optional[str] = None
            if self.breaker is not None and not self.breaker.allow():
                if self.admission is not None:
                    self.admission.on_overload("breaker_open")
                error = "circuit breaker open"
            else:
                score_started = time.monotonic()
                try:
                    with telem.span("serving.batch", trace=owner, frames=len(live)):
                        verdicts, retries = self._score_guarded(
                            np.stack([r.frame for r in live])
                        )
                except Exception as exc:  # noqa: BLE001 — worker crashes land here
                    telem.counter("serving.errors").inc()
                    error = f"{type(exc).__name__}: {exc}"
                else:
                    if self.admission is not None:
                        self.admission.observe_batch(
                            time.monotonic() - score_started, len(live)
                        )
            self._publish_state(telem)
            done = time.monotonic()
            if error is not None:
                # Unscorable: the fail-safe policy picks a conservative
                # Degraded verdict or a plain Failed.
                if self.config.fail_safe == "novel":
                    unscorable: RequestOutcome = Degraded(
                        reason=error, is_novel=True, policy="novel"
                    )
                else:
                    unscorable = Failed(error=error)
                self._finish(live, unscorable, done, owner)
                continue
            model_version = getattr(verdicts, "model_version", None)
            if model_version is None:
                model_version = getattr(self.scorer, "model_version", None)
            scored = [
                Scored(
                    score=float(verdicts.scores[i]),
                    is_novel=bool(verdicts.is_novel[i]),
                    margin=float(verdicts.margins[i]),
                    batch_size=len(live),
                    latency_s=done - request.enqueued_at,
                    retries=retries,
                    model_version=model_version,
                )
                for i, request in enumerate(live)
            ]
            self._finish(live, scored, done, owner)
            # Shadow mirroring happens after resolution: offer() is a
            # sampled non-blocking enqueue that never raises and never
            # affects the already-resolved responses.
            shadow = self._shadow
            if shadow is not None:
                for request, outcome in zip(live, scored):
                    shadow.offer(request.frame, outcome)

    # -- lifecycle: hot-swap and rollout hooks ---------------------------
    def reload(self, target: Any, model_version: Optional[str] = None) -> None:
        """Zero-downtime hot-swap: replace the served model under load.

        Delegates to the scorer's own ``reload`` —
        :meth:`PipelineScorer.reload` drains the in-flight batch and swaps
        the pipeline; :meth:`~repro.serving.pool.WorkerPool.reload`
        replaces replicas one at a time (round-robin), so capacity never
        drops to zero.  ``target`` is whatever the scorer accepts (a
        :class:`~repro.serving.artifacts.LoadedBundle`, a fitted pipeline,
        or a bundle path for the pool).  Emits a ``deploy.swap`` span/
        event and bumps the ``deploy.swaps`` counter.
        """
        reload_fn = getattr(self.scorer, "reload", None)
        if reload_fn is None:
            raise DeploymentError(
                f"scorer {type(self.scorer).__name__} does not support hot-swap "
                "(no reload method)"
            )
        telem = get_telemetry()
        with telem.span("deploy.swap", trace="new"):
            reload_fn(target, model_version=model_version)
        swapped_to = getattr(self.scorer, "model_version", model_version)
        telem.counter("deploy.swaps").inc()
        telem.event("deploy.swap", model_version=swapped_to)
        with self._stats_lock:
            self._counts["reloads"] += 1

    def set_scorer(self, scorer: Any) -> None:
        """Swap the scorer object itself (the canary split install path).

        The replacement must score the same ``(H, W)`` frames; dispatch
        threads pick it up on their next batch.  Used by
        :class:`~repro.deploy.CanaryController` to install and remove a
        :class:`~repro.deploy.CanarySplitScorer`; for a plain model
        upgrade prefer :meth:`reload`, which drains per replica.
        """
        expected = getattr(self.scorer, "image_shape", None)
        offered = getattr(scorer, "image_shape", None)
        if expected is not None and offered is not None and tuple(expected) != tuple(offered):
            raise DeploymentError(
                f"scorer swap shape mismatch: serving {tuple(expected)}, "
                f"candidate scores {tuple(offered)}"
            )
        self.scorer = scorer

    def attach_shadow(self, shadow: Optional[Any]) -> None:
        """Attach (or with ``None`` detach) a shadow-scoring observer.

        The observer's ``offer(frame, scored)`` is called for every
        ``Scored`` outcome after it resolves — mirroring can therefore
        never delay or change a response.  See
        :class:`~repro.deploy.ShadowRunner`.
        """
        self._shadow = shadow

    # -- introspection ---------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Counts plus end-to-end latency percentiles (milliseconds).

        Includes the loaded model's identity — ``model_version`` (registry
        version or bundle hash, when the scorer advertises one) and
        ``dtype`` — so operators can tell *what* is serving, not just the
        ``last_trace_id`` of whatever it served.
        """
        with self._stats_lock:
            counts = dict(self._counts)
            latencies = list(self._latencies)
            last_trace_id = self._last_trace_id
            in_flight = self._in_flight
        summary: Dict[str, Any] = dict(counts)
        summary["queue_depth"] = len(self._batcher)
        if self.admission is not None:
            admission_stats = self.admission.stats()
            admission_stats["in_flight"] = in_flight
            admission_stats["queue_depths"] = self._batcher.depths()
            summary["admission"] = admission_stats
        model_version = getattr(self.scorer, "model_version", None)
        if model_version is not None:
            summary["model_version"] = model_version
        dtype = getattr(self.scorer, "dtype", None)
        if dtype is not None:
            summary["dtype"] = np.dtype(dtype).name
        if last_trace_id is not None:
            summary["last_trace_id"] = last_trace_id
        if self.breaker is not None:
            summary["breaker"] = self.breaker.stats()
        ledger = self._ledger
        if ledger is not None:
            summary["ledger"] = ledger.stats()
        # percentile() is NaN on empty input; stats() feeds wire JSON, so
        # quote 0.0 for "no data" instead.
        ms = [t * 1e3 for t in latencies] or [0.0]
        summary["latency_ms"] = {
            "count": len(latencies),
            "mean": float(np.mean(ms)),
            **{f"p{q}": percentile(ms, float(q)) for q in (50, 95, 99)},
            "max": max(ms),
        }
        if counts["batches"]:
            summary["mean_batch_size"] = counts["scored"] / counts["batches"]
        return summary

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Stop dispatch, fail queued requests, release the scorer."""
        if self._closed:
            return
        self._closed = True
        leftovers = self._batcher.close()
        for thread in self._threads:
            thread.join(timeout=10.0)
        self._finish(leftovers, Failed(error="engine closed"), time.monotonic())
        close = getattr(self.scorer, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
