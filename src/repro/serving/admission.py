"""Admission control: the serving front door's accept/refuse decision.

:class:`AdmissionController`, driven by a
:class:`~repro.serving.qos.QosPolicy`, decides per request and *before*
any work is queued whether to admit.  Checks run cheapest-first: the
client's token bucket (quota), the AIMD concurrency limit, then
deadline-aware shedding (refuse when the predicted queue delay already
exceeds the request's deadline).  A refusal carries a machine-readable
reason (:data:`REJECTION_REASONS`) that the engine turns into a typed
:class:`~repro.serving.results.Rejected` outcome — rejections are
answers, not errors, and are never retried against the same node.
Scheduling between the admitted classes is the batcher's job
(:class:`~repro.serving.batcher.WeightedClassBatcher`).

The controller is crash-durable: its ``state_dict`` carries every
client's remaining tokens and the adaptive concurrency limit, so a
restart under ``repro serve --journal-dir`` resumes quotas instead of
handing every client a fresh burst.  See ``docs/admission.md``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional

from repro.exceptions import ConfigurationError, StateRestoreError
from repro.serving.qos import (
    AimdLimiter,
    ClassPolicy,
    QosPolicy,
    ServiceTimeEstimator,
    TokenBucket,
)

#: Machine-readable rejection reasons carried on ``Rejected`` outcomes.
REJECT_RATE_LIMITED = "rate_limited"
REJECT_CONCURRENCY = "concurrency_limit"
REJECT_DEADLINE = "deadline_unmeetable"
REJECTION_REASONS = (REJECT_RATE_LIMITED, REJECT_CONCURRENCY, REJECT_DEADLINE)


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check.

    Attributes
    ----------
    admitted:
        Whether the request may enter the queue.
    reason:
        One of :data:`REJECTION_REASONS` when refused, else ``None``.
    retry_after_ms:
        For rate-limited refusals, when the client's bucket will have a
        token again — a well-behaved client backs off at least this long.
    """

    admitted: bool
    reason: Optional[str] = None
    retry_after_ms: Optional[float] = None

    @classmethod
    def admit(cls) -> "AdmissionDecision":
        """An accepting decision."""
        return cls(admitted=True)

    @classmethod
    def reject(
        cls, reason: str, retry_after_ms: Optional[float] = None
    ) -> "AdmissionDecision":
        """A refusing decision carrying a machine-readable ``reason``."""
        return cls(admitted=False, reason=reason, retry_after_ms=retry_after_ms)


class AdmissionController:
    """Policy-driven accept/refuse decisions for the serving engine.

    Parameters
    ----------
    policy:
        The :class:`~repro.serving.qos.QosPolicy` to enforce.
    replicas:
        Scorer replica count — parallelism the delay estimate divides by.
    clock:
        Injectable monotonic clock (tests freeze it).

    Thread-safe: every admission runs under one lock (the checks are a
    few arithmetic operations, far cheaper than the frame copy that
    precedes them on the submit path).
    """

    def __init__(
        self,
        policy: QosPolicy,
        replicas: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy
        self.replicas = max(1, int(replicas))
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets: Dict[str, TokenBucket] = {}
        self.aimd: Optional[AimdLimiter] = (
            AimdLimiter(policy.aimd, clock=clock) if policy.aimd is not None else None
        )
        self.estimator = ServiceTimeEstimator(policy.estimator_window)
        self._admitted = 0
        self._rejected: Dict[str, int] = {reason: 0 for reason in REJECTION_REASONS}

    # -- classification --------------------------------------------------
    def resolve_class(self, qos_class: Optional[str]) -> str:
        """Map a request's (possibly absent) priority to a configured class."""
        if qos_class is None:
            return self.policy.default_class
        self.class_policy(qos_class)  # validates
        return qos_class

    def class_policy(self, qos_class: str) -> ClassPolicy:
        """The :class:`~repro.serving.qos.ClassPolicy` for ``qos_class``."""
        try:
            return self.policy.classes[qos_class]
        except KeyError:
            raise ConfigurationError(
                f"unknown priority class {qos_class!r}; this engine serves "
                f"{', '.join(sorted(self.policy.classes))}"
            ) from None

    # -- the admission decision ------------------------------------------
    def _bucket_for(self, client_id: Optional[str]) -> Optional[TokenBucket]:
        if client_id is None:
            client_id = ""
        limit = self.policy.client_rate_limits.get(client_id, self.policy.rate_limit)
        if limit is None:
            return None
        bucket = self._buckets.get(client_id)
        if bucket is None or bucket.limit is not limit:
            bucket = TokenBucket(limit, clock=self._clock)
            self._buckets[client_id] = bucket
        return bucket

    def admit(
        self,
        client_id: Optional[str],
        qos_class: str,
        deadline_s: Optional[float],
        queue_depth: int,
        in_flight: int,
    ) -> AdmissionDecision:
        """Decide one request, cheapest check first.

        ``queue_depth`` is the frames already queued, ``in_flight`` the
        admitted-but-unresolved count the AIMD limit compares against,
        ``deadline_s`` the request's *relative* deadline (``None`` = no
        deadline, never shed).
        """
        spec = self.class_policy(qos_class)
        with self._lock:
            bucket = self._bucket_for(client_id)
            if bucket is not None and not bucket.try_take():
                return self._refuse(
                    REJECT_RATE_LIMITED,
                    retry_after_ms=bucket.retry_after_s() * 1e3,
                )
            if spec.sheddable:
                if self.aimd is not None and in_flight >= self.aimd.limit:
                    return self._refuse(REJECT_CONCURRENCY)
                if self.policy.shed_deadlines and deadline_s is not None:
                    predicted = self.estimator.estimated_delay_s(
                        queue_depth, self.replicas
                    )
                    if predicted * self.policy.shed_safety_factor > deadline_s:
                        return self._refuse(REJECT_DEADLINE)
            self._admitted += 1
            return AdmissionDecision.admit()

    def _refuse(
        self, reason: str, retry_after_ms: Optional[float] = None
    ) -> AdmissionDecision:
        self._rejected[reason] = self._rejected.get(reason, 0) + 1
        return AdmissionDecision.reject(reason, retry_after_ms=retry_after_ms)

    # -- feedback from the dispatch path ---------------------------------
    def observe_batch(self, seconds: float, frames: int) -> None:
        """A batch scored cleanly: feed the estimator, grow the limit."""
        with self._lock:
            self.estimator.observe(seconds, frames)
            if self.aimd is not None:
                self.aimd.on_success()

    def on_overload(self, signal: str) -> None:
        """An overload signal (``"deadline_exceeded"``/``"breaker_open"``):
        back the concurrency limit off multiplicatively."""
        with self._lock:
            if self.aimd is not None:
                self.aimd.on_overload()

    # -- durability ------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Durable form: per-client bucket tokens plus the AIMD limit."""
        with self._lock:
            state: Dict[str, Any] = {
                "buckets": {
                    client: bucket.state_dict()
                    for client, bucket in self._buckets.items()
                },
            }
            if self.aimd is not None:
                state["aimd"] = self.aimd.state_dict()
            return state

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Restore journaled quota/limit state.

        Buckets for clients whose quota the current policy no longer
        meters are dropped (the policy, not the journal, is authoritative
        for *whether* a client is limited; the journal only carries how
        much of its quota it had spent).
        """
        buckets = state.get("buckets", {})
        if not isinstance(buckets, Mapping):
            raise StateRestoreError(
                f"malformed admission state: buckets is {type(buckets).__name__}"
            )
        with self._lock:
            for client, bucket_state in buckets.items():
                bucket = self._bucket_for(str(client))
                if bucket is not None:
                    bucket.load_state_dict(bucket_state)
            if self.aimd is not None and "aimd" in state:
                self.aimd.load_state_dict(state["aimd"])

    # -- introspection ---------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Admission counters, limiter state, and the current estimate."""
        with self._lock:
            stats: Dict[str, Any] = {
                "admitted": self._admitted,
                "rejected": dict(self._rejected),
                "clients_metered": len(self._buckets),
                "service_time_ms_per_frame": self.estimator.per_frame_s() * 1e3,
            }
            if self.aimd is not None:
                stats["concurrency_limit"] = self.aimd.limit
                stats["aimd_decreases"] = self.aimd.decreases
            return stats
