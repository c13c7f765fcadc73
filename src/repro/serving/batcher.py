"""Micro-batching request queue with bounded admission.

Single-frame requests arrive one at a time (a camera feed, socket
clients); batched numpy matmuls are where the throughput is.  Producers
:meth:`~WeightedClassBatcher.offer` requests into bounded per-class
FIFOs; consumers (the engine's dispatch threads) pull *micro-batches*
that close when full or ``max_wait_ms`` after their first frame,
whichever comes first.  A full queue rejects at admission (the engine
turns that into a typed :class:`~repro.serving.results.Overloaded`
outcome) instead of queueing unboundedly.

There is one batching loop, :meth:`WeightedClassBatcher.next_batch`:
each slot goes to the smooth weighted round-robin winner among the
backlogged priority classes.  :class:`MicroBatcher` is the same batcher
with a single class — the plain FIFO the engine uses without a QoS
policy.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.serving.qos import DEFAULT_CLASS, ClassPolicy, QosPolicy
from repro.serving.results import PendingResult
from repro.telemetry.trace import TraceContext


@dataclass
class QueuedRequest:
    """One admitted request waiting to be scored."""

    frame: np.ndarray
    pending: PendingResult
    enqueued_at: float
    #: Absolute ``time.monotonic()`` deadline, or ``None`` for no deadline.
    deadline_at: Optional[float]
    #: Root trace context of this request (``None`` when telemetry is off);
    #: the value that carries the request's identity across the queue.
    trace: Optional[TraceContext] = None
    #: Durable request-ledger id (``None`` when journaling is off); the
    #: engine resolves it alongside the :class:`PendingResult`, so a
    #: crash leaves exactly the unresolved ids on disk.
    ledger_id: Optional[int] = None
    #: Priority class the request was admitted under; routes it to its
    #: class queue in the batcher.
    qos_class: str = DEFAULT_CLASS
    #: Client identity from the wire protocol (``None`` = anonymous /
    #: in-process); admission quotas are keyed on it.
    client_id: Optional[str] = None


class WeightedClassBatcher:
    """Per-class bounded FIFOs drained by smooth weighted round-robin.

    Under contention each class receives batch slots in proportion to its
    weight, with no reordering inside a class.

    Parameters
    ----------
    policy:
        The QoS policy supplying class names, weights, and per-class
        queue capacities.
    max_batch_size:
        Largest batch a single :meth:`next_batch` call returns.
    max_wait_ms:
        How long an open batch waits for more frames before closing
        under-full.  ``0`` means "whatever is queued right now".
    default_capacity:
        Queue bound for classes whose policy leaves ``queue_capacity``
        unset (the engine passes its ``queue_capacity``).
    """

    def __init__(
        self,
        policy: QosPolicy,
        max_batch_size: int = 8,
        max_wait_ms: float = 2.0,
        default_capacity: int = 64,
    ) -> None:
        if max_batch_size < 1:
            raise ConfigurationError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_wait_ms < 0:
            raise ConfigurationError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        if default_capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {default_capacity}")
        self.policy = policy
        self.max_batch_size = int(max_batch_size)
        self.max_wait_s = float(max_wait_ms) / 1000.0
        self._queues: Dict[str, Deque[QueuedRequest]] = {
            name: deque() for name in policy.classes
        }
        self._capacities: Dict[str, int] = {
            name: int(spec.queue_capacity or default_capacity)
            for name, spec in policy.classes.items()
        }
        self._weights: Dict[str, float] = {
            name: float(spec.weight) for name, spec in policy.classes.items()
        }
        # Smooth-WRR credit per class; mutated only under the lock.
        self._credit: Dict[str, float] = {name: 0.0 for name in policy.classes}
        self._cond = threading.Condition()
        self._closed = False

    @property
    def capacity(self) -> int:
        """Total admission bound across every class queue."""
        return sum(self._capacities.values())

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def __len__(self) -> int:
        """Total queued requests across every class."""
        with self._cond:
            return sum(len(q) for q in self._queues.values())

    def depths(self) -> Dict[str, int]:
        """Per-class queue depths (one consistent snapshot)."""
        with self._cond:
            return {name: len(q) for name, q in self._queues.items()}

    def offer(self, request: QueuedRequest) -> bool:
        """Admit into the request's class queue; ``False`` when that
        class's bounded queue is full or the batcher is closed."""
        qos_class = request.qos_class
        if qos_class not in self._queues:
            raise ConfigurationError(
                f"unknown priority class {qos_class!r}; this batcher serves "
                f"{', '.join(sorted(self._queues))}"
            )
        with self._cond:
            queue = self._queues[qos_class]
            if self._closed or len(queue) >= self._capacities[qos_class]:
                return False
            queue.append(request)
            self._cond.notify()
            return True

    def _pick(self) -> Optional[QueuedRequest]:
        """Pop the smooth-WRR winner among non-empty classes (lock held)."""
        backlogged = [name for name, q in self._queues.items() if q]
        if not backlogged:
            return None
        total = sum(self._weights[name] for name in backlogged)
        winner = None
        for name in backlogged:
            self._credit[name] += self._weights[name]
            if winner is None or self._credit[name] > self._credit[winner]:
                winner = name
        self._credit[winner] -= total
        return self._queues[winner].popleft()

    def next_batch(self) -> Optional[List[QueuedRequest]]:
        """Block until a micro-batch is ready; ``None`` once closed and drained.

        Safe for multiple consumer threads: each call assembles its batch
        under the queue lock, releasing it while waiting for stragglers.
        Each slot is filled by the weighted round-robin winner.
        """
        with self._cond:
            while not any(self._queues.values()):
                if self._closed:
                    return None
                self._cond.wait()
            first = self._pick()
            assert first is not None
            batch = [first]
            window_ends = time.monotonic() + self.max_wait_s
            while len(batch) < self.max_batch_size:
                request = self._pick()
                if request is not None:
                    batch.append(request)
                    continue
                remaining = window_ends - time.monotonic()
                if remaining <= 0 or self._closed:
                    break
                self._cond.wait(remaining)
            return batch

    def close(self) -> List[QueuedRequest]:
        """Refuse further admissions, wake consumers, return the leftovers.

        Leftovers come highest-priority class first.  The caller owns them
        and must resolve their futures (the engine fails them as "engine
        closed").
        """
        with self._cond:
            self._closed = True
            leftovers: List[QueuedRequest] = []
            for queue in self._queues.values():
                leftovers.extend(queue)
                queue.clear()
            self._cond.notify_all()
            return leftovers


#: The one-class policy behind :class:`MicroBatcher`.
_FIFO_POLICY = QosPolicy(
    classes={DEFAULT_CLASS: ClassPolicy()}, default_class=DEFAULT_CLASS, aimd=None
)


class MicroBatcher(WeightedClassBatcher):
    """A single-class :class:`WeightedClassBatcher`: one bounded FIFO.

    :meth:`offer` refuses once ``capacity`` requests are queued.  Requests
    carry the default class, as :class:`QueuedRequest` does by default.
    """

    def __init__(
        self,
        max_batch_size: int = 8,
        max_wait_ms: float = 2.0,
        capacity: int = 64,
    ) -> None:
        super().__init__(
            _FIFO_POLICY,
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
            default_capacity=capacity,
        )
