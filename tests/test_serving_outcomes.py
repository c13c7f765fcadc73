"""Property test: every request the engine accepts gets exactly one outcome.

Hypothesis draws a sequence of submits (with or without a deadline, under
a QoS policy or not, waited for or fired off), a backend schedule
(answer, raise, crash, NaN scores, stall) and the point at which the
engine is closed, then checks the accounting invariants the serving
stack promises.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.durability import RequestLedger
from repro.exceptions import WorkerCrashError
from repro.reliability import BreakerConfig, RetryPolicy
from repro.serving import (
    BatchVerdicts,
    EngineConfig,
    PendingResult,
    QosPolicy,
    RateLimit,
    ServingEngine,
)

FRAME_SHAPE = (2, 2)
STEPS = ("ok", "raise", "crash", "nan", "sleep")
OUTCOME_COUNTS = (
    "scored",
    "rejected",
    "rejected_admission",
    "deadline_exceeded",
    "failed",
    "degraded",
)


class _ScheduledScorer:
    """Follows a drawn schedule, one step per call, and records how often
    each frame (tagged by its value) reached it."""

    replicas = 1
    image_shape = FRAME_SHAPE

    def __init__(self, schedule):
        self.schedule = schedule
        self.calls = 0
        self.seen: Counter = Counter()
        self._lock = threading.Lock()

    def score_batch(self, frames):
        with self._lock:
            step = self.schedule[self.calls % len(self.schedule)]
            self.calls += 1
            self.seen.update(float(frame[0, 0]) for frame in frames)
        if step == "raise":
            raise RuntimeError("scheduled backend failure")
        if step == "crash":
            raise WorkerCrashError("scheduled worker crash")
        if step == "sleep":
            time.sleep(0.003)
        n = len(frames)
        scores = np.full(n, np.nan) if step == "nan" else np.zeros(n)
        return BatchVerdicts(
            scores=scores, is_novel=np.zeros(n, dtype=bool), margins=np.zeros(n)
        )


submits = st.lists(
    st.tuples(
        st.sampled_from([None, 0.5, 5.0, 1000.0]),  # deadline_ms
        st.sampled_from([None, "critical", "interactive", "batch"]),  # qos_class
        st.sampled_from([None, "greedy"]),  # client_id
        st.booleans(),  # wait for this outcome before the next submit
    ),
    min_size=1,
    max_size=24,
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    requests=submits,
    schedule=st.lists(st.sampled_from(STEPS), min_size=1, max_size=8),
    close_at=st.integers(min_value=0, max_value=24),
    qos=st.booleans(),
    retry=st.booleans(),
    breaker=st.booleans(),
    fail_safe=st.sampled_from(["fail", "novel"]),
    max_batch_size=st.integers(min_value=1, max_value=4),
)
def test_every_request_resolves_exactly_once(
    requests, schedule, close_at, qos, retry, breaker, fail_safe, max_batch_size
):
    policy = (
        QosPolicy(client_rate_limits={"greedy": RateLimit(rate_per_s=1.0, burst=2)})
        if qos
        else None
    )
    config = EngineConfig(
        max_batch_size=max_batch_size,
        max_wait_ms=0.5,
        queue_capacity=4,
        retry=RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0) if retry else None,
        breaker=BreakerConfig(window=4, min_calls=2) if breaker else None,
        fail_safe=fail_safe,
        qos=policy,
    )
    scorer = _ScheduledScorer(schedule)
    resolves: Counter = Counter()
    original_resolve = PendingResult.resolve

    def counting_resolve(pending, outcome):
        resolves[id(pending)] += 1
        original_resolve(pending, outcome)

    ledger = RequestLedger(None)
    pendings = []
    with mock.patch.object(PendingResult, "resolve", counting_resolve):
        engine = ServingEngine(scorer, config)
        engine.attach_ledger(ledger)
        try:
            for index, (deadline_ms, qos_class, client_id, wait) in enumerate(requests):
                if index == close_at:
                    engine.close()
                pending = engine.submit(
                    np.full(FRAME_SHAPE, float(index)),
                    deadline_ms=deadline_ms,
                    qos_class=qos_class,
                    client_id=client_id,
                )
                pendings.append(pending)
                if wait:
                    pending.result(10.0)
        finally:
            engine.close()

    # close() drains the dispatch threads and fails the queue: nothing is
    # left pending, and nothing was resolved twice.
    assert all(p.done() for p in pendings)
    assert [resolves[id(p)] for p in pendings] == [1] * len(pendings)
    ledger_stats = ledger.stats()
    assert ledger_stats["admitted"] == ledger_stats["resolved"] == len(requests)
    stats = engine.stats()
    assert stats["submitted"] == len(requests)
    assert sum(stats[key] for key in OUTCOME_COUNTS) == len(requests)
    tally = Counter(p.result(0).status for p in pendings)
    for status in tally:
        event(status)
    assert tally["failed"] == stats["failed"]
    assert tally["ok"] == stats["scored"]
    # One retry layer: a batch reaches the backend at most max_attempts
    # times (3 with the policy; the default retries a crash once).
    assert max(scorer.seen.values(), default=0) <= (3 if retry else 2)
