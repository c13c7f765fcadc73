"""Tests for the serving engine: admission, batching, deadlines, outcomes."""

import threading
import time

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, NotFittedError, ShapeError
from repro.serving import (
    BatchVerdicts,
    DeadlineExceeded,
    Degraded,
    EngineConfig,
    Failed,
    PipelineScorer,
    Rejected,
    Scored,
    ServingEngine,
)

FRAME_SHAPE = (4, 4)


class _BlockingScorer:
    """Stub backend that parks every batch until told to proceed — lets the
    tests fill the bounded queue deterministically."""

    replicas = 1
    image_shape = FRAME_SHAPE

    def __init__(self):
        self.release = threading.Event()
        self.batches = []

    def score_batch(self, frames):
        self.release.wait(timeout=30.0)
        self.batches.append(len(frames))
        n = len(frames)
        return BatchVerdicts(
            scores=np.arange(n, dtype=float),
            is_novel=np.zeros(n, dtype=bool),
            margins=np.zeros(n),
        )


class _SlowScorer:
    """Stub backend that takes ``delay_s`` per batch."""

    replicas = 1
    image_shape = FRAME_SHAPE

    def __init__(self, delay_s):
        self.delay_s = delay_s

    def score_batch(self, frames):
        time.sleep(self.delay_s)
        n = len(frames)
        return BatchVerdicts(
            scores=np.zeros(n), is_novel=np.zeros(n, dtype=bool), margins=np.zeros(n)
        )


class _RaisingScorer:
    replicas = 1
    image_shape = FRAME_SHAPE

    def score_batch(self, frames):
        raise RuntimeError("backend exploded")


def _frame(value: float = 0.5) -> np.ndarray:
    return np.full(FRAME_SHAPE, value)


@pytest.fixture
def pipeline_engine(fitted_pipeline):
    engine = ServingEngine(
        PipelineScorer(fitted_pipeline),
        EngineConfig(max_batch_size=8, max_wait_ms=2.0, queue_capacity=64),
    )
    yield engine
    engine.close()


class TestScoring:
    def test_infer_returns_scored(self, pipeline_engine, dsu_test):
        outcome = pipeline_engine.infer(dsu_test.frames[0])
        assert isinstance(outcome, Scored)
        assert outcome.status == "ok"
        assert outcome.batch_size >= 1
        assert outcome.latency_s > 0.0

    def test_scores_match_direct_pipeline(self, pipeline_engine, fitted_pipeline, dsu_test):
        frames = dsu_test.frames[:6]
        outcomes = pipeline_engine.infer_many(frames)
        engine_scores = np.array([o.score for o in outcomes])
        np.testing.assert_allclose(engine_scores, fitted_pipeline.score_batch(frames))

    def test_verdicts_match_detector(self, pipeline_engine, fitted_pipeline, dsi_novel):
        frames = dsi_novel.frames[:6]
        outcomes = pipeline_engine.infer_many(frames)
        detector = fitted_pipeline.one_class.detector
        expected = detector.predict(fitted_pipeline.score_batch(frames))
        assert [o.is_novel for o in outcomes] == list(expected)

    def test_wrong_shape_rejected_at_submit(self, pipeline_engine):
        with pytest.raises(ShapeError):
            pipeline_engine.submit(np.zeros((3, 3)))
        with pytest.raises(ShapeError):
            pipeline_engine.submit(np.zeros(7))

    def test_unfitted_pipeline_rejected(self, trained_pilotnet):
        from repro.config import CI
        from repro.novelty import SaliencyNoveltyPipeline

        pipeline = SaliencyNoveltyPipeline(trained_pilotnet, CI.image_shape, rng=0)
        with pytest.raises(NotFittedError):
            PipelineScorer(pipeline)


class TestBackpressure:
    def test_overload_resolves_typed_rejection(self):
        scorer = _BlockingScorer()
        engine = ServingEngine(
            scorer, EngineConfig(max_batch_size=1, max_wait_ms=0.0, queue_capacity=2)
        )
        try:
            first = engine.submit(_frame())  # dequeued, parked in the scorer
            # Give the dispatch thread a moment to pull it off the queue.
            deadline = threading.Event()
            deadline.wait(0.2)
            backlog = [engine.submit(_frame()) for _ in range(2)]  # fills the queue
            rejected = [engine.submit(_frame()) for _ in range(3)]  # over capacity
            for pending in rejected:
                outcome = pending.result(1.0)
                assert isinstance(outcome, Rejected)
                assert outcome.status == "rejected"
                assert outcome.reason == "queue_full"
            scorer.release.set()
            assert isinstance(first.result(10.0), Scored)
            for pending in backlog:
                assert isinstance(pending.result(10.0), Scored)
            stats = engine.stats()
            assert stats["rejected"] == 3
            assert stats["scored"] == 3
        finally:
            scorer.release.set()
            engine.close()

    def test_queue_never_exceeds_capacity(self):
        scorer = _BlockingScorer()
        engine = ServingEngine(
            scorer, EngineConfig(max_batch_size=1, max_wait_ms=0.0, queue_capacity=4)
        )
        try:
            pendings = [engine.submit(_frame()) for _ in range(20)]
            assert engine.stats()["queue_depth"] <= 4
            scorer.release.set()
            outcomes = [p.result(10.0) for p in pendings]
            assert sum(
                isinstance(o, Rejected) and o.reason == "queue_full" for o in outcomes
            ) >= 14
        finally:
            scorer.release.set()
            engine.close()


class TestDeadlines:
    def test_expired_request_dropped_unscored(self):
        scorer = _BlockingScorer()
        engine = ServingEngine(
            scorer, EngineConfig(max_batch_size=1, max_wait_ms=0.0, queue_capacity=8)
        )
        try:
            blocker = engine.submit(_frame())  # occupies the scorer
            expiring = engine.submit(_frame(), deadline_ms=10.0)
            threading.Event().wait(0.1)  # let the deadline lapse in the queue
            scorer.release.set()
            outcome = expiring.result(10.0)
            assert isinstance(outcome, DeadlineExceeded)
            assert outcome.waited_s >= outcome.deadline_s
            assert isinstance(blocker.result(10.0), Scored)
            assert engine.stats()["deadline_exceeded"] == 1
        finally:
            scorer.release.set()
            engine.close()

    def test_default_deadline_from_config(self):
        scorer = _BlockingScorer()
        engine = ServingEngine(
            scorer,
            EngineConfig(
                max_batch_size=1, max_wait_ms=0.0, queue_capacity=8,
                default_deadline_ms=10.0,
            ),
        )
        try:
            engine.submit(_frame())
            queued = engine.submit(_frame())  # inherits the 10 ms default
            threading.Event().wait(0.1)
            scorer.release.set()
            assert isinstance(queued.result(10.0), DeadlineExceeded)
        finally:
            scorer.release.set()
            engine.close()


class TestFailures:
    def test_backend_exception_becomes_failed(self):
        engine = ServingEngine(
            _RaisingScorer(), EngineConfig(max_batch_size=4, queue_capacity=8)
        )
        try:
            outcome = engine.infer(_frame())
            assert isinstance(outcome, Failed)
            assert "backend exploded" in outcome.error
            assert engine.stats()["failed"] == 1
        finally:
            engine.close()

    def test_close_fails_queued_requests(self):
        scorer = _BlockingScorer()
        engine = ServingEngine(
            scorer, EngineConfig(max_batch_size=1, max_wait_ms=0.0, queue_capacity=8)
        )
        engine.submit(_frame())  # parked in the scorer
        threading.Event().wait(0.1)
        queued = engine.submit(_frame())
        scorer.release.set()
        engine.close()
        outcome = queued.result(1.0)
        # Either scored in the drain race or failed by close — never lost.
        assert isinstance(outcome, (Scored, Failed))

    def test_close_counts_the_requests_it_fails(self):
        """Requests still queued at close() resolve ``Failed`` *and* are
        counted, so the outcome counts add up to what was submitted."""
        from repro.durability import RequestLedger

        engine = ServingEngine(
            _SlowScorer(0.2),
            EngineConfig(max_batch_size=1, max_wait_ms=0.0, queue_capacity=16),
        )
        ledger = RequestLedger(None)
        engine.attach_ledger(ledger)
        pendings = [engine.submit(_frame()) for _ in range(10)]
        engine.close()
        outcomes = [p.result(1.0) for p in pendings]
        stats = engine.stats()
        failed = sum(isinstance(o, Failed) for o in outcomes)
        assert failed >= 8
        assert stats["failed"] == failed
        assert stats["submitted"] == 10 == sum(
            stats[key]
            for key in (
                "scored",
                "rejected",
                "deadline_exceeded",
                "failed",
                "degraded",
            )
        )
        assert ledger.outstanding == []
        assert ledger.stats()["resolved"] == ledger.stats()["admitted"] == 10


class TestStats:
    def test_latency_percentiles_ordered(self, pipeline_engine, dsu_test):
        pipeline_engine.infer_many(dsu_test.frames[:8])
        latency = pipeline_engine.stats()["latency_ms"]
        assert 0.0 < latency["p50"] <= latency["p95"] <= latency["p99"] <= latency["max"]

    def test_mean_batch_size_reported(self, pipeline_engine, dsu_test):
        pipeline_engine.infer_many(dsu_test.frames[:8])
        stats = pipeline_engine.stats()
        assert stats["batches"] >= 1
        assert stats["mean_batch_size"] >= 1.0


class TestTelemetry:
    def test_serving_metrics_recorded(self, fitted_pipeline, dsu_test, tmp_path):
        from repro.telemetry import telemetry_session

        trace = tmp_path / "serve.jsonl"
        with telemetry_session(trace):
            with ServingEngine(PipelineScorer(fitted_pipeline)) as engine:
                engine.infer_many(dsu_test.frames[:4])
        text = trace.read_text()
        for name in (
            "serving.requests",
            "serving.queue_depth",
            "serving.batch_size",
            "serving.request_latency",
            "serving.batch",
        ):
            assert name in text


class TestEngineConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch_size": 0},
            {"queue_capacity": 0},
            {"max_wait_ms": -0.1},
            {"default_deadline_ms": 0.0},
            {"fail_safe": "explode"},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            EngineConfig(**kwargs)


class _FlakyScorer:
    """Fails its first ``failures`` batches, then scores normally."""

    replicas = 1
    image_shape = FRAME_SHAPE

    def __init__(self, failures=1):
        self.failures = failures
        self.calls = 0

    def score_batch(self, frames):
        self.calls += 1
        if self.calls <= self.failures:
            raise RuntimeError(f"transient failure {self.calls}")
        n = len(frames)
        return BatchVerdicts(
            scores=np.full(n, 0.4),
            is_novel=np.zeros(n, dtype=bool),
            margins=np.full(n, -0.1),
        )


class _NaNScorer:
    replicas = 1
    image_shape = FRAME_SHAPE

    def score_batch(self, frames):
        n = len(frames)
        return BatchVerdicts(
            scores=np.full(n, np.nan),
            is_novel=np.zeros(n, dtype=bool),
            margins=np.full(n, np.nan),
        )


class TestReliability:
    """Retry / breaker / fail-safe wiring (full storms live in test_chaos)."""

    def _retry_config(self, **kwargs):
        from repro.reliability import RetryPolicy

        return EngineConfig(
            max_batch_size=4,
            queue_capacity=16,
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0),
            **kwargs,
        )

    def test_transient_failure_retried_to_success(self):
        scorer = _FlakyScorer(failures=1)
        with ServingEngine(scorer, self._retry_config()) as engine:
            outcome = engine.infer(_frame())
        assert isinstance(outcome, Scored)
        assert outcome.retries == 1
        assert scorer.calls == 2

    def test_exhausted_retries_fail_safe_novel(self):
        scorer = _FlakyScorer(failures=10)
        with ServingEngine(scorer, self._retry_config(fail_safe="novel")) as engine:
            outcome = engine.infer(_frame())
        assert isinstance(outcome, Degraded)
        assert outcome.status == "degraded"
        assert outcome.is_novel is True
        assert "transient failure" in outcome.reason
        assert scorer.calls == 3  # max_attempts, then gave up

    def test_exhausted_retries_fail_safe_fail(self):
        with ServingEngine(_FlakyScorer(failures=10), self._retry_config()) as engine:
            outcome = engine.infer(_frame())
        assert isinstance(outcome, Failed)

    def test_nan_scores_are_a_backend_failure_with_reliability_on(self):
        with ServingEngine(_NaNScorer(), self._retry_config(fail_safe="novel")) as engine:
            outcome = engine.infer(_frame())
        assert isinstance(outcome, Degraded)
        assert "non-finite" in outcome.reason

    def test_nan_scores_fail_without_reliability(self):
        """Every config refuses non-finite scores: a NaN compared with the
        threshold would read as "not novel"."""
        with ServingEngine(_NaNScorer(), EngineConfig(max_batch_size=4)) as engine:
            outcome = engine.infer(_frame())
            stats = engine.stats()
        assert isinstance(outcome, Failed)
        assert "non-finite" in outcome.error
        assert stats["failed"] == 1 and stats["scored"] == 0

    def test_breaker_stats_surface_in_engine_stats(self):
        from repro.reliability import BreakerConfig

        config = EngineConfig(
            max_batch_size=4,
            queue_capacity=16,
            breaker=BreakerConfig(window=8, min_calls=2, failure_threshold=0.5),
        )
        with ServingEngine(_FlakyScorer(failures=0), config) as engine:
            assert isinstance(engine.infer(_frame()), Scored)
            stats = engine.stats()
        assert stats["breaker"]["state"] == "closed"
        assert "degraded" in stats and "retries" in stats

    def test_degraded_serializes_over_the_wire(self):
        from repro.serving.service import _serialize_outcome

        payload = _serialize_outcome(
            7, Degraded(reason="circuit breaker open", is_novel=True, policy="novel")
        )
        assert payload["status"] == "degraded"
        assert payload["is_novel"] is True
        assert payload["id"] == 7
