"""Tests for the multiprocess worker pool (replicas, health, restart).

The pool respawns a crashed replica but does not retry; the kill tests
therefore score through ``ServingEngine(pool)`` at its default config,
whose one immediate retry of a ``WorkerCrashError`` lands on a live
replica.
"""

import numpy as np
import pytest

from repro.config import CI
from repro.exceptions import (
    ArtifactError,
    ConfigurationError,
    ServingError,
    WorkerCrashError,
)
from repro.serving import Scored, ServingEngine, WorkerPool


@pytest.fixture(scope="module")
def pool(bundle_dir):
    """One two-replica pool shared across this module (spawn cost)."""
    with WorkerPool(bundle_dir, workers=2, request_timeout_s=120.0) as pool:
        yield pool


@pytest.fixture(scope="module")
def engine(pool):
    """A default-config engine over the shared pool (closing it closes the
    pool, so it lives exactly as long as the module's pool)."""
    engine = ServingEngine(pool)
    yield engine
    engine.close()


def _scored(outcomes):
    assert all(isinstance(o, Scored) for o in outcomes), outcomes
    return outcomes


class TestScoring:
    def test_matches_in_process_pipeline(self, pool, fitted_pipeline, dsu_test):
        frames = dsu_test.frames[:6]
        verdicts = pool.score_batch(frames)
        np.testing.assert_allclose(
            verdicts.scores, fitted_pipeline.score_batch(frames)
        )
        detector = fitted_pipeline.one_class.detector
        np.testing.assert_array_equal(
            verdicts.is_novel, detector.predict(verdicts.scores)
        )

    def test_image_shape_from_manifest(self, pool):
        assert pool.image_shape == CI.image_shape

    def test_round_robin_spreads_requests(self, pool, dsu_test):
        # Several sequential batches all succeed regardless of which
        # replica serves them.
        for _ in range(4):
            assert len(pool.score_batch(dsu_test.frames[:2])) == 2


class TestHealth:
    def test_ping_all_replicas(self, pool):
        assert pool.ping() == [True, True]

    def test_killed_worker_is_restarted(self, pool, engine, dsu_test):
        """The acceptance scenario: kill a replica; the batch routed to it
        respawns the replica, the engine retries it once, and it comes
        back ``Scored`` with the retry on record."""
        before = pool.restarts
        pool._workers[0].process.kill()
        pool._workers[0].process.join(timeout=10.0)
        outcomes = _scored([engine.infer(frame) for frame in dsu_test.frames[:4]])
        assert sorted(o.retries for o in outcomes) == [0, 0, 0, 1]
        assert pool.restarts == before + 1
        assert pool.ping() == [True, True]

    def test_ensure_healthy_respawns_dead_replica(self, pool):
        pool._workers[1].process.kill()
        pool._workers[1].process.join(timeout=10.0)
        assert pool.ensure_healthy() == 1
        assert pool.ping() == [True, True]

    def test_stats_reports_liveness(self, pool):
        stats = pool.stats()
        assert stats["workers"] == 2
        assert stats["alive"] == 2
        assert stats["restarts"] == pool.restarts


class TestRepeatedCrashes:
    def test_ensure_healthy_survives_consecutive_crashes_of_same_replica(self, pool):
        """A crash-looping replica: kill worker 0 three times in a row;
        every ``ensure_healthy`` pass restarts exactly that one replica and
        the restart counter advances by exactly one each time."""
        for round_number in range(3):
            before = pool.restarts
            pool._workers[0].process.kill()
            pool._workers[0].process.join(timeout=10.0)
            assert pool.ensure_healthy() == 1
            assert pool.restarts == before + 1
            assert pool.ping() == [True, True]

    def test_ensure_healthy_is_noop_on_healthy_pool(self, pool):
        before = pool.restarts
        assert pool.ensure_healthy() == 0
        assert pool.restarts == before

    def test_scoring_heals_without_ensure_healthy(self, pool, engine, dsu_test):
        """Back-to-back kills absorbed by the scoring path alone: each batch
        routed to the dead replica restarts it and the engine retries."""
        before = pool.restarts
        for _ in range(2):
            pool._workers[1].process.kill()
            pool._workers[1].process.join(timeout=10.0)
            # Two sequential single-frame batches round-robin over both
            # replicas, so one of them meets the dead one.
            _scored([engine.infer(frame) for frame in dsu_test.frames[:2]])
        assert pool.restarts == before + 2
        assert pool.ping() == [True, True]

    def test_round_robin_keeps_spreading_after_restarts(self, pool, engine, dsu_test):
        """Mid-restart round-robin: with one replica freshly killed, four
        consecutive batches (which round-robin across both replicas) all
        succeed."""
        pool._workers[0].process.kill()
        pool._workers[0].process.join(timeout=10.0)
        for _ in range(4):
            assert len(_scored(engine.infer_many(dsu_test.frames[:3]))) == 3
        assert pool.stats()["alive"] == 2

    def test_crash_without_engine_raises_after_respawn(self, pool, dsu_test):
        """The pool alone does not retry: the batch that meets a dead
        replica fails with ``WorkerCrashError``, and the replica is already
        respawned for the next one."""
        before = pool.restarts
        pool._workers[0].process.kill()
        pool._workers[0].process.join(timeout=10.0)
        outcomes = []
        for _ in range(2):
            try:
                outcomes.append(len(pool.score_batch(dsu_test.frames[:2])))
            except WorkerCrashError:
                outcomes.append("crash")
        assert sorted(outcomes, key=str) == [2, "crash"]
        assert pool.restarts == before + 1
        assert pool.ping() == [True, True]


class TestLifecycleAndValidation:
    def test_bad_bundle_path_fails_fast(self, tmp_path):
        with pytest.raises(ArtifactError):
            WorkerPool(tmp_path / "nope", workers=1)

    def test_invalid_worker_count(self, bundle_dir):
        with pytest.raises(ConfigurationError):
            WorkerPool(bundle_dir, workers=0)

    def test_score_after_close_raises(self, bundle_dir, dsu_test):
        pool = WorkerPool(bundle_dir, workers=1, request_timeout_s=120.0)
        pool.close()
        with pytest.raises(ServingError):
            pool.score_batch(dsu_test.frames[:1])

    def test_close_is_idempotent(self, bundle_dir):
        pool = WorkerPool(bundle_dir, workers=1, request_timeout_s=120.0)
        pool.close()
        pool.close()
        assert pool.stats()["alive"] == 0
