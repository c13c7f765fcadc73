"""Micro-benchmark: reliability guards must be ~free on the healthy path.

The circuit breaker and retry executor wrap every scored micro-batch when
configured (``EngineConfig.retry`` / ``EngineConfig.breaker``).  Their
whole value is paid on the *failure* path; on the healthy path — a backend
that never raises — the guard must cost almost nothing, or nobody enables
it in production.  This compares ``ServingEngine._score_guarded`` with
breaker + retry configured against the bare ``scorer.score_batch`` call and gates the
overhead at 5%, same as the telemetry null-backend gate.
"""

import numpy as np

from repro.config import BENCH
from repro.experiments.harness import ExperimentResult
from repro.novelty import SaliencyNoveltyPipeline
from repro.reliability import BreakerConfig, RetryPolicy
from repro.serving import EngineConfig, PipelineScorer, ServingEngine
from repro.utils.timer import time_call

REPEATS = 30
BATCH = 8


def _fitted_pipeline(bench_workbench):
    pipeline = SaliencyNoveltyPipeline(
        bench_workbench.steering_model("dsu"),
        BENCH.image_shape,
        loss="ssim",
        config=bench_workbench.autoencoder_config(),
        rng=0,
    )
    pipeline.fit(bench_workbench.batch("dsu", "train").frames)
    return pipeline


def test_healthy_path_overhead_under_5_percent(benchmark, bench_workbench, report):
    pipeline = _fitted_pipeline(bench_workbench)
    scorer = PipelineScorer(pipeline)
    stack = np.stack(bench_workbench.batch("dsu", "test").frames[:BATCH])

    engine = ServingEngine(
        scorer,
        EngineConfig(
            max_batch_size=BATCH,
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.01),
            breaker=BreakerConfig(),
            fail_safe="novel",
        ),
    )
    try:
        # Warm-up (BLAS pools, layer caches) outside the timed region.
        scorer.score_batch(stack)
        engine._score_guarded(stack)

        guarded, guarded_timer = time_call(
            engine._score_guarded, stack, repeats=REPEATS
        )
        bare, bare_timer = time_call(scorer.score_batch, stack, repeats=REPEATS)
        np.testing.assert_allclose(guarded[0].scores, bare.scores)
        assert guarded[1] == 0, "healthy path must not spend retries"
        assert engine.breaker.state == "closed"

        # Min-of-repeats: scheduler noise at millisecond scale dwarfs the
        # microseconds a breaker bookkeeping pass costs.
        overhead = guarded_timer.min / bare_timer.min - 1.0

        result = ExperimentResult(
            exp_id="reliability_overhead",
            title="Breaker + retry overhead on the healthy serving path (extension)",
            rows=[
                f"{'bare ms/batch (min)':<28} {bare_timer.min * 1e3:>8.3f}",
                f"{'guarded ms/batch (min)':<28} {guarded_timer.min * 1e3:>8.3f}",
                f"{'overhead':<28} {overhead:>8.2%}",
            ],
            metrics={
                "bare_ms": bare_timer.min * 1e3,
                "guarded_ms": guarded_timer.min * 1e3,
                "overhead_fraction": overhead,
            },
            notes=(
                f"min over {REPEATS} repeats of an {BATCH}-frame batch; guarded "
                "path = retry executor + finite-score validation + breaker "
                "success recording, all healthy"
            ),
        )
        report(result)
        benchmark.pedantic(engine._score_guarded, args=(stack,), rounds=3, iterations=1)
        assert overhead < 0.05, (
            f"reliability guards add {overhead:.1%} to a healthy batch "
            f"(guarded {guarded_timer.min * 1e3:.3f}ms vs "
            f"bare {bare_timer.min * 1e3:.3f}ms)"
        )
    finally:
        engine.close()
