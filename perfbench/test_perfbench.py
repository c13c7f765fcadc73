"""Self-tests of the benchmark's own rules.

Run with ``python -m pytest perfbench``; they need neither the serving
stack nor a measurement.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from measure import (
    LATENCY_LIMIT_MS,
    SCORE_TOLERANCE,
    Expected,
    Ledger,
    classify,
    climb,
    p99_with_misses,
    percentile,
    quiet_quartile,
    slice_bounds,
    timing,
)

FINITE = Expected(finite=True, score=0.5, is_novel=False, threshold=0.8)
NONFINITE = Expected(finite=False)


def fast(n: int = 1000):
    return [1.0] * n


# -- ladder ----------------------------------------------------------------------


def test_ladder_stops_at_first_failing_rung():
    visited = []

    def rung(rate):
        visited.append(rate)
        return fast() if rate < 300 else [LATENCY_LIMIT_MS * 2] * 1000

    best, rungs = climb([100, 200, 300, 400, 500], rung)
    assert best == 200
    assert visited == [100, 200, 300]  # nothing above the first failure runs
    assert [r.passed for r in rungs] == [True, True, False]


def test_ladder_does_not_resume_after_a_failure():
    # 300 fails, 400 would pass: the answer is still 200.
    best, _ = climb([100, 200, 300, 400], lambda rate: [] if rate == 300 else fast())
    assert best == 200


def test_ladder_stride_walks_skipped_rungs_below_the_failure():
    visited = []

    def rung(rate):
        visited.append(rate)
        return fast() if rate <= 500 else [None] * 1000

    best, _ = climb([100, 200, 300, 400, 500, 600, 700, 800], rung, stride=3)
    assert best == 500
    assert visited == [100, 400, 700, 500, 600]


def test_ladder_that_never_fails_reports_the_top_rung():
    best, rungs = climb([100, 200, 300, 400], lambda rate: fast(), stride=3)
    assert best == 400
    assert [r.rate for r in rungs] == [100, 400]


def test_ladder_lowest_rung_failing_reports_zero():
    best, rungs = climb([100, 200], lambda rate: [None] * 1000)
    assert best == 0.0 and len(rungs) == 1


def test_failed_request_counts_as_missing_the_limit():
    # 2% of requests failed (None): p99 is a miss though every answer was fast.
    latencies = [1.0] * 980 + [None] * 20
    assert math.isinf(p99_with_misses(latencies))
    best, rungs = climb([100], lambda rate: latencies)
    assert best == 0.0 and not rungs[0].passed


def test_few_misses_stay_within_the_limit():
    latencies = [1.0] * 995 + [None] * 5
    assert p99_with_misses(latencies) == 1.0


# -- percentiles with sample counts --------------------------------------------


def test_percentile_interpolates_and_handles_edges():
    assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0
    assert percentile([0.0, 10.0], 25.0) == 2.5
    assert math.isnan(percentile([], 50.0))
    assert percentile([1.0, math.inf], 100.0) == math.inf


def test_timing_reports_sample_count_and_support():
    big = timing([float(i % 100) for i in range(3000)])
    assert big.n == 3000 and big.p50 == 49.5
    assert big.supported and big.beyond_p99 == 30
    assert "n=3000" in big.render()
    small = timing([1.0] * 500)
    assert small.n == 500 and not small.supported
    assert "fewer than 10 samples beyond p99" in small.render()


def test_slices_cover_every_reply_once():
    for n in (0, 1, 249, 250, 999, 5000, 12345):
        bounds = slice_bounds(n)
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        assert len(bounds) <= 20
        assert n < 500 or all(hi - lo >= 250 for lo, hi in bounds)


def test_quiet_quartile_sets_episodes_aside():
    # Four slices of twenty ran while the host was busy.
    p50s = [8.0] * 16 + [40.0] * 4
    assert quiet_quartile(p50s, "lower") == 8.0
    rates = [700.0] * 16 + [300.0] * 4
    assert quiet_quartile(rates, "higher") == 700.0
    # A slower program moves every slice, and so the quartile.
    assert quiet_quartile([v * 1.2 for v in p50s], "lower") == pytest.approx(9.6)


# -- outcome accounting -----------------------------------------------------------


@pytest.mark.parametrize(
    "status, score, novel, expected, cls",
    [
        ("ok", 0.5, False, FINITE, "right"),
        ("ok", 0.5 + 10 * SCORE_TOLERANCE, False, FINITE, "wrong"),
        ("ok", 0.5, True, FINITE, "wrong"),
        ("ok", float("nan"), False, FINITE, "wrong"),
        ("ok", 0.9996, True, NONFINITE, "wrong"),
        ("degraded", None, True, NONFINITE, "right"),
        ("degraded", None, True, FINITE, "failed"),
        ("overloaded", None, None, FINITE, "refused"),
        ("rejected", None, None, FINITE, "refused"),
        ("failed", None, None, FINITE, "failed"),
        ("deadline_exceeded", None, None, FINITE, "failed"),
        ("error", None, None, FINITE, "error"),
    ],
)
def test_classify(status, score, novel, expected, cls):
    assert classify(status, score, novel, expected) == cls


def test_borderline_verdict_may_flip():
    borderline = Expected(finite=True, score=0.8, is_novel=True, threshold=0.8)
    assert classify("ok", 0.8, False, borderline) == "right"


def test_accounting_sums_to_sent():
    replies = [
        ("ok", 0.5, False, FINITE),
        ("ok", 0.9, True, FINITE),
        ("ok", 0.9996, True, NONFINITE),
        ("degraded", None, True, NONFINITE),
        ("overloaded", None, None, FINITE),
        ("failed", None, None, FINITE),
        ("error", None, None, FINITE),
    ]
    ledger = Ledger(sent=len(replies))
    for status, score, novel, expected in replies:
        ledger.record(classify(status, score, novel, expected), nonfinite=not expected.finite)
    assert ledger.balanced
    assert ledger.counts == {"right": 2, "wrong": 2, "refused": 1, "failed": 1, "error": 1}
    assert ledger.nonfinite_scored == 1 and ledger.wrong_on_finite == 1
    # The known defect (Scored on a non-finite frame) is not in ``failed``.
    assert ledger.failed == 4
    assert ledger.correct_share == pytest.approx(2 / 7)


def test_unbalanced_ledger_is_detected():
    ledger = Ledger(sent=3)
    ledger.record("right")
    assert not ledger.balanced


# -- open-loop window ------------------------------------------------------------


class StallingEngine:
    """A bounded FIFO that refuses when full and stalls before it drains."""

    def __init__(self, capacity: int, stall_s: float) -> None:
        import queue
        import threading

        self.capacity = capacity
        self.waiting: "queue.Queue" = queue.Queue()
        self.refused = 0
        self._lock = threading.Lock()
        self._stall_s = stall_s
        self._worker = threading.Thread(target=self._drain, daemon=True)
        self._worker.start()

    def submit(self, frame):
        from concurrent.futures import Future

        pending: Future = Future()
        with self._lock:
            if self.waiting.qsize() >= self.capacity:
                self.refused += 1
                pending.set_result({"status": "overloaded"})
                return pending
            self.waiting.put(pending)
        return pending

    def _drain(self) -> None:
        import time

        time.sleep(self._stall_s)
        while True:
            pending = self.waiting.get()
            pending.set_result({"status": "ok", "score": 0.5, "is_novel": False})


@pytest.mark.parametrize("window, refused", [(None, True), (8, False)])
def test_open_loop_window_turns_a_stall_into_latency(window, refused):
    import itertools

    import numpy as np

    from workloads import FrameSet, open_loop

    frames = FrameSet(np.zeros((1, 2, 2)), [FINITE], np.zeros(4, dtype=int))
    engine = StallingEngine(capacity=8, stall_s=0.1)
    samples, _ = open_loop(engine.submit, frames, itertools.count(), rate=1000.0,
                           seconds=0.2, seed=0, window=window)
    assert (engine.refused > 0) == refused
    assert len(samples) > 100  # the schedule is the same either way
    if not refused:
        assert {s.status for s in samples} == {"ok"}
        # Requests due during the stall are charged for waiting it out.
        assert max(s.latency_ms for s in samples) >= 50.0


def test_rss_probe_reads_once_at_its_count(monkeypatch):
    import run

    reads = iter([100.0, 200.0])
    monkeypatch.setattr(run.environment, "peak_rss_mb", lambda: next(reads))
    probe = run.RssProbe(after=3)
    for _ in range(2):
        probe()
    assert probe.value is None
    for _ in range(5):
        probe()
    assert probe.value == 100.0


# -- the benchmark's declaration matches the code ---------------------------------


def test_benchmark_json_names_what_the_harness_reports():
    from run import E2E_UNITS
    from tracing import LAYER_UNITS

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == ["camera_open", "wire_closed", "pool_paper"]
