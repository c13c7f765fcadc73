"""Pure measurement logic: percentiles, outcome accounting, the rate ladder.

Nothing here touches the serving stack, so the self-tests in
``test_perfbench.py`` can pin every rule down with plain inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: One camera frame period at 30 fps; the latency limit of the ladder.
LATENCY_LIMIT_MS = 33.0

#: A served score matches its reference when it is within this absolute
#: distance.  Micro-batches of different sizes sum in different orders, so
#: float64 scores differ from the offline reference in the last digits.
SCORE_TOLERANCE = 1e-6

#: Outcome classes; every request sent lands in exactly one of them.
CLASSES = ("right", "wrong", "refused", "failed", "error")


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default rule); NaN if empty."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    lo, hi = ordered[low], ordered[high]
    if rank == low or lo == hi:
        return lo  # also keeps inf (a miss) from turning into nan
    return lo + (hi - lo) * (rank - low)


def median(values: Sequence[float]) -> float:
    """The 50th percentile."""
    return percentile(values, 50.0)


@dataclass(frozen=True)
class Timing:
    """Median and p99 of a set of latencies, with the sample count.

    ``supported`` says whether at least ten samples lie beyond the p99,
    the least a tail percentile needs to mean anything.
    """

    p50: float
    p99: float
    n: int

    @property
    def beyond_p99(self) -> int:
        return int(self.n * 0.01)

    @property
    def supported(self) -> bool:
        return self.beyond_p99 >= 10

    def render(self, unit: str = "ms") -> str:
        flag = "" if self.supported else ", fewer than 10 samples beyond p99"
        return (
            f"p50 {self.p50:.3f} {unit}  p99 {self.p99:.3f} {unit}  "
            f"(n={self.n}, {self.beyond_p99} beyond p99{flag})"
        )


def timing(values_ms: Sequence[float]) -> Timing:
    """Median and p99 of ``values_ms``."""
    return Timing(
        p50=float(percentile(values_ms, 50.0)),
        p99=float(percentile(values_ms, 99.0)),
        n=len(values_ms),
    )


# -- quiet slices --------------------------------------------------------------

#: A measured phase is cut into this many consecutive slices of replies
#: (fewer, if a slice would hold fewer than SLICE_MIN replies).
SLICES = 20
SLICE_MIN = 250


def slice_bounds(n: int) -> List[Tuple[int, int]]:
    """``[start, end)`` index ranges cutting ``n`` replies into slices."""
    k = max(1, min(SLICES, n // SLICE_MIN))
    size = n // k
    return [(i * size, n if i == k - 1 else (i + 1) * size) for i in range(k)]


def quiet_quartile(values: Sequence[float], better: str) -> float:
    """The quartile of per-slice values on the good side.

    On a shared host, other tenants' load arrives in episodes of seconds
    to tens of seconds that slow down whatever runs then.  The lower
    quartile of per-slice latencies (upper, for rates) sets those episodes
    aside as long as they cover under three quarters of the phase, while a
    slower program moves every slice and so moves the quartile.
    """
    return float(percentile(values, 25.0 if better == "lower" else 75.0))


# -- correctness -------------------------------------------------------------


@dataclass(frozen=True)
class Expected:
    """The reference answer for one frame.

    A finite frame has the offline reference score and verdict; a
    non-finite frame has none, and the only right answer is ``degraded``.
    """

    finite: bool
    score: float = math.nan
    is_novel: bool = False
    threshold: float = math.nan


def classify(status: str, score: Optional[float], is_novel: Optional[bool],
             expected: Expected) -> str:
    """Sort one response into exactly one of :data:`CLASSES`.

    ``status`` is the outcome's status string, the same on the engine
    (``Scored.status``) and on the wire (``reply["status"]``); ``error``
    covers malformed requests and exceptions raised to the caller.
    """
    if status == "ok":
        if not expected.finite:
            # A non-finite frame has no score to be right about.
            return "wrong"
        if score is None or not math.isfinite(score):
            return "wrong"
        if abs(score - expected.score) > SCORE_TOLERANCE:
            return "wrong"
        if bool(is_novel) != expected.is_novel:
            borderline = abs(expected.score - expected.threshold) <= SCORE_TOLERANCE
            return "right" if borderline else "wrong"
        return "right"
    if status == "degraded":
        return "failed" if expected.finite else "right"
    if status in ("rejected", "overloaded"):
        return "refused"
    if status in ("failed", "deadline_exceeded"):
        return "failed"
    return "error"


@dataclass
class Ledger:
    """Per-class request counts for one phase of a run."""

    counts: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(CLASSES, 0))
    sent: int = 0
    #: ``wrong`` answers to non-finite frames: the known defect where the
    #: engine returns ``Scored`` for a frame it cannot judge.
    nonfinite_scored: int = 0

    def record(self, cls: str, nonfinite: bool = False) -> None:
        self.counts[cls] += 1
        if cls == "wrong" and nonfinite:
            self.nonfinite_scored += 1

    def add(self, other: "Ledger") -> None:
        for key, value in other.counts.items():
            self.counts[key] += value
        self.sent += other.sent
        self.nonfinite_scored += other.nonfinite_scored

    @property
    def balanced(self) -> bool:
        """Every request sent is in exactly one class."""
        return self.sent == sum(self.counts.values())

    @property
    def wrong_on_finite(self) -> int:
        return self.counts["wrong"] - self.nonfinite_scored

    @property
    def failed(self) -> int:
        """Requests without the reference answer, except the known defect.

        Scored answers to non-finite frames are counted in ``wrong`` and in
        ``correct_share`` but not here (see README.md, "Accounting").
        """
        return self.sent - self.counts["right"] - self.nonfinite_scored

    @property
    def correct_share(self) -> float:
        return self.counts["right"] / self.sent if self.sent else 0.0

    def render(self) -> str:
        parts = " ".join(f"{k}={v}" for k, v in self.counts.items())
        return f"sent={self.sent} {parts} (non-finite answered Scored: {self.nonfinite_scored})"


# -- the rate ladder -----------------------------------------------------------


def p99_with_misses(latencies_ms: Sequence[Optional[float]]) -> float:
    """p99 where a miss (``None``: failed, refused, wrong) is infinitely late."""
    return percentile([math.inf if v is None else v for v in latencies_ms], 99.0)


@dataclass(frozen=True)
class Rung:
    rate: float
    p99_ms: float
    sent: int

    @property
    def passed(self) -> bool:
        return self.sent > 0 and self.p99_ms <= LATENCY_LIMIT_MS


def climb(rates: Sequence[float],
          run_rung: Callable[[float], Sequence[Optional[float]]],
          stride: int = 1) -> Tuple[float, List[Rung]]:
    """Walk an ascending ladder of offered rates; stop at the first failure.

    ``run_rung(rate)`` offers load at ``rate`` and returns one entry per
    request: its latency in ms, or ``None`` when it missed.  With
    ``stride > 1`` the walk first visits every ``stride``-th rung, then
    the rungs it skipped between the last pass and the first failure.
    Returns the highest rate passed before the first failure (0.0 if the
    lowest rung fails) and every rung run, in order.
    """
    rungs: List[Rung] = []

    def walk(indices: Sequence[int]) -> Tuple[int, Optional[int]]:
        passed = -1
        for i in indices:
            latencies = run_rung(rates[i])
            rung = Rung(rate=rates[i], p99_ms=p99_with_misses(latencies), sent=len(latencies))
            rungs.append(rung)
            if not rung.passed:
                return passed, i
            passed = i
        return passed, None

    best, failed_at = walk(range(0, len(rates), stride))
    if stride > 1:
        end = len(rates) if failed_at is None else failed_at
        finer, _ = walk(range(best + 1, end))
        best = max(best, finer)
    return (float(rates[best]) if best >= 0 else 0.0), rungs

