"""Retry with exponential backoff and deterministic jitter.

A :class:`RetryPolicy` is a small frozen value describing how many times a
transient operation may be attempted and how long to back off between
attempts.  Delays grow geometrically (``base_delay_s * multiplier**k``,
capped at ``max_delay_s``) and are stretched by up to ``jitter`` of
themselves so that concurrent retriers do not thunder in lockstep.  The
jitter stream is seeded, so a given policy + seed produces the exact same
delay sequence every run — chaos tests stay reproducible.

:func:`call_with_retry` is the executor the serving engine runs around
``scorer.score_batch`` — the one retry layer on the serving path: it
returns both the result and how many retries were spent, so the engine
can surface the count (``Scored.retries``, ``serving.retries``
telemetry).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple, Type, Union

import numpy as np

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class RetryPolicy:
    """How to retry a transient failure.

    Attributes
    ----------
    max_attempts:
        Total tries including the first one (``1`` disables retries).
    base_delay_s:
        Backoff before the first retry.
    multiplier:
        Geometric growth factor between consecutive backoffs.
    max_delay_s:
        Upper bound on any single backoff (pre-jitter).
    jitter:
        Fraction of the delay added randomly on top (``0.5`` stretches a
        10 ms delay to 10–15 ms).  ``0`` disables jitter.
    seed:
        Seed for the jitter stream; identical seeds give identical delays.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.01
    multiplier: float = 2.0
    max_delay_s: float = 1.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ConfigurationError("backoff delays must be >= 0")
        if self.multiplier < 1.0:
            raise ConfigurationError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay_s(self, failure_index: int, rng: Optional[np.random.Generator] = None) -> float:
        """Backoff after the ``failure_index``-th failure (0-based), jittered."""
        if failure_index < 0:
            raise ConfigurationError(f"failure_index must be >= 0, got {failure_index}")
        delay = min(self.max_delay_s, self.base_delay_s * self.multiplier**failure_index)
        if self.jitter and rng is not None:
            delay *= 1.0 + self.jitter * float(rng.random())
        return delay

    def make_rng(self) -> np.random.Generator:
        """A fresh, deterministic jitter stream for this policy."""
        return np.random.default_rng(self.seed)


def call_with_retry(
    fn: Callable[[], Any],
    policy: RetryPolicy,
    retryable: Union[Type[BaseException], Tuple[Type[BaseException], ...]] = Exception,
    on_failure: Optional[Callable[[BaseException, int], None]] = None,
    rng: Optional[np.random.Generator] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> Tuple[Any, int]:
    """Run ``fn`` under ``policy``; return ``(result, retries_used)``.

    ``on_failure(exc, attempt)`` fires for every failed attempt (1-based),
    including the last — that is where the engine feeds its circuit
    breaker.  The final failure re-raises.  Pass a shared ``rng`` to keep
    one jitter stream across many calls; ``sleep`` is injectable so tests
    can run the schedule without waiting.
    """
    if rng is None:
        rng = policy.make_rng()
    for attempt in range(1, policy.max_attempts + 1):
        try:
            return fn(), attempt - 1
        except retryable as exc:
            if on_failure is not None:
                on_failure(exc, attempt)
            if attempt == policy.max_attempts:
                raise
            sleep(policy.delay_s(attempt - 1, rng))
    raise AssertionError("unreachable")  # pragma: no cover
