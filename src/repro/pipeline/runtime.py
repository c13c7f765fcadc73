"""Compiling and executing scoring plans.

A :class:`ScoringPlan` is the compiled form of a detector's scoring path:
the ordered stage sequence, the reusable workspace buffers, per-stage
telemetry spans/counters, and per-stage fault guards.  Detectors compile a
plan once (:func:`compile_plan`) and execute named subsequences of it per
call — ``score`` runs ``cnn_forward → saliency_cascade → reconstruct →
similarity``; the fused monitor path adds ``steering_head`` between the
forward and the cascade so steering and novelty share one CNN forward.

Execution semantics:

* Each stage runs under a ``stage.<name>`` telemetry span carrying the
  plan's trace context (``None`` inherits the ambient request trace, so
  stage spans nest under a serving batch automatically and ship across
  the worker-pool process boundary with the other span records).
* Each stage is wrapped in a fault guard: an unexpected exception is
  re-raised as :class:`~repro.exceptions.StageError` naming the failing
  stage, so callers (the stream monitor's degraded path) can attribute
  the fault per-stage instead of per-call.  Caller-contract errors
  (``NotFittedError``, ``ConfigurationError``) and ``StageError`` itself
  pass through unchanged.
* The plan's :class:`Workspace` owns scratch buffers reused across calls
  (currently the saliency cascade's ones-kernels, keyed by geometry and
  dtype).  Buffers that escape to callers — masks, scores, verdicts —
  are never reused; only internal scratch is.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, NotFittedError, StageError
from repro.pipeline.stages import (
    AggregateStage,
    CnnForwardStage,
    MemberScoresStage,
    ReconstructStage,
    SaliencyCascadeStage,
    SimilarityStage,
    Stage,
    StageContext,
    StandardizeStage,
    SteeringHeadStage,
    VerdictStage,
)
from repro.telemetry import get_telemetry

#: Exception types the fault guard re-raises unchanged: caller-contract
#: errors, not runtime faults of a stage.
_PASSTHROUGH = (StageError, NotFittedError, ConfigurationError)

#: Stage subsequences for the common entry points of a saliency pipeline.
SCORE_STAGES = ("cnn_forward", "saliency_cascade", "reconstruct", "similarity")
FUSED_STAGES = (
    "cnn_forward",
    "steering_head",
    "saliency_cascade",
    "reconstruct",
    "similarity",
)
PREPROCESS_STAGES = ("cnn_forward", "saliency_cascade")


class Workspace:
    """Per-plan scratch buffers reused across plan invocations.

    The only arrays cached here are ones that never escape a stage — the
    saliency cascade's ones-kernels (one tiny array per conv stage per
    dtype, so a ``set_inference_dtype`` switch simply populates new keys).
    Output arrays are freshly allocated every run; reusing them would
    alias results a caller still holds.
    """

    def __init__(self) -> None:
        self.kernels: Dict[Tuple, np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def ones_kernel(self, shape: Sequence[int], dtype) -> np.ndarray:
        """A cached all-ones kernel of the given shape and dtype."""
        key = (tuple(int(s) for s in shape), np.dtype(dtype).str)
        kernel = self.kernels.get(key)
        if kernel is None:
            kernel = np.ones(key[0], dtype=np.dtype(dtype))
            self.kernels[key] = kernel
            self.misses += 1
        else:
            self.hits += 1
        return kernel

    def stats(self) -> Dict[str, int]:
        """Reuse statistics (cached buffers, hits, misses)."""
        return {"buffers": len(self.kernels), "hits": self.hits, "misses": self.misses}


class ScoringPlan:
    """A compiled stage sequence with spans, counters, and fault guards.

    Plans are cheap, immutable-after-compile objects: hot-swapping a model
    swaps the whole plan atomically (pipeline and plan travel together),
    and the workspace buffers swap with it.
    """

    def __init__(self, stages: Sequence[Stage], owner: str = "pipeline") -> None:
        stages = list(stages)
        if not stages:
            raise ConfigurationError("a ScoringPlan needs at least one stage")
        names = [stage.name for stage in stages]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate stage names in plan: {names}")
        self.stages: List[Stage] = stages
        self.owner = owner
        self.workspace = Workspace()
        self._by_name = {stage.name: stage for stage in stages}
        #: Per-stage invocation/error tallies (cheap, always on).
        self.counters: Dict[str, Dict[str, int]] = {
            name: {"calls": 0, "errors": 0} for name in names
        }

    @property
    def stage_names(self) -> Tuple[str, ...]:
        """The full compiled stage sequence, in execution order."""
        return tuple(stage.name for stage in self.stages)

    def select(self, names: Optional[Iterable[str]]) -> List[Stage]:
        """Resolve a stage subsequence (``None`` = every stage), keeping
        the compiled order and rejecting unknown names."""
        if names is None:
            return list(self.stages)
        requested = list(names)
        unknown = [n for n in requested if n not in self._by_name]
        if unknown:
            raise ConfigurationError(
                f"unknown stage(s) {unknown} — plan has {list(self.stage_names)}"
            )
        wanted = set(requested)
        return [stage for stage in self.stages if stage.name in wanted]

    def run(
        self,
        frames: np.ndarray,
        stages: Optional[Iterable[str]] = None,
        ctx: Optional[StageContext] = None,
        trace=None,
    ) -> StageContext:
        """Execute a stage subsequence over a coerced ``(N, H, W)`` stack.

        Returns the :class:`StageContext` holding every intermediate the
        selected stages produced.  ``ctx`` lets a caller preseed results
        (e.g. precomputed masks) so later stages skip the work; ``trace``
        parents the per-stage spans (``None`` inherits the ambient
        request trace).
        """
        selected = self.select(stages)
        if ctx is None:
            ctx = StageContext(frames=frames, trace=trace)
        telem = get_telemetry()
        n = int(np.asarray(frames).shape[0])
        for stage in selected:
            tallies = self.counters[stage.name]
            tallies["calls"] += 1
            try:
                with telem.span(f"stage.{stage.name}", trace=ctx.trace, frames=n):
                    stage.run(frames, ctx)
            except _PASSTHROUGH:
                tallies["errors"] += 1
                raise
            except Exception as exc:
                tallies["errors"] += 1
                raise StageError(
                    f"stage {stage.name!r} failed: {exc}", stage=stage.name
                ) from exc
        return ctx

    def describe(self) -> str:
        """Human-readable stage graph (the ``repro plan`` CLI output)."""
        lines = [f"ScoringPlan[{self.owner}]  stages={len(self.stages)}"]
        for i, stage in enumerate(self.stages, start=1):
            detail = ""
            describe = getattr(stage, "describe", None)
            if describe is not None:
                detail = f"  ({describe()})"
            tallies = self.counters[stage.name]
            lines.append(
                f"  {i}. {stage.name:<18}{detail}"
                f"  [calls={tallies['calls']} errors={tallies['errors']}]"
            )
        ws = self.workspace.stats()
        lines.append(
            f"  workspace: {ws['buffers']} cached buffers "
            f"({ws['hits']} hits / {ws['misses']} misses)"
        )
        return "\n".join(lines)


def compute_saliency(method, frames: np.ndarray) -> np.ndarray:
    """The blessed out-of-plan entry point for saliency masks.

    Everything inside the library scores through a compiled plan (whose
    ``saliency_cascade`` stage reuses the plan's cached CNN forward);
    tools that need bare masks — the mask-export CLI, the figure
    experiments, the timing benchmark — call this instead of
    ``SaliencyMethod.saliency`` directly, which a lint test bans outside
    the stage runtime so ad-hoc duplicate forwards cannot creep back in.
    """
    return method.saliency(frames)


def compile_plan(detector) -> ScoringPlan:
    """Compile a detector's scoring path into a :class:`ScoringPlan`.

    Dispatches on the detector's surface:

    * a saliency pipeline (``saliency_method`` + ``one_class``) compiles
      the full six-stage graph;
    * a score-fusion detector (``members`` + ``weights``) compiles
      ``member_scores → standardize → verdict``;
    * an ensemble (``members``) compiles ``member_scores → aggregate →
      verdict``;
    * a raw-frame detector (``one_class`` only) compiles
      ``reconstruct → similarity → verdict``.
    """
    saliency_method = getattr(detector, "saliency_method", None)
    if saliency_method is not None:
        model = getattr(saliency_method, "model", None)
        one_class = detector.one_class
        plan = ScoringPlan(
            [
                CnnForwardStage(model, saliency_method),
                SteeringHeadStage(model),
                SaliencyCascadeStage(saliency_method),
                ReconstructStage(one_class),
                SimilarityStage(one_class),
                VerdictStage(one_class.detector),
            ],
            owner=type(detector).__name__,
        )
        # The cascade's ones-kernels live with the plan, so a hot-swap
        # replaces model, plan, and buffers as one atomic unit.
        adopt = getattr(saliency_method, "adopt_kernel_cache", None)
        if adopt is not None:
            adopt(plan.workspace)
        return plan

    members = getattr(detector, "members", None)
    if members is not None:
        if hasattr(detector, "weights"):
            middle: Stage = StandardizeStage(detector)
        else:
            middle = AggregateStage()
        return ScoringPlan(
            [MemberScoresStage(members), middle, VerdictStage(detector.detector)],
            owner=type(detector).__name__,
        )

    one_class = getattr(detector, "one_class", None)
    if one_class is not None:
        return ScoringPlan(
            [
                ReconstructStage(one_class),
                SimilarityStage(one_class),
                VerdictStage(one_class.detector),
            ],
            owner=type(detector).__name__,
        )

    raise ConfigurationError(
        f"cannot compile a ScoringPlan for {type(detector).__name__}: expected "
        f"a saliency pipeline, an ensemble/fusion detector, or a one-class "
        f"detector surface"
    )
