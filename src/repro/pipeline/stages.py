"""The stages a compiled scoring plan executes.

The paper's framework is explicitly staged — trained CNN → VisualBackProp
mask → one-class autoencoder → SSIM → percentile threshold — and this
module makes each arrow a first-class :class:`Stage`: a named unit with a
``run(batch, ctx)`` method that reads its inputs from (and writes its
outputs to) a shared :class:`StageContext`.  The runtime
(:mod:`repro.pipeline.runtime`) sequences stages, wraps each in a
telemetry span and a fault guard, and owns the reusable workspace buffers.

The canonical saliency-pipeline decomposition:

``cnn_forward``
    One forward pass through the prediction CNN, collecting every layer's
    activation.  Both heads below consume this *same* cached forward —
    the monitor/closed-loop path no longer pays a second one.
``steering_head``
    The steering angle, read off the cached network output.
``saliency_cascade``
    Saliency masks ("VBP images") from the cached activations.
``reconstruct``
    The one-class autoencoder's reconstruction of the masks.
``similarity``
    Reconstruction loss per frame (the novelty score) and the paper's
    similarity convention.
``verdict``
    Threshold decisions and margins under the fitted detector.

Ensembles, fusion, and the raw-image baseline run on the same runtime
with their own stage sets (``member_scores`` → ``aggregate`` /
``standardize`` → ``verdict``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Protocol, runtime_checkable

import numpy as np

from repro.exceptions import StageError
from repro.nn.backend.policy import as_tensor


@runtime_checkable
class Stage(Protocol):
    """One named unit of the scoring path.

    ``run`` reads earlier stages' results from ``ctx`` and writes its own
    back; ``batch`` is the coerced ``(N, H, W)`` frame stack the plan was
    invoked with.  Stages must not mutate ``batch``.
    """

    name: str

    def run(self, batch: np.ndarray, ctx: "StageContext") -> None: ...


@dataclass
class StageContext:
    """Per-invocation cache shared by the stages of one plan run.

    Every array a stage computes lands here exactly once, so downstream
    stages (and callers — :func:`repro.novelty.explain_frame` reads masks,
    reconstruction, and scores out of one run) never recompute it.
    Arrays handed out of a context escape to callers and are therefore
    freshly allocated per run — only internal workspace buffers
    (:class:`~repro.pipeline.runtime.Workspace`) are reused across calls.
    """

    #: The coerced ``(N, H, W)`` input frames.
    frames: np.ndarray
    #: Trace context for the per-stage spans (``None`` inherits the
    #: ambient thread-local context, e.g. a serving batch's trace).
    trace: Any = None
    #: Prediction-network output for the batch, ``(N, 1)``.
    model_output: Optional[np.ndarray] = None
    #: Every layer's activation from the single CNN forward.
    activations: Optional[List[np.ndarray]] = None
    #: Steering angles, ``(N,)``.
    angles: Optional[np.ndarray] = None
    #: Saliency masks ("VBP images"), ``(N, H, W)`` in [0, 1].
    masks: Optional[np.ndarray] = None
    #: Flattened autoencoder input, ``(N, H*W)``.
    flat: Optional[np.ndarray] = None
    #: Autoencoder reconstruction, flat and reshaped to the input.
    recon_flat: Optional[np.ndarray] = None
    recon: Optional[np.ndarray] = None
    #: Loss-oriented novelty scores (higher = more novel), ``(N,)``.
    scores: Optional[np.ndarray] = None
    #: Scores in the paper's similarity convention.
    similarity: Optional[np.ndarray] = None
    #: Threshold decisions and margins (verdict stage).
    is_novel: Optional[np.ndarray] = None
    margins: Optional[np.ndarray] = None
    #: Per-member score matrix ``(n_members, N)`` (ensemble/fusion plans).
    member_scores: Optional[np.ndarray] = None
    #: Free-form slots for detector-specific stages.
    extras: Dict[str, Any] = field(default_factory=dict)


def _require(ctx_value, producer: str, consumer: str):
    """A stage's input must have been produced by an earlier stage."""
    if ctx_value is None:
        raise StageError(
            f"stage {consumer!r} needs the result of {producer!r}, which has "
            f"not run in this plan invocation",
            stage=consumer,
        )
    return ctx_value


def _scoring_forward(
    model, x: np.ndarray, keep_backward_state: bool, activations: Optional[list] = None
) -> np.ndarray:
    """Eval-mode forward through ``model.layers``, appending each layer's
    output to ``activations`` when given.

    Unless ``keep_backward_state``, every layer drops its backward cache
    (im2col columns, ReLU masks, layer inputs) as soon as its forward has
    returned: the next layer already holds what it needs, so no training
    state outlives the call — nor is it inherited by forked pool replicas.
    """
    out = as_tensor(x, model.dtype)
    for layer in model.layers:
        out = layer.forward(out, training=False)
        if not keep_backward_state:
            layer.release_cache()
        if activations is not None:
            activations.append(out)
    return out


class CnnForwardStage:
    """Single forward pass through the prediction CNN, caching activations.

    The layers keep their backward caches only when the plan's saliency
    ``method`` backpropagates through the model after this stage
    (``SaliencyMethod.runs_backward``, i.e. gradient saliency).
    """

    name = "cnn_forward"

    def __init__(self, model, method=None) -> None:
        self.model = model
        self.keep_backward_state = bool(getattr(method, "runs_backward", False))

    def run(self, batch: np.ndarray, ctx: StageContext) -> None:
        activations: List[np.ndarray] = []
        ctx.model_output = _scoring_forward(
            self.model, batch[:, None, :, :], self.keep_backward_state, activations
        )
        ctx.activations = activations

    def describe(self) -> str:
        state = "kept" if self.keep_backward_state else "released"
        return (
            f"forward with activations, backward state {state}, "
            f"dtype {np.dtype(self.model.dtype).name}"
        )


class SteeringHeadStage:
    """Steering angles read off the cached network output (no new forward)."""

    name = "steering_head"

    def __init__(self, model) -> None:
        self.model = model

    def run(self, batch: np.ndarray, ctx: StageContext) -> None:
        output = _require(ctx.model_output, "cnn_forward", self.name)
        extract = getattr(self.model, "angles_from_output", None)
        ctx.angles = extract(output) if extract is not None else output[:, 0]

    def describe(self) -> str:
        return "angles from cached cnn_forward output"


class SaliencyCascadeStage:
    """Saliency masks from the cached activations of ``cnn_forward``.

    Falls back to the method's own forward pass for saliency methods that
    cannot consume a precomputed forward (none in this library do, but the
    stage stays correct for third-party methods).
    """

    name = "saliency_cascade"

    def __init__(self, method) -> None:
        self.method = method

    def run(self, batch: np.ndarray, ctx: StageContext) -> None:
        from_forward = getattr(self.method, "saliency_from_forward", None)
        if from_forward is not None and ctx.activations is not None:
            ctx.masks = from_forward(
                batch[:, None, :, :], ctx.model_output, ctx.activations
            )
        else:
            ctx.masks = self.method.saliency(batch)

    def describe(self) -> str:
        return (
            f"{type(self.method).__name__} from cached activations, "
            f"dtype {np.dtype(self.method.dtype).name}"
        )


class ReconstructStage:
    """One-class autoencoder forward over the masks (or raw frames)."""

    name = "reconstruct"

    def __init__(self, one_class) -> None:
        self.one_class = one_class

    def run(self, batch: np.ndarray, ctx: StageContext) -> None:
        inputs = ctx.masks if ctx.masks is not None else batch
        oc = self.one_class
        flat = oc._flatten(inputs)
        if oc.architecture == "dense":
            model_input = flat
        else:
            h, w = oc.image_shape
            model_input = flat.reshape(flat.shape[0], 1, h, w)
        ctx.flat = flat
        ctx.recon_flat = _scoring_forward(
            oc.autoencoder, model_input, keep_backward_state=False
        )
        ctx.recon = ctx.recon_flat.reshape(np.asarray(inputs).shape)

    def describe(self) -> str:
        oc = self.one_class
        return (
            f"{oc.architecture} autoencoder, "
            f"dtype {np.dtype(oc.dtype).name}"
        )


class SimilarityStage:
    """Per-frame reconstruction loss (the novelty score) + similarity."""

    name = "similarity"

    def __init__(self, one_class) -> None:
        self.one_class = one_class

    def run(self, batch: np.ndarray, ctx: StageContext) -> None:
        oc = self.one_class
        flat = _require(ctx.flat, "reconstruct", self.name)
        recon = _require(ctx.recon_flat, "reconstruct", self.name)
        ctx.scores = oc._loss.per_sample(recon, flat)
        if oc.loss_name in ("ssim", "msssim"):
            ctx.similarity = 1.0 - ctx.scores
        else:
            ctx.similarity = -ctx.scores

    def describe(self) -> str:
        return f"{self.one_class.loss_name} loss, higher = more novel"


class VerdictStage:
    """Threshold decisions and margins under the fitted detector rule."""

    name = "verdict"

    def __init__(self, detector) -> None:
        self.detector = detector

    def run(self, batch: np.ndarray, ctx: StageContext) -> None:
        scores = _require(ctx.scores, "similarity", self.name)
        ctx.is_novel = self.detector.predict(scores)
        ctx.margins = self.detector.novelty_margin(scores)

    def describe(self) -> str:
        if getattr(self.detector, "is_fitted", False):
            return f"threshold {float(self.detector.threshold):.6g}"
        return "threshold unfitted"


class MemberScoresStage:
    """Per-member score matrix for ensemble/fusion detectors."""

    name = "member_scores"

    def __init__(self, members) -> None:
        self.members = members

    def run(self, batch: np.ndarray, ctx: StageContext) -> None:
        ctx.member_scores = np.stack(
            [member.score(batch) for member in self.members]
        )

    def describe(self) -> str:
        return f"{len(self.members)} members"


class AggregateStage:
    """Mean member score — the ensemble's fused novelty score."""

    name = "aggregate"

    def run(self, batch: np.ndarray, ctx: StageContext) -> None:
        member_scores = _require(ctx.member_scores, "member_scores", self.name)
        ctx.scores = member_scores.mean(axis=0)

    def describe(self) -> str:
        return "mean over members"


class StandardizeStage:
    """Z-score standardization + weighted fusion for heterogeneous members."""

    name = "standardize"

    def __init__(self, fusion) -> None:
        self.fusion = fusion

    def run(self, batch: np.ndarray, ctx: StageContext) -> None:
        from repro.exceptions import NotFittedError

        fusion = self.fusion
        if fusion._means is None:
            raise NotFittedError("ScoreFusionDetector used before fit()")
        member_scores = _require(ctx.member_scores, "member_scores", self.name)
        z = (member_scores - fusion._means[:, None]) / fusion._stds[:, None]
        ctx.extras["member_zscores"] = z
        ctx.scores = np.einsum("m,mn->n", fusion.weights, z)
        ctx.similarity = -ctx.scores

    def describe(self) -> str:
        return "z-score per member, weighted mean"
