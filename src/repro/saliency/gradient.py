"""Vanilla input-gradient saliency.

The simplest saliency baseline: the absolute gradient of the network output
with respect to each input pixel, obtained with one ordinary backward pass.
Included as a second comparator alongside LRP for the saliency-quality and
timing benchmarks.
"""

from __future__ import annotations

import numpy as np

from repro.nn.model import Sequential
from repro.saliency.base import SaliencyMethod


class GradientSaliency(SaliencyMethod):
    """``|d output / d input|`` saliency via the model's backward pass."""

    runs_backward = True

    def __init__(self, model: Sequential) -> None:
        self.model = model

    def _compute(self, frames: np.ndarray) -> np.ndarray:
        out = self.model.forward(frames, training=False)
        return self._backward_saliency(out)

    def _compute_from_forward(
        self, frames: np.ndarray, output: np.ndarray, activations
    ) -> np.ndarray:
        """Backward pass over a forward the stage runtime just ran.

        The layers' backward caches are populated by the most recent
        forward; the stage runtime guarantees no other forward has run on
        this model since its ``cnn_forward`` stage, so the backward seeds
        directly off the cached ``output``.
        """
        return self._backward_saliency(output)

    def _backward_saliency(self, out: np.ndarray) -> np.ndarray:
        # Seed with ones: for the scalar steering output this is simply
        # d(output)/d(input) per sample.
        grad_in = self.model.backward(np.ones_like(out))
        # Parameter gradients accumulated as a side effect are irrelevant
        # here; clear them so interleaved training isn't polluted.
        self.model.zero_grad()
        return np.abs(grad_in).sum(axis=1)
