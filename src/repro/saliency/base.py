"""Common interface for saliency methods."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.backend.policy import as_tensor, resolve_dtype


class SaliencyMethod:
    """Maps input frames to per-pixel saliency masks in [0, 1].

    Subclasses implement :meth:`_compute` on ``(N, 1, H, W)`` batches;
    the public :meth:`saliency` handles shape coercion and normalization.
    Frames are coerced to :attr:`dtype` — float64 unless the subclass ties
    itself to a model running a different policy.
    """

    #: Whether :meth:`_compute_from_forward` backpropagates through the
    #: model, so a compiled plan's ``cnn_forward`` must keep each layer's
    #: backward cache for it.
    runs_backward = False

    @property
    def dtype(self) -> np.dtype:
        """The dtype this method computes masks in.

        Methods wrapping a model follow its policy; standalone methods use
        the float64 default.
        """
        model = getattr(self, "model", None)
        if model is not None and hasattr(model, "dtype"):
            return model.dtype
        return resolve_dtype(None)

    def _compute(self, frames: np.ndarray) -> np.ndarray:
        """Raw (unnormalized) masks of shape ``(N, H, W)``."""
        raise NotImplementedError

    def _compute_from_forward(
        self, frames: np.ndarray, output: np.ndarray, activations
    ) -> np.ndarray:
        """Raw masks, given a forward pass already done on ``frames``.

        ``output``/``activations`` are the return of
        ``model.forward_with_activations(frames, training=False)``.
        Subclasses override this to skip their own forward; the default
        recomputes via :meth:`_compute` so any method stays usable from
        the stage runtime.
        """
        return self._compute(frames)

    def saliency_from_forward(
        self, frames: np.ndarray, output: np.ndarray, activations
    ) -> np.ndarray:
        """Masks for ``(N, 1, H, W)`` frames reusing a cached forward pass.

        The stage runtime's entry point: the plan's ``cnn_forward`` stage
        has already run the network on exactly these frames, so methods
        that can consume the cached ``output``/``activations`` (all three
        in this library) skip the duplicate forward.  Shape validation and
        per-image normalization match :meth:`saliency` exactly, so masks
        are bit-identical to the standalone path.
        """
        frames = as_tensor(frames, self.dtype)
        if frames.ndim != 4 or frames.shape[1] != 1:
            raise ShapeError(
                f"saliency_from_forward expects (N, 1, H, W) frames, got {frames.shape}"
            )
        masks = self._compute_from_forward(frames, output, activations)
        if masks.shape != (frames.shape[0], frames.shape[2], frames.shape[3]):
            raise ShapeError(
                f"saliency backend produced shape {masks.shape}, "
                f"expected {(frames.shape[0], frames.shape[2], frames.shape[3])}"
            )
        return _normalize_per_image(masks)

    def saliency(self, frames: np.ndarray) -> np.ndarray:
        """Saliency masks for a batch of frames.

        Parameters
        ----------
        frames:
            ``(H, W)`` single frame, ``(N, H, W)`` batch, or ``(N, 1, H, W)``
            channel-explicit batch.

        Returns
        -------
        Masks matching the input's leading shape, min-max normalized to
        [0, 1] per image (a constant raw mask maps to zeros).
        """
        frames = as_tensor(frames, self.dtype)
        single = frames.ndim == 2
        if single:
            frames = frames[None]
        if frames.ndim == 3:
            frames = frames[:, None, :, :]
        if frames.ndim != 4 or frames.shape[1] != 1:
            raise ShapeError(
                f"saliency expects (H, W), (N, H, W) or (N, 1, H, W), got {frames.shape}"
            )
        masks = self._compute(frames)
        if masks.shape != (frames.shape[0], frames.shape[2], frames.shape[3]):
            raise ShapeError(
                f"saliency backend produced shape {masks.shape}, "
                f"expected {(frames.shape[0], frames.shape[2], frames.shape[3])}"
            )
        masks = _normalize_per_image(masks)
        return masks[0] if single else masks

    def __call__(self, frames: np.ndarray) -> np.ndarray:
        return self.saliency(frames)


def _normalize_per_image(masks: np.ndarray) -> np.ndarray:
    """Min-max normalize each ``(H, W)`` mask in a batch into [0, 1]."""
    lo = masks.min(axis=(1, 2), keepdims=True)
    hi = masks.max(axis=(1, 2), keepdims=True)
    span = np.where(hi > lo, hi - lo, 1.0)
    out = (masks - lo) / span
    out[np.broadcast_to(hi == lo, out.shape)] = 0.0
    return out
