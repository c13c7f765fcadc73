"""VisualBackProp (Bojarski et al., ICRA 2018).

The paper uses VBP as its preprocessing layer (§III-B): "VBP identifies
sets of pixels of the input image that contribute most to the predictions
made by a trained CNN through combining feature maps from deeper
convolutional layers ... with higher resolution feature maps of shallow
layers.  The outputted mask is computed through scaled and averaged
deconvolutions of each internal convolution layer after a forward pass."

Algorithm, for a CNN whose convolution stages produce post-ReLU feature
maps :math:`a_1, \\dots, a_L` (shallow to deep):

1. Average each feature map over its channels: :math:`m_l` (single-channel).
2. Starting from the deepest map, repeatedly (a) upscale the running mask to
   the previous stage's resolution with a **ones-kernel deconvolution**
   matching that stage's convolution geometry (kernel, stride, padding) and
   (b) multiply pointwise with the previous stage's averaged map.
3. A final deconvolution through the first stage's geometry brings the mask
   to input resolution; it is then min-max normalized to [0, 1].

Because the averaged maps are post-ReLU they are non-negative, so the
pointwise products act as soft intersections: a pixel stays salient only if
*every* layer's receptive fields covering it were active.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.backend.policy import as_tensor
from repro.nn.layers import Conv2d, ReLU
from repro.nn.layers.conv import conv_transpose2d
from repro.nn.model import Sequential
from repro.saliency.base import SaliencyMethod
from repro.telemetry import get_telemetry


@dataclass(frozen=True)
class _ConvStage:
    """A convolution stage discovered in the model."""

    conv: Conv2d
    #: Index (into model.layers) of the activation whose output is this
    #: stage's feature map — the ReLU after the conv when present, else the
    #: conv itself.
    feature_index: int


def find_conv_stages(model: Sequential) -> List[_ConvStage]:
    """Locate convolution stages and their feature-map layer indices.

    A stage is a :class:`Conv2d` followed by its activation — directly, or
    through an intervening :class:`BatchNorm2d` (the conv-norm-nonlinearity
    arrangement).  The activation's output is the stage's feature map; a
    bare convolution uses its own output.
    """
    from repro.nn.layers import BatchNorm2d

    stages: List[_ConvStage] = []
    for i, layer in enumerate(model.layers):
        if isinstance(layer, Conv2d):
            feature_index = i
            probe = i + 1
            if probe < len(model.layers) and isinstance(model.layers[probe], BatchNorm2d):
                probe += 1
            if probe < len(model.layers) and isinstance(model.layers[probe], ReLU):
                feature_index = probe
            stages.append(_ConvStage(conv=layer, feature_index=feature_index))
    if not stages:
        raise ConfigurationError(
            "VisualBackProp requires a model with at least one Conv2d layer"
        )
    return stages


def _fit_to(mask: np.ndarray, target_hw: Tuple[int, int]) -> np.ndarray:
    """Crop or zero-pad a ``(N, 1, H, W)`` mask to the target spatial size.

    Deconvolution can over/under-shoot the previous layer's resolution by a
    few pixels when the forward convolution's integer division truncated;
    this aligns the two (the reference implementation does the same).
    """
    h, w = mask.shape[2], mask.shape[3]
    th, tw = target_hw
    if h > th:
        mask = mask[:, :, :th, :]
    if w > tw:
        mask = mask[:, :, :, :tw]
    if mask.shape[2] < th or mask.shape[3] < tw:
        pad_h = th - mask.shape[2]
        pad_w = tw - mask.shape[3]
        mask = np.pad(mask, ((0, 0), (0, 0), (0, pad_h), (0, pad_w)), mode="constant")
    return mask


class VisualBackProp(SaliencyMethod):
    """Value-based saliency via averaged feature maps and deconvolutions.

    Parameters
    ----------
    model:
        A trained :class:`repro.nn.Sequential` (e.g.
        :class:`repro.models.PilotNet`) containing convolution stages.
    scale_intermediate:
        Normalize each intermediate mask to a unit maximum per image before
        the next multiplication.  Keeps magnitudes from vanishing through
        deep stacks ("scaled ... deconvolutions" in the paper's phrasing);
        the final mask is min-max normalized either way.
    """

    def __init__(self, model: Sequential, scale_intermediate: bool = True) -> None:
        self.model = model
        self.scale_intermediate = bool(scale_intermediate)
        self._stages = find_conv_stages(model)
        # Ones-kernel cache for the deconvolution cascade, keyed by
        # (kernel geometry, dtype) so a precision switch just adds new
        # entries.  A compiled ScoringPlan adopts this cache into its
        # workspace (adopt_kernel_cache) so the buffers swap atomically
        # with the plan on hot-swap.
        self._kernel_cache = {}

    @property
    def dtype(self) -> np.dtype:
        """VBP computes in the model's policy dtype end to end."""
        return self.model.dtype

    @property
    def num_stages(self) -> int:
        """Number of convolution stages VBP combines."""
        return len(self._stages)

    def adopt_kernel_cache(self, workspace) -> None:
        """Hand ones-kernel ownership to a plan's :class:`Workspace`.

        After adoption the cascade draws its kernels from
        ``workspace.kernels`` (sharing hit/miss accounting), so the
        buffers live and die with the compiled plan.
        """
        workspace.kernels.update(self._kernel_cache)
        self._workspace = workspace

    def _ones_kernel(self, kh: int, kw: int) -> np.ndarray:
        workspace = getattr(self, "_workspace", None)
        if workspace is not None:
            return workspace.ones_kernel((1, 1, kh, kw), self.dtype)
        key = ((1, 1, kh, kw), np.dtype(self.dtype).str)
        kernel = self._kernel_cache.get(key)
        if kernel is None:
            kernel = np.ones((1, 1, kh, kw), dtype=self.dtype)
            self._kernel_cache[key] = kernel
        return kernel

    def _averaged_maps_from(self, activations) -> List[np.ndarray]:
        """Channel-averaged per-stage maps from cached activations.

        Channels are moved to a contiguous last axis first, so numpy sums
        them pairwise whatever memory order the CNN left its activations
        in (channel-major, from the im2col GEMM); the masks do not depend
        on that layout.
        """
        return [
            np.ascontiguousarray(np.moveaxis(activations[stage.feature_index], 1, -1))
            .mean(axis=-1)[:, None]
            for stage in self._stages
        ]

    def _averaged_maps(self, frames: np.ndarray) -> List[np.ndarray]:
        """Channel-averaged feature map per conv stage, shallow to deep."""
        _, activations = self.model.forward_with_activations(frames, training=False)
        return self._averaged_maps_from(activations)

    def _check_channels(self, frames: np.ndarray) -> None:
        if frames.shape[1] != self._stages[0].conv.in_channels:
            raise ShapeError(
                f"model expects {self._stages[0].conv.in_channels} input channels, "
                f"got {frames.shape[1]}"
            )

    def _compute(self, frames: np.ndarray) -> np.ndarray:
        self._check_channels(frames)
        telem = get_telemetry()
        with telem.span("vbp.forward", frames=int(frames.shape[0])):
            maps = self._averaged_maps(frames)
        with telem.span("vbp.backproject", stages=len(self._stages)):
            return self._backproject(maps, frames.shape[2:])

    def _compute_from_forward(
        self, frames: np.ndarray, output: np.ndarray, activations
    ) -> np.ndarray:
        """The cascade over a forward pass the stage runtime already ran.

        Skips ``vbp.forward`` entirely — the averaged maps come from the
        cached activations — leaving only the ones-kernel deconvolutions.
        """
        self._check_channels(frames)
        telem = get_telemetry()
        maps = self._averaged_maps_from(activations)
        with telem.span("vbp.backproject", stages=len(self._stages)):
            return self._backproject(maps, frames.shape[2:])

    def _backproject(self, maps: List[np.ndarray], input_hw: Tuple[int, int]) -> np.ndarray:
        """The deconvolution cascade over pre-computed averaged maps.

        Split out from :meth:`_compute` (which adds telemetry spans) so the
        overhead micro-benchmark can time the bare computation.
        """
        mask: Optional[np.ndarray] = None
        # Walk deep -> shallow, deconvolving through each stage's geometry.
        for level in range(len(self._stages) - 1, -1, -1):
            current = maps[level] if mask is None else maps[level] * mask
            if self.scale_intermediate:
                peak = current.max(axis=(1, 2, 3), keepdims=True)
                current = current / np.where(peak > 0, peak, 1.0)
            conv = self._stages[level].conv
            kh, kw = conv.kernel_size
            ones = self._ones_kernel(kh, kw)
            upscaled = conv_transpose2d(current, ones, conv.stride, conv.padding)
            if level > 0:
                target = maps[level - 1].shape[2:]
            else:
                target = input_hw
            mask = _fit_to(upscaled, target)

        return mask[:, 0, :, :]

    def vbp_images(self, frames: np.ndarray) -> np.ndarray:
        """Alias for :meth:`saliency` matching the paper's "VBP images" term.

        These are the images fed to the one-class autoencoder in the
        framework of Figure 1.
        """
        return self.saliency(frames)

    def intermediate_masks(self, frames: np.ndarray) -> List[np.ndarray]:
        """The channel-averaged feature map of each conv stage, shallow to
        deep — the raw ingredients the deconvolution cascade combines.

        Each entry has shape ``(N, h_l, w_l)`` at that stage's resolution.
        Useful for debugging a model whose final mask looks wrong: the
        stage whose map first loses the road structure is the culprit.
        """
        frames = as_tensor(frames, self.dtype)
        if frames.ndim == 3:
            frames = frames[:, None, :, :]
        if frames.ndim != 4 or frames.shape[1] != self._stages[0].conv.in_channels:
            raise ShapeError(
                f"intermediate_masks expects (N, H, W) or (N, C, H, W) frames "
                f"matching the model's input, got {frames.shape}"
            )
        return [m[:, 0, :, :] for m in self._averaged_maps(frames)]
