"""Loss functions with analytic gradients.

Each loss exposes ``forward(pred, target) -> float`` and
``backward() -> dL/dpred``.  :class:`MSELoss` is the Richter & Roy baseline
objective; :class:`SSIMLoss` is the paper's contribution — it trains the
autoencoder to *maximize* structural similarity by minimizing
``1 - mean(SSIM(target, pred))``, using the exact analytic SSIM gradient
from :mod:`repro.metrics.ssim`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError
from repro.metrics.msssim import ms_ssim, ms_ssim_and_grad
from repro.metrics.ssim import DEFAULT_WINDOW_SIZE, ssim, ssim_and_grad
from repro.nn.backend.policy import as_tensor, result_dtype
from repro.utils.validation import require_same_shape


class Loss:
    """Base class: ``forward`` computes the scalar, ``backward`` its gradient."""

    def forward(self, pred: np.ndarray, target: np.ndarray) -> float:
        raise NotImplementedError

    def backward(self) -> np.ndarray:
        """Gradient of the scalar loss with respect to the last ``pred``."""
        raise NotImplementedError

    def per_sample(self, pred: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Per-sample loss vector for an ``(N, ...)`` batch (no caching)."""
        raise NotImplementedError

    def __call__(self, pred: np.ndarray, target: np.ndarray) -> float:
        return self.forward(pred, target)


def _as_float_pair(pred: np.ndarray, target: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    # Follow the inputs: a float32 inference pipeline keeps its scoring
    # losses in float32; any other combination computes in float64.
    dtype = result_dtype(np.asarray(pred), np.asarray(target))
    pred = as_tensor(pred, dtype)
    target = as_tensor(target, dtype)
    require_same_shape(pred, target, "loss inputs")
    if pred.size == 0:
        raise ShapeError("loss inputs must be non-empty")
    return pred, target


class MSELoss(Loss):
    """Mean squared error over all elements of the batch."""

    def __init__(self) -> None:
        self._cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def forward(self, pred: np.ndarray, target: np.ndarray) -> float:
        pred, target = _as_float_pair(pred, target)
        self._cache = (pred, target)
        return float(np.mean((pred - target) ** 2))

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise ShapeError("MSELoss.backward() called before forward()")
        pred, target = self._cache
        return 2.0 * (pred - target) / pred.size

    def per_sample(self, pred: np.ndarray, target: np.ndarray) -> np.ndarray:
        pred, target = _as_float_pair(pred, target)
        diff = (pred - target).reshape(pred.shape[0], -1)
        return np.mean(diff**2, axis=1)


class MAELoss(Loss):
    """Mean absolute error; more robust to outlier pixels than MSE."""

    def __init__(self) -> None:
        self._cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def forward(self, pred: np.ndarray, target: np.ndarray) -> float:
        pred, target = _as_float_pair(pred, target)
        self._cache = (pred, target)
        return float(np.mean(np.abs(pred - target)))

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise ShapeError("MAELoss.backward() called before forward()")
        pred, target = self._cache
        return np.sign(pred - target) / pred.size

    def per_sample(self, pred: np.ndarray, target: np.ndarray) -> np.ndarray:
        pred, target = _as_float_pair(pred, target)
        diff = np.abs(pred - target).reshape(pred.shape[0], -1)
        return np.mean(diff, axis=1)


class HuberLoss(Loss):
    """Huber loss: quadratic near zero, linear beyond ``delta``.

    Useful for steering-angle regression where occasional extreme labels
    (sharp turns) would otherwise dominate an MSE objective.
    """

    def __init__(self, delta: float = 1.0) -> None:
        if delta <= 0:
            raise ConfigurationError(f"delta must be positive, got {delta}")
        self.delta = float(delta)
        self._cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def forward(self, pred: np.ndarray, target: np.ndarray) -> float:
        pred, target = _as_float_pair(pred, target)
        self._cache = (pred, target)
        return float(np.mean(self._elementwise(pred - target)))

    def _elementwise(self, diff: np.ndarray) -> np.ndarray:
        abs_diff = np.abs(diff)
        quad = 0.5 * diff**2
        lin = self.delta * (abs_diff - 0.5 * self.delta)
        return np.where(abs_diff <= self.delta, quad, lin)

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise ShapeError("HuberLoss.backward() called before forward()")
        pred, target = self._cache
        diff = pred - target
        grad = np.clip(diff, -self.delta, self.delta)
        return grad / pred.size

    def per_sample(self, pred: np.ndarray, target: np.ndarray) -> np.ndarray:
        pred, target = _as_float_pair(pred, target)
        per_elem = self._elementwise(pred - target).reshape(pred.shape[0], -1)
        return np.mean(per_elem, axis=1)


class SSIMLoss(Loss):
    """``1 - mean SSIM`` between reconstructions and targets (paper §III-C).

    The autoencoder operates on flattened ``(N, H*W)`` vectors, so this loss
    reshapes each sample to ``image_shape`` before computing windowed SSIM
    statistics.  Minimizing the loss maximizes structural similarity; a loss
    of 0 corresponds to SSIM 1.0 (perfect reconstruction).

    Parameters
    ----------
    image_shape:
        ``(H, W)`` spatial shape each flattened sample encodes.
    window_size, data_range, k1, k2, window, sigma:
        Forwarded to :func:`repro.metrics.ssim.ssim_and_grad` (training) and
        :func:`repro.metrics.ssim.ssim` (:meth:`per_sample`, which scores
        without a gradient).
    """

    def __init__(
        self,
        image_shape: Tuple[int, int],
        window_size: int = DEFAULT_WINDOW_SIZE,
        data_range: float = 1.0,
        k1: float = 0.01,
        k2: float = 0.03,
        window: str = "uniform",
        sigma: float = 1.5,
    ) -> None:
        if len(image_shape) != 2 or image_shape[0] < 1 or image_shape[1] < 1:
            raise ConfigurationError(f"image_shape must be (H, W), got {image_shape}")
        self.image_shape = (int(image_shape[0]), int(image_shape[1]))
        self.window_size = window_size
        self.data_range = data_range
        self.k1 = k1
        self.k2 = k2
        self.window = window
        self.sigma = sigma
        self._grad: Optional[np.ndarray] = None
        self._flat_input: bool = True
        self._n: int = 0

    def _to_images(self, arr: np.ndarray, name: str) -> np.ndarray:
        h, w = self.image_shape
        if arr.ndim == 2 and arr.shape[1] == h * w:
            self._flat_input = True
            return arr.reshape(arr.shape[0], h, w)
        if arr.ndim == 3 and arr.shape[1:] == (h, w):
            self._flat_input = False
            return arr
        raise ShapeError(
            f"{name} must be (N, {h * w}) flat or (N, {h}, {w}) images, got {arr.shape}"
        )

    def forward(self, pred: np.ndarray, target: np.ndarray) -> float:
        pred, target = _as_float_pair(pred, target)
        pred_img = self._to_images(pred, "pred")
        target_img = self._to_images(target, "target")
        self._n = pred_img.shape[0]
        # SSIM is differentiated with respect to its second argument, so the
        # reconstruction goes second: d(loss)/d(pred) is what training needs.
        scores, grad = ssim_and_grad(
            target_img,
            pred_img,
            window_size=self.window_size,
            data_range=self.data_range,
            k1=self.k1,
            k2=self.k2,
            window=self.window,
            sigma=self.sigma,
        )
        self._grad = grad
        return float(1.0 - np.mean(scores))

    def backward(self) -> np.ndarray:
        if self._grad is None:
            raise ShapeError("SSIMLoss.backward() called before forward()")
        # loss = 1 - mean_i score_i, and _grad[i] = d score_i / d pred_i.
        grad = -self._grad / self._n
        if self._flat_input:
            return grad.reshape(self._n, -1)
        return grad

    def per_sample(self, pred: np.ndarray, target: np.ndarray) -> np.ndarray:
        pred, target = _as_float_pair(pred, target)
        pred_img = self._to_images(pred, "pred")
        target_img = self._to_images(target, "target")
        scores = ssim(
            target_img,
            pred_img,
            window_size=self.window_size,
            data_range=self.data_range,
            k1=self.k1,
            k2=self.k2,
            window=self.window,
            sigma=self.sigma,
        )
        return 1.0 - np.atleast_1d(scores)


class MSSSIMLoss(Loss):
    """``1 - mean multi-scale SSIM`` (arithmetic-mean variant).

    An extension beyond the paper's single-scale SSIM loss: also penalizes
    reconstruction errors in coarse structure via 2x-downsampled pyramid
    levels (see :mod:`repro.metrics.msssim`).  Used by the loss-function
    ablation experiment.
    """

    def __init__(
        self,
        image_shape: Tuple[int, int],
        scales: int = 3,
        window_size: int = DEFAULT_WINDOW_SIZE,
        data_range: float = 1.0,
        window: str = "uniform",
    ) -> None:
        if len(image_shape) != 2 or image_shape[0] < 1 or image_shape[1] < 1:
            raise ConfigurationError(f"image_shape must be (H, W), got {image_shape}")
        if scales < 1:
            raise ConfigurationError(f"scales must be >= 1, got {scales}")
        self.image_shape = (int(image_shape[0]), int(image_shape[1]))
        self.scales = int(scales)
        self.window_size = window_size
        self.data_range = data_range
        self.window = window
        self._grad: Optional[np.ndarray] = None
        self._flat_input: bool = True
        self._n: int = 0

    def _to_images(self, arr: np.ndarray, name: str) -> np.ndarray:
        h, w = self.image_shape
        if arr.ndim == 2 and arr.shape[1] == h * w:
            self._flat_input = True
            return arr.reshape(arr.shape[0], h, w)
        if arr.ndim == 3 and arr.shape[1:] == (h, w):
            self._flat_input = False
            return arr
        raise ShapeError(
            f"{name} must be (N, {h * w}) flat or (N, {h}, {w}) images, got {arr.shape}"
        )

    def forward(self, pred: np.ndarray, target: np.ndarray) -> float:
        pred, target = _as_float_pair(pred, target)
        pred_img = self._to_images(pred, "pred")
        target_img = self._to_images(target, "target")
        self._n = pred_img.shape[0]
        scores, grad = ms_ssim_and_grad(
            target_img,
            pred_img,
            scales=self.scales,
            window_size=self.window_size,
            data_range=self.data_range,
            window=self.window,
        )
        self._grad = grad
        return float(1.0 - np.mean(scores))

    def backward(self) -> np.ndarray:
        if self._grad is None:
            raise ShapeError("MSSSIMLoss.backward() called before forward()")
        grad = -self._grad / self._n
        if self._flat_input:
            return grad.reshape(self._n, -1)
        return grad

    def per_sample(self, pred: np.ndarray, target: np.ndarray) -> np.ndarray:
        pred, target = _as_float_pair(pred, target)
        pred_img = self._to_images(pred, "pred")
        target_img = self._to_images(target, "target")
        scores = ms_ssim(
            target_img,
            pred_img,
            scales=self.scales,
            window_size=self.window_size,
            data_range=self.data_range,
            window=self.window,
        )
        return 1.0 - np.atleast_1d(scores)
