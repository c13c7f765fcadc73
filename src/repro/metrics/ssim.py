"""Structural Similarity Index (SSIM) — metric, component maps and gradient.

Implements SSIM exactly as the paper states it (§III-C), following Wang &
Bovik: local luminance, contrast, and structure statistics over sliding
windows (11x11 by default), combined with exponents α = β = γ = 1 into

.. math::

    \\mathrm{SSIM}(x, y) =
        \\frac{(2\\mu_x\\mu_y + c_1)(2\\sigma_{xy} + c_2)}
              {(\\mu_x^2 + \\mu_y^2 + c_1)(\\sigma_x^2 + \\sigma_y^2 + c_2)}

with smoothing constants :math:`c_1 = (k_1 L)^2`, :math:`c_2 = (k_2 L)^2`
for data range :math:`L`.

Two details matter for this library:

* **Windowing.** Local statistics are computed by correlating with a
  normalized window (uniform by default, Gaussian optional) using zero
  padding, and the final score averages the SSIM map over the *valid*
  interior region where windows do not overhang the border.  Zero padding
  makes the window operator *self-adjoint*, which keeps the gradient exact.
  The operator is the profiled numpy kernel
  :func:`repro.nn.backend.kernels.window_mean`; the five window statistics
  of a batch (and the three back-projections of the gradient) go through
  it as one stacked call, so the kernel profile covers SSIM and scoring
  needs no SciPy.

* **Gradient.** :func:`ssim_and_grad` returns the analytic gradient of the
  mean SSIM with respect to the second image ``y`` so SSIM can be used as a
  training loss for the paper's autoencoder (maximizing similarity between
  input and reconstruction).  The derivation follows the chain rule through
  the window statistics; the test suite verifies it against numerical
  differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.backend.kernels import window_mean
from repro.nn.backend.policy import as_tensor, result_dtype
from repro.utils.validation import require_same_shape

#: Wang & Bovik's standard stabilisation coefficients.
DEFAULT_K1 = 0.01
DEFAULT_K2 = 0.03
DEFAULT_WINDOW_SIZE = 11


@dataclass(frozen=True)
class SsimComponents:
    """Per-window SSIM component maps (luminance, contrast, structure).

    All maps share the input's spatial shape; multiply them elementwise to
    recover the SSIM map (for unit exponents).
    """

    luminance: np.ndarray
    contrast: np.ndarray
    structure: np.ndarray

    @property
    def ssim(self) -> np.ndarray:
        """Combined SSIM map, :math:`l \\cdot c \\cdot s`."""
        return self.luminance * self.contrast * self.structure


def _gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian kernel of odd length ``size``."""
    half = size // 2
    coords = as_tensor(np.arange(-half, half + 1))
    kernel = np.exp(-(coords**2) / (2.0 * sigma**2))
    return kernel / kernel.sum()


def _prepare(
    x: np.ndarray, y: np.ndarray, window_size: int, window: str, sigma: float
) -> Tuple[np.ndarray, np.ndarray, "_Window"]:
    """Validated, dtype-coerced inputs plus their window operator."""
    # SSIM follows its inputs: two float32 images are scored in float32
    # (the window kernel computes in its input's dtype), everything else
    # in float64 as before.
    dtype = result_dtype(np.asarray(x), np.asarray(y))
    x = as_tensor(x, dtype)
    y = as_tensor(y, dtype)
    require_same_shape(x, y, "ssim inputs")
    if x.ndim not in (2, 3):
        raise ShapeError(
            f"ssim expects (H, W) images or (N, H, W) batches, got shape {x.shape}"
        )
    if window_size < 3 or window_size % 2 == 0:
        raise ConfigurationError(
            f"window_size must be an odd integer >= 3, got {window_size}"
        )
    h, w = x.shape[-2], x.shape[-1]
    if window_size > h or window_size > w:
        raise ConfigurationError(
            f"window_size {window_size} exceeds image size {h}x{w}"
        )
    return x, y, _Window(window_size, window, sigma)


class _Window:
    """Normalized local-mean operator over the trailing two axes.

    Uses zero ('constant') padding so the operator is self-adjoint:
    ``apply`` serves both the forward statistics and the gradient
    backprojection in :func:`ssim_and_grad`.
    """

    def __init__(self, window_size: int, kind: str, sigma: float) -> None:
        if kind not in ("uniform", "gaussian"):
            raise ConfigurationError(
                f"window kind must be 'uniform' or 'gaussian', got {kind!r}"
            )
        self.size = window_size
        self._kernel1d = _gaussian_kernel(window_size, sigma) if kind == "gaussian" else None

    def apply(self, img: np.ndarray) -> np.ndarray:
        """Correlate ``img`` with the window along its last two axes,
        overwriting ``img`` (every caller passes a scratch stack)."""
        return window_mean(img, self.size, self._kernel1d, out=img)

    def valid_slices(self, shape: Tuple[int, ...]) -> Tuple[slice, slice]:
        """Interior region where windows never overhang the image border."""
        pad = self.size // 2
        h, w = shape[-2], shape[-1]
        return slice(pad, h - pad), slice(pad, w - pad)


def _raw_maps(
    x: np.ndarray,
    y: np.ndarray,
    window: _Window,
    data_range: float,
    k1: float,
    k2: float,
):
    """Window statistics and SSIM factor maps shared by all entry points."""
    if data_range <= 0:
        raise ConfigurationError(f"data_range must be positive, got {data_range}")
    c1 = (k1 * data_range) ** 2
    c2 = (k2 * data_range) ** 2

    stats = np.stack((x, y, x * x, y * y, x * y))
    mu_x, mu_y, e_xx, e_yy, e_xy = window.apply(stats)

    var_x = e_xx - mu_x**2
    var_y = e_yy - mu_y**2
    cov_xy = e_xy - mu_x * mu_y

    a1 = 2.0 * mu_x * mu_y + c1
    a2 = 2.0 * cov_xy + c2
    b1 = mu_x**2 + mu_y**2 + c1
    b2 = var_x + var_y + c2
    return mu_x, mu_y, var_x, var_y, cov_xy, a1, a2, b1, b2, c1, c2


def _ssim_map(x, y, win, data_range, k1, k2) -> np.ndarray:
    *_, a1, a2, b1, b2, _, _ = _raw_maps(x, y, win, data_range, k1, k2)
    return (a1 * a2) / (b1 * b2)


def ssim_map(
    x: np.ndarray,
    y: np.ndarray,
    window_size: int = DEFAULT_WINDOW_SIZE,
    data_range: float = 1.0,
    k1: float = DEFAULT_K1,
    k2: float = DEFAULT_K2,
    window: str = "uniform",
    sigma: float = 1.5,
) -> np.ndarray:
    """Per-pixel SSIM map (same shape as the inputs).

    Border pixels whose windows overhang the image use zero padding; prefer
    :func:`ssim` (which averages only the valid interior) for scalar scores.
    """
    x, y, win = _prepare(x, y, window_size, window, sigma)
    return _ssim_map(x, y, win, data_range, k1, k2)


def ssim(
    x: np.ndarray,
    y: np.ndarray,
    window_size: int = DEFAULT_WINDOW_SIZE,
    data_range: float = 1.0,
    k1: float = DEFAULT_K1,
    k2: float = DEFAULT_K2,
    window: str = "uniform",
    sigma: float = 1.5,
):
    """Mean SSIM over the valid interior region.

    For ``(H, W)`` inputs returns a float; for ``(N, H, W)`` batches returns
    an ``(N,)`` vector of per-image scores.  Scores lie in ``[-1, 1]`` with
    1.0 meaning perfect correspondence (see paper §III-C).
    """
    x, y, win = _prepare(x, y, window_size, window, sigma)
    smap = _ssim_map(x, y, win, data_range, k1, k2)
    rows, cols = win.valid_slices(x.shape)
    valid = smap[..., rows, cols]
    if x.ndim == 2:
        return float(valid.mean())
    return valid.reshape(x.shape[0], -1).mean(axis=1)


def ssim_components(
    x: np.ndarray,
    y: np.ndarray,
    window_size: int = DEFAULT_WINDOW_SIZE,
    data_range: float = 1.0,
    k1: float = DEFAULT_K1,
    k2: float = DEFAULT_K2,
    window: str = "uniform",
    sigma: float = 1.5,
) -> SsimComponents:
    """Luminance / contrast / structure maps (paper §III-C).

    Uses the standard decomposition with :math:`c_3 = c_2 / 2`:
    luminance :math:`(2\\mu_x\\mu_y+c_1)/(\\mu_x^2+\\mu_y^2+c_1)`,
    contrast :math:`(2\\sigma_x\\sigma_y+c_2)/(\\sigma_x^2+\\sigma_y^2+c_2)`,
    structure :math:`(\\sigma_{xy}+c_3)/(\\sigma_x\\sigma_y+c_3)`.
    """
    x, y, win = _prepare(x, y, window_size, window, sigma)
    _, _, var_x, var_y, cov_xy, a1, _, b1, _, _, c2 = _raw_maps(
        x, y, win, data_range, k1, k2
    )
    # Window means of squares can dip a hair below the squared means from
    # floating-point cancellation; clamp before the square root.
    sd_x = np.sqrt(np.maximum(var_x, 0.0))
    sd_y = np.sqrt(np.maximum(var_y, 0.0))
    c3 = c2 / 2.0
    luminance = a1 / b1
    contrast = (2.0 * sd_x * sd_y + c2) / (var_x + var_y + c2)
    structure = (cov_xy + c3) / (sd_x * sd_y + c3)
    return SsimComponents(luminance=luminance, contrast=contrast, structure=structure)


def ssim_and_grad(
    x: np.ndarray,
    y: np.ndarray,
    window_size: int = DEFAULT_WINDOW_SIZE,
    data_range: float = 1.0,
    k1: float = DEFAULT_K1,
    k2: float = DEFAULT_K2,
    window: str = "uniform",
    sigma: float = 1.5,
):
    """Mean SSIM and its analytic gradient with respect to ``y``.

    Returns ``(score, grad)`` where ``grad`` has ``y``'s shape and equals
    :math:`\\partial\\,\\overline{\\mathrm{SSIM}}(x, y)/\\partial y`.  For a
    batch, ``score`` is the ``(N,)`` per-image vector and ``grad[i]`` is the
    gradient of ``score[i]`` (each image contributes independently).

    Derivation sketch: with window operator :math:`F` (self-adjoint under
    zero padding), :math:`\\mu_y = F y`, :math:`E_{yy} = F y^2`,
    :math:`E_{xy} = F (xy)`; the SSIM map is
    :math:`S = A_1 A_2 / (B_1 B_2)` with the usual factors.  Differentiating
    through the factors and back-projecting with :math:`F` gives

    .. math::
        \\nabla_y = F^T[g_{\\mu_y}] + 2y\\,F^T[g_{E_{yy}}] + x\\,F^T[g_{E_{xy}}]

    where the per-window terms :math:`g_\\cdot` are computed below.
    """
    x, y, win = _prepare(x, y, window_size, window, sigma)
    mu_x, mu_y, _, _, _, a1, a2, b1, b2, _, _ = _raw_maps(
        x, y, win, data_range, k1, k2
    )
    smap = (a1 * a2) / (b1 * b2)

    rows, cols = win.valid_slices(x.shape)
    valid_mask = np.zeros(x.shape[-2:], dtype=x.dtype)
    valid_mask[rows, cols] = 1.0
    n_valid = valid_mask.sum()
    if n_valid == 0:
        raise ConfigurationError(
            f"no valid interior for window_size {window_size} on image {x.shape[-2:]}"
        )

    if x.ndim == 2:
        score = float(smap[rows, cols].mean())
    else:
        score = smap[..., rows, cols].reshape(x.shape[0], -1).mean(axis=1)

    # Upstream gradient of the mean over the valid region: uniform weight on
    # valid map pixels, zero on the border.
    g = valid_mask / n_valid
    if x.ndim == 3:
        g = np.broadcast_to(g, x.shape)

    inv_b1b2 = 1.0 / (b1 * b2)
    g_a1 = g * a2 * inv_b1b2
    g_a2 = g * a1 * inv_b1b2
    g_b1 = -g * smap / b1
    g_b2 = -g * smap / b2

    # Window-statistic gradients:
    #   A1 = 2 mu_x mu_y + c1          -> dA1/dmu_y = 2 mu_x
    #   B1 = mu_x^2 + mu_y^2 + c1      -> dB1/dmu_y = 2 mu_y
    #   A2 = 2 (E_xy - mu_x mu_y) + c2 -> dA2/dE_xy = 2, dA2/dmu_y = -2 mu_x
    #   B2 = (E_xx - mu_x^2) + (E_yy - mu_y^2) + c2
    #                                  -> dB2/dE_yy = 1, dB2/dmu_y = -2 mu_y
    g_mu_y = 2.0 * mu_x * g_a1 + 2.0 * mu_y * g_b1 - 2.0 * mu_x * g_a2 - 2.0 * mu_y * g_b2
    g_e_yy = g_b2
    g_e_xy = 2.0 * g_a2

    f_mu_y, f_e_yy, f_e_xy = win.apply(np.stack((g_mu_y, g_e_yy, g_e_xy)))
    grad = f_mu_y + 2.0 * y * f_e_yy + x * f_e_xy
    return score, grad
