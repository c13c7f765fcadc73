"""Spatial filters used by the dataset renderers and perturbations.

These are offline augmentation and diagnostics helpers, so each imports
``scipy.ndimage`` inside the function: importing :mod:`repro` or scoring a
frame never loads SciPy.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.backend.policy import as_tensor


def _check_image(image: np.ndarray, name: str) -> np.ndarray:
    image = as_tensor(image)
    if image.ndim not in (2, 3):
        raise ShapeError(f"{name} expects (H, W) or (N, H, W), got {image.shape}")
    return image


def gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian blur over the trailing two (spatial) axes."""
    image = _check_image(image, "gaussian_blur")
    if sigma < 0:
        raise ConfigurationError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return image.copy()
    from scipy import ndimage

    sigmas = (0,) * (image.ndim - 2) + (sigma, sigma)
    return ndimage.gaussian_filter(image, sigma=sigmas, mode="nearest")


def uniform_blur(image: np.ndarray, size: int) -> np.ndarray:
    """Box blur over the trailing two axes."""
    image = _check_image(image, "uniform_blur")
    if size < 1:
        raise ConfigurationError(f"size must be >= 1, got {size}")
    from scipy import ndimage

    sizes = (1,) * (image.ndim - 2) + (size, size)
    return ndimage.uniform_filter(image, size=sizes, mode="nearest")


def sobel_magnitude(image: np.ndarray) -> np.ndarray:
    """Sobel gradient magnitude — an edge map used for mask diagnostics."""
    from scipy import ndimage

    image = _check_image(image, "sobel_magnitude")
    gy = ndimage.sobel(image, axis=-2, mode="nearest")
    gx = ndimage.sobel(image, axis=-1, mode="nearest")
    return np.sqrt(gx**2 + gy**2)
