"""Image perturbations from the paper's experiments and threat model.

* :func:`add_gaussian_noise` and :func:`adjust_brightness` are the two
  modifications of Figure 3, with :func:`calibrate_noise_to_mse` /
  :func:`calibrate_brightness_to_mse` reproducing the figure's setup of
  engineering both to the *same* pixel-wise MSE (so only SSIM can tell them
  apart).
* :func:`rotate`, :func:`translate`, :func:`occlude` and :func:`apply_blur`
  cover the simple transformations the introduction cites as sufficient to
  fool CNNs (Engstrom et al.; DeepTest).

All functions are pure (they never modify their input) and operate on
``(H, W)`` images or ``(N, H, W)`` batches in [0, 1].  The ones built on
``scipy.ndimage`` import it when called, so importing :mod:`repro.datasets`
(which the serving stack does) never loads SciPy.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError
from repro.image.filters import gaussian_blur
from repro.nn.backend.policy import as_tensor
from repro.utils.seeding import RngLike, derive_rng


def _check(image: np.ndarray, name: str) -> np.ndarray:
    image = as_tensor(image)
    if image.ndim not in (2, 3):
        raise ShapeError(f"{name} expects (H, W) or (N, H, W), got {image.shape}")
    return image


def add_gaussian_noise(
    image: np.ndarray, sigma: float, rng: RngLike = None, clip: bool = True
) -> np.ndarray:
    """Additive zero-mean Gaussian pixel noise with std ``sigma``."""
    image = _check(image, "add_gaussian_noise")
    if sigma < 0:
        raise ConfigurationError(f"sigma must be >= 0, got {sigma}")
    noisy = image + derive_rng(rng).normal(0.0, sigma, size=image.shape)
    return np.clip(noisy, 0.0, 1.0) if clip else noisy


def adjust_brightness(image: np.ndarray, delta: float, clip: bool = True) -> np.ndarray:
    """Uniform additive brightness shift by ``delta``."""
    image = _check(image, "adjust_brightness")
    out = image + delta
    return np.clip(out, 0.0, 1.0) if clip else out


def calibrate_noise_to_mse(
    image: np.ndarray, target_mse: float, rng: RngLike = None, tolerance: float = 0.02
) -> np.ndarray:
    """Gaussian-noised copy of ``image`` whose MSE from the original is
    ``target_mse`` (within ``tolerance``, relative).

    Without clipping, noise of std :math:`\\sigma` yields MSE
    :math:`\\sigma^2`; clipping to [0, 1] reduces it, so a short secant
    iteration adjusts :math:`\\sigma` until the clipped MSE matches.
    Reproduces the construction behind the paper's Figure 3.
    """
    image = _check(image, "calibrate_noise_to_mse")
    if target_mse <= 0:
        raise ConfigurationError(f"target_mse must be positive, got {target_mse}")
    generator = derive_rng(rng)
    noise_unit = generator.normal(0.0, 1.0, size=image.shape)

    sigma = np.sqrt(target_mse)
    for _ in range(40):
        noisy = np.clip(image + sigma * noise_unit, 0.0, 1.0)
        achieved = float(np.mean((noisy - image) ** 2))
        if abs(achieved - target_mse) <= tolerance * target_mse:
            return noisy
        # Clipping only shrinks the error, so scale sigma up proportionally.
        sigma *= np.sqrt(target_mse / max(achieved, 1e-12))
    raise ConfigurationError(
        f"could not calibrate noise to MSE {target_mse} "
        f"(achieved {achieved:.5f}); image may be too saturated"
    )


def calibrate_brightness_to_mse(
    image: np.ndarray, target_mse: float, tolerance: float = 0.02
) -> np.ndarray:
    """Brightness-shifted copy of ``image`` with the given MSE from it.

    Without clipping the MSE of a shift :math:`\\delta` is exactly
    :math:`\\delta^2`; clipping is handled by the same secant iteration as
    the noise calibration.
    """
    image = _check(image, "calibrate_brightness_to_mse")
    if target_mse <= 0:
        raise ConfigurationError(f"target_mse must be positive, got {target_mse}")
    delta = np.sqrt(target_mse)
    for _ in range(40):
        shifted = np.clip(image + delta, 0.0, 1.0)
        achieved = float(np.mean((shifted - image) ** 2))
        if abs(achieved - target_mse) <= tolerance * target_mse:
            return shifted
        delta *= np.sqrt(target_mse / max(achieved, 1e-12))
        if delta > 2.0:
            break
    raise ConfigurationError(
        f"could not calibrate brightness to MSE {target_mse} "
        f"(achieved {achieved:.5f}); image may be too bright to shift further"
    )


def rotate(image: np.ndarray, degrees: float) -> np.ndarray:
    """Rotate about the image center (bilinear, nearest-edge padding)."""
    image = _check(image, "rotate")
    if image.ndim == 3:
        return np.stack([rotate(im, degrees) for im in image])
    from scipy import ndimage

    return ndimage.rotate(
        image, degrees, reshape=False, order=1, mode="nearest"
    )


def translate(image: np.ndarray, shift_rows: int, shift_cols: int) -> np.ndarray:
    """Translate by whole pixels (nearest-edge padding)."""
    image = _check(image, "translate")
    from scipy import ndimage

    shifts = (0,) * (image.ndim - 2) + (shift_rows, shift_cols)
    return ndimage.shift(image, shifts, order=0, mode="nearest")


def occlude(
    image: np.ndarray,
    size_frac: float = 0.25,
    value: float = 0.0,
    rng: RngLike = None,
) -> np.ndarray:
    """Black out (or paint) a random square patch covering ``size_frac``
    of each spatial dimension."""
    image = _check(image, "occlude").copy()
    if not 0.0 < size_frac <= 1.0:
        raise ConfigurationError(f"size_frac must be in (0, 1], got {size_frac}")
    generator = derive_rng(rng)
    h, w = image.shape[-2], image.shape[-1]
    ph, pw = max(int(h * size_frac), 1), max(int(w * size_frac), 1)

    def _one(img: np.ndarray) -> None:
        top = int(generator.integers(0, h - ph + 1))
        left = int(generator.integers(0, w - pw + 1))
        img[top : top + ph, left : left + pw] = value

    if image.ndim == 2:
        _one(image)
    else:
        for img in image:
            _one(img)
    return image


def apply_blur(image: np.ndarray, sigma: float = 1.5) -> np.ndarray:
    """Gaussian defocus blur (a sensor-degradation perturbation)."""
    return gaussian_blur(_check(image, "apply_blur"), sigma)


def adjust_contrast(image: np.ndarray, factor: float, clip: bool = True) -> np.ndarray:
    """Scale contrast about the image mean by ``factor``.

    ``factor > 1`` stretches intensities away from the mean, ``factor < 1``
    flattens them (fog/haze-like degradation).
    """
    image = _check(image, "adjust_contrast")
    if factor < 0:
        raise ConfigurationError(f"factor must be >= 0, got {factor}")
    if image.ndim == 2:
        mean = image.mean()
    else:
        mean = image.mean(axis=(1, 2), keepdims=True)
    out = mean + factor * (image - mean)
    return np.clip(out, 0.0, 1.0) if clip else out


def salt_and_pepper(
    image: np.ndarray, amount: float = 0.05, rng: RngLike = None
) -> np.ndarray:
    """Set a random ``amount`` fraction of pixels to pure black or white.

    The classic impulse-noise model for failing sensors; unlike Gaussian
    noise it is sparse, so it probes a different corner of the detector's
    sensitivity.
    """
    image = _check(image, "salt_and_pepper").copy()
    if not 0.0 <= amount <= 1.0:
        raise ConfigurationError(f"amount must be in [0, 1], got {amount}")
    if amount == 0.0:
        return image
    generator = derive_rng(rng)
    rolls = generator.random(image.shape)
    image[rolls < amount / 2.0] = 0.0
    image[rolls > 1.0 - amount / 2.0] = 1.0
    return image
