"""Inverted dropout regularization."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.backend.policy import as_tensor
from repro.nn.layers.base import Layer
from repro.utils.seeding import RngLike, derive_rng


class Dropout(Layer):
    """Inverted dropout: zero activations with probability ``p`` at train
    time, scaling the survivors by ``1/(1-p)`` so inference needs no change.

    Deterministic under a fixed ``rng`` seed, which keeps training runs
    reproducible end to end.
    """

    _cache_attrs = ("_mask",)

    def __init__(self, p: float = 0.5, rng: RngLike = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ConfigurationError(f"dropout probability must be in [0, 1), got {p}")
        self.p = float(p)
        self._rng = derive_rng(rng, stream="dropout")
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = as_tensor(x, self.dtype)
        if not training or self.p == 0.0:
            self._mask = np.ones_like(x)
            return x
        keep = 1.0 - self.p
        # Draw in the generator's native float64 (keeping the stream identical
        # across policies), then cast the mask to the compute dtype.
        self._mask = ((self._rng.random(x.shape) < keep) / keep).astype(
            x.dtype, copy=False
        )
        return x * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise ShapeError("Dropout.backward() called before forward()")
        return as_tensor(grad_output, self.dtype) * self._mask

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"
