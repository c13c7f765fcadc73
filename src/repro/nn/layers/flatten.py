"""Flatten layer bridging convolutional and dense stages of a network."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.backend.policy import as_tensor
from repro.nn.layers.base import Layer


class Flatten(Layer):
    """Reshape ``(N, ...)`` to ``(N, prod(...))`` and back in backward."""

    _cache_attrs = ("_shape",)

    def __init__(self) -> None:
        super().__init__()
        self._shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = as_tensor(x, self.dtype)
        if x.ndim < 2:
            raise ShapeError(f"Flatten expects a batch with ndim >= 2, got {x.shape}")
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise ShapeError("Flatten.backward() called before forward()")
        return as_tensor(grad_output, self.dtype).reshape(self._shape)
