"""Elementwise activation layers.

All activations work on batches of any dimensionality; they cache what the
backward pass needs and are parameter-free.  The math lives in
:mod:`repro.nn.backend.kernels`; each class just coerces to its policy
dtype and holds the cache between forward and backward.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.backend import kernels
from repro.nn.backend.policy import as_tensor
from repro.nn.layers.base import Layer


class ReLU(Layer):
    """Rectified linear unit, ``max(x, 0)``."""

    _cache_attrs = ("_mask",)

    def __init__(self) -> None:
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = as_tensor(x, self.dtype)
        out, self._mask = kernels.relu_forward(x)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise ShapeError("ReLU.backward() called before forward()")
        return kernels.relu_backward(as_tensor(grad_output, self.dtype), self._mask)


class LeakyReLU(Layer):
    """Leaky ReLU with configurable negative-side slope."""

    _cache_attrs = ("_mask",)

    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        if negative_slope < 0:
            raise ShapeError(f"negative_slope must be >= 0, got {negative_slope}")
        self.negative_slope = float(negative_slope)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = as_tensor(x, self.dtype)
        out, self._mask = kernels.leaky_relu_forward(x, self.negative_slope)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise ShapeError("LeakyReLU.backward() called before forward()")
        return kernels.leaky_relu_backward(
            as_tensor(grad_output, self.dtype), self._mask, self.negative_slope
        )

    def __repr__(self) -> str:
        return f"LeakyReLU(negative_slope={self.negative_slope})"


class Sigmoid(Layer):
    """Logistic sigmoid, numerically stable for large |x|.

    The paper's autoencoder uses a sigmoid output layer so reconstructions
    land in [0, 1] like the normalized input images.
    """

    _cache_attrs = ("_out",)

    def __init__(self) -> None:
        super().__init__()
        self._out: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._out = kernels.sigmoid_forward(as_tensor(x, self.dtype))
        return self._out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise ShapeError("Sigmoid.backward() called before forward()")
        return kernels.sigmoid_backward(as_tensor(grad_output, self.dtype), self._out)


class Tanh(Layer):
    """Hyperbolic tangent activation."""

    _cache_attrs = ("_out",)

    def __init__(self) -> None:
        super().__init__()
        self._out: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._out = kernels.tanh_forward(as_tensor(x, self.dtype))
        return self._out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise ShapeError("Tanh.backward() called before forward()")
        return kernels.tanh_backward(as_tensor(grad_output, self.dtype), self._out)
